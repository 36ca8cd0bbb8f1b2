#!/bin/sh
# metriclint: static lint for the /metrics namespace.
#
# Two rules, both enforced over the serving layer (safemon/serve), the
# daemon (cmd/), README.md, and the exposition golden file:
#
#   1. Naming: every registered metric family is safemon_-prefixed, and
#      its suffix matches its type as Prometheus and OpenMetrics reserve
#      them: counters end in _total, gauges never do, and histograms end
#      in a unit (_seconds or _bytes).
#   2. No phantom metrics: every safemon_* name mentioned anywhere —
#      tests, docs, the golden file — must correspond to a family a
#      registration call (Histogram/CounterFunc/GaugeFunc/GaugeCollector)
#      actually creates, so documentation and dashboards cannot drift
#      from the registry. Histogram sample suffixes (_bucket/_sum/_count)
#      are folded back onto their family first.
#
# The generic safemon/obs package is out of scope: its tests exercise
# the registry with deliberately arbitrary names.
#
# Run via `make metriclint` (or `make ci`, which includes it).
set -eu
cd "$(dirname "$0")/.."

name_re='safemon_[a-z0-9_]+'

# Families created by a registration call in code, as "<type> <family>"
# lines; the type is the call's stem (CounterFunc registers a Counter).
registrations="$(grep -rhoE "\.(Histogram|CounterFunc|GaugeFunc|GaugeCollector)\(\"$name_re\"" \
	--include='*.go' safemon/serve cmd |
	sed -E 's/^\.(Counter|Gauge|Histogram)[A-Za-z]*\("([a-z0-9_]+)"$/\1 \2/' | sort -u)"
registered="$(printf '%s\n' "$registrations" | cut -d' ' -f2 | sort -u)"

if [ -z "$registered" ]; then
	echo "metriclint: found no metric registrations — the grep is broken" >&2
	exit 1
fi

bad=0

# Rule 1: each registered family's suffix matches its type.
while read -r kind fam; do
	case "$kind $fam" in
	"Counter "*_total | "Histogram "*_seconds | "Histogram "*_bytes) ;;
	"Counter "*)
		echo "metriclint: counter $fam must end in _total" >&2
		bad=1
		;;
	"Gauge "*_total)
		echo "metriclint: gauge $fam must not end in _total (reserved for counters)" >&2
		bad=1
		;;
	"Gauge "*) ;;
	*)
		echo "metriclint: histogram $fam must end in _seconds or _bytes" >&2
		bad=1
		;;
	esac
done <<EOF
$registrations
EOF

# Rule 2: every mentioned name resolves to a registered family.
# The docs are grepped separately: --include='*.go' also filters files
# named on the command line, so one grep would silently skip them.
mentioned="$({
	grep -rhoE "$name_re" --include='*.go' safemon/serve cmd
	grep -hoE "$name_re" README.md safemon/serve/testdata/metrics.golden
} | sed -E 's/_(bucket|sum|count)$//' | sort -u)"
for fam in $mentioned; do
	if ! printf '%s\n' "$registered" | grep -qxF "$fam"; then
		echo "metriclint: $fam is mentioned but never registered (typo, or register it)" >&2
		bad=1
	fi
done

if [ "$bad" -ne 0 ]; then
	exit 1
fi
echo "metriclint: $(printf '%s\n' "$registered" | wc -l | tr -d ' ') families ok"
