#!/bin/sh
# benchguard: the allocation- and latency-regression gate for the
# streaming hot path.
#
# Runs the per-backend session-step benchmarks with -benchmem — the
# fitted-detector path (BenchmarkSessionStep), the artifact-loaded path
# (BenchmarkSessionStepLoaded) and the ledger-recording path
# (BenchmarkSessionStepLedgered) — plus the guard policy engine's
# BenchmarkGuardStep, the event ledger's emit path
# (BenchmarkLedgerAppend), the binary wire codec's encode+decode
# round trip (BenchmarkCodecRoundTrip, binary subs only), and the
# instrumented serve warm path with stage telemetry enabled
# (BenchmarkServeStreamWarm), and enforces two budgets:
#
#   1. allocs/op must be 0 on every repeat of every sub-benchmark: the
#      zero-allocation guarantee README's Performance section documents
#      must hold for models loaded from artifacts exactly as it does for
#      freshly fitted ones, and neither the closed-loop guard nor durable
#      event recording may add anything to the per-frame path.
#   2. the per-benchmark MEDIAN ns/op must stay within the budget recorded
#      in scripts/bench_baseline.txt. Single short runs are noisy (PR 6's
#      ledger-overhead row went negative from exactly that), so every
#      benchmark is repeated BENCHCOUNT times (-count, default 5) and
#      gated on the median, not a lone sample.
#
# Each repeat runs for a duration, not a fixed iteration count: at a
# handful of iterations a sub-microsecond row times timer start-up and
# cold caches, which hides a 10x steady-state regression under start-up
# noise. The budgets are derived from steady-state medians.
#
# Knobs:
#   BENCHTIME   per-repeat benchtime (default 100ms; a duration keeps
#               every row in steady state)
#   BENCHCOUNT  number of repeats the median is taken over (default 5)
#   BENCHGUARD_NSOP_SCALE
#               multiplier applied to every ns/op budget — set it above 1
#               on machines slower than the baseline host (e.g.
#               BENCHGUARD_NSOP_SCALE=3 make bench-smoke). The allocation
#               budget is never scaled.
#
# Run via `make bench-smoke` (or `make ci`, which includes it).
set -eu
cd "$(dirname "$0")/.."

GO="${GO:-go}"
BENCHTIME="${BENCHTIME:-100ms}"
BENCHCOUNT="${BENCHCOUNT:-5}"
BENCHGUARD_NSOP_SCALE="${BENCHGUARD_NSOP_SCALE:-1}"
baseline="scripts/bench_baseline.txt"

out="$("$GO" test -run='^$' -bench='^BenchmarkSessionStep(Loaded|Ledgered)?$' \
	-benchtime="$BENCHTIME" -count="$BENCHCOUNT" -benchmem ./safemon/)" || {
	echo "$out"
	echo "benchguard: benchmark run failed" >&2
	exit 1
}
guardout="$("$GO" test -run='^$' -bench='^BenchmarkGuardStep$' \
	-benchtime="$BENCHTIME" -count="$BENCHCOUNT" -benchmem ./safemon/guard/)" || {
	echo "$guardout"
	echo "benchguard: guard benchmark run failed" >&2
	exit 1
}
ledgerout="$("$GO" test -run='^$' -bench='^BenchmarkLedgerAppend$' \
	-benchtime="$BENCHTIME" -count="$BENCHCOUNT" -benchmem ./safemon/ledger/)" || {
	echo "$ledgerout"
	echo "benchguard: ledger benchmark run failed" >&2
	exit 1
}
# Only the binary subs of the codec round-trip are gated: NDJSON
# marshals through encoding/json and inherently allocates; the binary
# wire codec's 0 allocs/op warm path is a documented contract (PR 9).
codecout="$("$GO" test -run='^$' -bench='^BenchmarkCodecRoundTrip$/^binary' \
	-benchtime="$BENCHTIME" -count="$BENCHCOUNT" -benchmem ./safemon/serve/)" || {
	echo "$codecout"
	echo "benchguard: codec benchmark run failed" >&2
	exit 1
}
# The instrumented serve warm path (PR 10): the full per-frame handler
# loop — decode, shard push, ledger emit, guard step, encode — with the
# stage-histogram and slow-ring telemetry enabled must stay 0 allocs/op.
warmout="$("$GO" test -run='^$' -bench='^BenchmarkServeStreamWarm$' \
	-benchtime="$BENCHTIME" -count="$BENCHCOUNT" -benchmem ./safemon/serve/)" || {
	echo "$warmout"
	echo "benchguard: serve warm-path benchmark run failed" >&2
	exit 1
}
out="$out
$guardout
$ledgerout
$codecout
$warmout"
echo "$out"

# Benchmark lines look like:
#   BenchmarkX/sub-8   50   206.4 ns/op   0 B/op   0 allocs/op
# Allocations are gated per repeat; ns/op is aggregated to a median per
# benchmark name (GOMAXPROCS suffix stripped) and compared against the
# scaled budget from the baseline file.
echo "$out" | awk -v baseline="$baseline" -v scale="$BENCHGUARD_NSOP_SCALE" '
	BEGIN {
		while ((getline line < baseline) > 0) {
			if (line ~ /^[ \t]*(#|$)/) continue
			split(line, f, /[ \t]+/)
			budget[f[1]] = f[2] + 0
		}
		close(baseline)
	}
	/^Benchmark(SessionStep|GuardStep|LedgerAppend|CodecRoundTrip|ServeStreamWarm)/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		if ($(NF-1) + 0 > 0) {
			printf "benchguard: %s allocates %s allocs/op (budget: 0)\n", name, $(NF-1)
			bad = 1
		}
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") {
				n[name]++
				samples[name, n[name]] = $i + 0
				break
			}
		}
	}
	END {
		for (name in n) {
			cnt = n[name]
			# insertion-sort this benchmark samples, then take the median
			for (i = 1; i <= cnt; i++) v[i] = samples[name, i]
			for (i = 2; i <= cnt; i++) {
				x = v[i]
				for (j = i - 1; j >= 1 && v[j] > x; j--) v[j+1] = v[j]
				v[j+1] = x
			}
			med = (cnt % 2) ? v[(cnt+1)/2] : (v[cnt/2] + v[cnt/2+1]) / 2
			if (!(name in budget)) {
				printf "benchguard: %s has no ns/op budget in %s (median %.0f ns/op); add a row\n", name, baseline, med
				bad = 1
				continue
			}
			lim = budget[name] * scale
			if (med > lim) {
				printf "benchguard: %s median %.0f ns/op over budget %.0f ns/op (%d repeats)\n", name, med, lim, cnt
				bad = 1
			} else {
				printf "benchguard: %s median %.0f ns/op within budget %.0f ns/op (%d repeats)\n", name, med, lim, cnt
			}
		}
		exit bad
	}
' || {
	echo "benchguard: hot-path budget exceeded (allocs/op or median ns/op)" >&2
	exit 1
}
echo "benchguard: all session-step, guard-step, ledger-append, codec round-trip and serve warm-path benchmarks within the 0 allocs/op and median ns/op budgets"
