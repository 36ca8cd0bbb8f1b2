#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload monitor-30hz --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Go's build cache, temporary files, the
# harness binary, the disk ledger and the span dumps all stay under the
# build directory ($CARGO_TARGET_DIR, default .bench_build), so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/tmp" "$build/home"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export XDG_CACHE_HOME="$build/home"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" --build "$build" "$@"
