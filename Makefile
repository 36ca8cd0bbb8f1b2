# CI entry points for the conf_dsn_YasarA20 reproduction.
#
#   make ci          - gofmt check, vet (incl. the perfbench module),
#                      build, tests (incl. the train->save->load->serve
#                      lifecycle smoke), -race on safemon+serve, fuzz-corpus
#                      replay, allocation benchguard, closed-loop
#                      mitigation smoke, perfbench fidelity smoke (tier-1
#                      gate)
#   make train       - fit every backend and write versioned model artifacts
#                      into ./models (serve them: safemond -model-dir ./models)
#   make lifecycle-smoke - train->save->load->serve smoke test only: safemond
#                      must answer streams from artifacts with zero Fit calls
#   make bench       - one-iteration smoke of the root benchmark harness (paper
#                      tables, hot-path and ablation benches; the serving path
#                      is measured open loop by perfbench/run.sh)
#   make bench-smoke - with -benchmem: per-backend session-step
#                      benchmarks (fitted, artifact-loaded and ledgered,
#                      and the prepared step of the two LSTM backends),
#                      the guard engine's BenchmarkGuardStep, the event
#                      ledger's BenchmarkLedgerAppend, every sub of
#                      BenchmarkCodecRoundTrip (binary and NDJSON records),
#                      and BenchmarkServeStreamWarm
#                      (the production serve pump's per-frame step: a
#                      guarded session steps its policy inside its push),
#                      gated by scripts/benchguard.sh: 0 allocs/op, and the median
#                      of BENCHCOUNT repeats, each run for BENCHTIME
#                      (default 100ms, so every row times the steady state),
#                      must stay within the per-benchmark ns/op budgets in
#                      scripts/bench_baseline.txt (scale them on slower
#                      machines with BENCHGUARD_NSOP_SCALE=<mult>)
#   make mitigate-smoke - tiny closed-loop reaction campaign: the guarded
#                      context-aware monitor AND the cascade gating it must
#                      each prevent >=1 block-drop hazard the unguarded
#                      baseline suffers, with zero false stops on
#                      fault-free runs
#   make incidents-smoke - record -> safe-stop -> replay round-trip: guarded
#                      streams with injected faults latch incidents into an
#                      on-disk event ledger, and every incident must replay
#                      byte-identically through its original backend
#   make perfbench-smoke - a 2 s traced perfbench run (edge-ndjson: cascade
#                      over NDJSON, every verdict == the offline Runner)
#                      whose fidelity probes must pass: core.Stream.Push
#                      equals the served session, the per-layer chain
#                      equals core.Stream.Push, and the saved context
#                      payload decodes into the served monitor
#   make metriclint  - /metrics namespace lint: naming discipline and no
#                      unregistered metric names in code or docs
#   make bench-coldstart - per-backend fit-vs-load time-to-ready benchmarks
#   make fuzz-replay - replay the checked-in fuzz seed corpora (no fuzzing)
#   make fuzz        - actively fuzz the serve protocol parsers (NDJSON and
#                      binary), the NDJSON hot-record appenders and
#                      scanners, the model artifact/manifest decoders,
#                      and every backend's session Push for 30s each
#   make test        - tests only
#   make race        - race-detector pass over the concurrency-bearing packages
#                      (safemon, its serving layer, internal/nn's
#                      pipelined Fit, and ten runs each of the ledger
#                      appender's tests and the /v1/mux lifecycle tests)
#   make fmt         - apply gofmt in place

GO ?= go
TRAIN_FLAGS ?= -demos 16 -scale 0.5 -epochs 4 -stride 3

.PHONY: ci fmt fmtcheck vet build test race bench bench-smoke benchguard \
	bench-coldstart fuzz fuzz-replay train lifecycle-smoke mitigate-smoke \
	incidents-smoke metriclint perfbench-smoke

ci: fmtcheck vet build test race fuzz-replay bench-smoke mitigate-smoke incidents-smoke metriclint perfbench-smoke

fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is its own module (its go.mod replaces repro with ../), so
# the root ./... never compiles it; vetting it here catches a serve API
# change that would break the benchmark before the pipeline runs it.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The safemon façade and the safemond serving layer (concurrent sessions
# on shared detectors, hot-swap, the in-flight drain, mux session
# goroutines, the error library fitted beside the gesture classifier)
# carry the concurrency; they get a dedicated race-detector pass. So does
# internal/nn, whose Network.Fit runs its forward and backward stages on
# two goroutines; the pipeline test runs ten times over, since
# ./safemon/... reaches Fit only through fixtures. The ledger appender's
# writer races its tick, Flush and Close, so its tests run ten times
# over too. So do the /v1/mux tests: the connection reader and its
# session goroutines coordinate through a channel close (a half-close)
# and a cancel cause (a cut), and a second close would panic the
# handler.
race:
	$(GO) test -race ./safemon/...
	$(GO) test -race ./internal/nn
	$(GO) test -race -count=10 -run '^TestFitPipelineMatchesSequential$$' ./internal/nn
	$(GO) test -race -count=10 -run '^TestAppender' ./safemon/ledger
	$(GO) test -race -count=10 -run '^TestMux' ./safemon/serve

bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x .

# Session-step micro-benchmarks with allocation and latency accounting;
# fails CI when any backend's warm per-frame path — fitted or
# artifact-loaded — allocates, or when its steady-state median ns/op over
# BENCHCOUNT repeats of BENCHTIME each exceeds the budget in
# scripts/bench_baseline.txt (override for slower machines with
# BENCHGUARD_NSOP_SCALE=<multiplier>).
bench-smoke benchguard:
	sh scripts/benchguard.sh

# Fit-vs-load time-to-ready per backend (the numbers behind BENCH_PR4.json).
bench-coldstart:
	$(GO) test -run='^$$' -bench='^BenchmarkColdStart$$' -benchtime=1x -benchmem ./safemon/

# Fit every backend on synthetic demonstrations and persist versioned
# artifacts into ./models; `safemond -model-dir ./models -backends all`
# then serves them without any startup training. Override TRAIN_FLAGS for
# full-scale training (e.g. TRAIN_FLAGS='-demos 24 -scale 0.6').
train:
	$(GO) run ./cmd/safemond -train-only -model-dir ./models -backends all $(TRAIN_FLAGS)

# The train->save->load->serve smoke: proves a safemond rebuilt from
# artifacts answers streams byte-identically with zero Fit calls (also part
# of `make test`, surfaced here as its own gate).
lifecycle-smoke:
	$(GO) test -run='^TestLifecycleSmoke$$' -count=1 -v ./cmd/safemond/

# The closed-loop mitigation smoke: a tiny deterministic reaction campaign
# (internal/mitigation) in which the guarded context-aware monitor and the
# cascade backend gating it must each prevent at least one block-drop
# hazard the unguarded baseline suffers and engage zero stopping actions
# on fault-free trajectories.
mitigate-smoke:
	$(GO) test -run='^TestMitigateSmoke$$' -count=1 -v ./internal/mitigation/

# The incident-ledger smoke: the experiments drill records guarded streams
# (clean + fault-injected) into a disk ledger through a live safemond,
# requires every injected attack to latch into an incident, and fails
# unless each incident replays byte-identically through its original
# backend and policy.
incidents-smoke:
	$(GO) run ./cmd/experiments -run incidents

# perfbench's traced fidelity probes, which no other CI step runs. The
# edge-ndjson workload is a closed loop, so the open-loop lag rule cannot
# invalidate the run; it serves cascade over NDJSON, checks every verdict
# == against the offline Runner, and probes a context-aware twin. The
# build stays under .bench_build.
perfbench-smoke:
	bash perfbench/run.sh --workload edge-ndjson --seed 1 --seconds 2 --trace 1

# The /metrics namespace lint: registered families are safemon_-prefixed
# with type-aware suffixes (counters _total, gauges never _total,
# histograms _seconds or _bytes), and every metric name mentioned in
# code, README or the exposition golden must resolve to a real
# registration (no phantom or misspelled metrics).
metriclint:
	sh scripts/metriclint.sh

# Replay the checked-in fuzz seed corpora as plain tests (what CI runs):
# the serve protocol parsers and NDJSON hot records, the model
# artifact/manifest decoders, the ledger segment reader, and every
# backend's session Push.
fuzz-replay:
	$(GO) test -run='^Fuzz' ./safemon/...

# Actively fuzz the parsers (developer entry point, not CI).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=30s ./safemon/serve/
	$(GO) test -run=^$$ -fuzz=FuzzHotRecords -fuzztime=30s ./safemon/serve/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBinaryRecord -fuzztime=30s ./safemon/serve/
	$(GO) test -run=^$$ -fuzz=FuzzLoadArtifact -fuzztime=30s ./safemon/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalEnvelope -fuzztime=30s ./safemon/
	$(GO) test -run=^$$ -fuzz=FuzzSessionPush -fuzztime=30s ./safemon/
	$(GO) test -run=^$$ -fuzz=FuzzParseManifest -fuzztime=30s ./safemon/modelstore/
	$(GO) test -run=^$$ -fuzz=FuzzParsePolicy -fuzztime=30s ./safemon/guard/
	$(GO) test -run=^$$ -fuzz=FuzzReadSegment -fuzztime=30s ./safemon/ledger/
