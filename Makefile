# Developer entry points. `make check` is the full gate — vet, gofmt, build, the
# whole test suite under the race detector (the parallel executor makes
# -race load-bearing, not optional), the fuzz targets, every storm at full
# length, and the serving smoke test. The gates are defined once, in the
# table at the top of scripts/check.sh; `make <gate>` runs one of them at
# full length and `scripts/check.sh` runs them all in -short mode. See
# README "Checks" for what each gate guards.

GO ?= go

GATES := vet fmt build race fuzz chaos storm memstorm metamorph-short netchaos cluster cluster-failover crash serve-smoke

.PHONY: check test metamorph bench profile $(GATES)

check:
	./scripts/check.sh -full

$(GATES):
	./scripts/check.sh -full $@

test:
	$(GO) test ./...

# The long metamorphic correctness pass: seeded random query pairs with
# provable set relations (internal/metamorph), executed through every
# regime — sequential, parallel, nested iteration, live network — with
# shrinking armed. Failures print a minimized repro script and land in
# $(METAMORPH_CORPUS) (default: $TMPDIR/metamorph-corpus). Override the
# budget and seed: `make metamorph ROUNDS=10000 SEED=42`. The short
# deterministic pass is the metamorph-short gate.
ROUNDS ?= 2000
SEED ?=
metamorph:
	METAMORPH_ROUNDS=$(ROUNDS) METAMORPH_SEED=$(SEED) \
		$(GO) test -race -count=1 -v -run TestMetamorphLong ./internal/metamorph

bench:
	$(GO) test -bench . -benchmem .

# Where one benchmark workload spends its CPU and its bytes: a 6 s untraced
# run under the CPU and heap profilers, then the cumulative CPU top of what
# runs under planner.Run (a transformed plan), engine.runNested (nested
# iteration), an exchange worker or the exchange's distributor (a parallel
# plan's goroutines, whose stacks start there, not under planner.Run), the
# CPU the GC mark workers took beside it, and the top 15 allocation sites
# (alloc_space) under the same focus. The ignore drops set-up's warm-up
# (standUp) and the oracle (attachOracle, which runs queries through
# runNested), and the focus the calibration kernel — half of the samples.
# Last, the top 15 sites by allocation count (alloc_objects, what
# allocs_per_op gates) with no focus, minus the same two and the
# calibration (speedometer): on the network workloads rows are decoded in
# client, server and coordinator goroutines no focus reaches.
# `make profile W=spill_join`; the profiles stay in .bench_build/.
W ?= ja_seq
PROFILE_IGNORE = main\.attachOracle|main\.standUp
PROFILE_FOCUS = -focus='planner.\(\*Planner\).Run|engine.\(\*DB\).runNested|exec.\(\*exchange\).worker|exec.\(\*exchange\).distribute' -ignore='$(PROFILE_IGNORE)'
profile:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 6 --trace 0 --cpuprofile .bench_build/$(W).cpu --memprofile .bench_build/$(W).mem
	$(GO) tool pprof -top -cum -nodecount=40 $(PROFILE_FOCUS) .bench_build/bench .bench_build/$(W).cpu
	$(GO) tool pprof -top -cum -nodecount=1 -focus='runtime.gcBgMarkWorker' .bench_build/bench .bench_build/$(W).cpu
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 $(PROFILE_FOCUS) .bench_build/bench .bench_build/$(W).mem
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 -ignore='$(PROFILE_IGNORE)|main\.\(\*speedometer\)' .bench_build/bench .bench_build/$(W).mem
