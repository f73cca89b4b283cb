#!/bin/sh
# The verification gate, defined once: this table is what `make check`
# runs at full length (`check.sh -full`) and what plain `scripts/check.sh`
# runs in -short mode (reduced storm rounds). README "Checks" says what
# each gate guards.
#
#   scripts/check.sh [-full] [gate ...]     no gate named = all, in order
#
# Every test runs exactly once per pass: the named gates own the storms
# and oracles their -run pattern selects, and the race gate runs the whole
# suite under the race detector minus those patterns (-skip). -race is
# part of the contract — the exchange runs real goroutines. -count=1
# defeats the test cache so faults and storms actually execute. Each gate
# prints its wall time; the last line is the total.
set -eu
cd "$(dirname "$0")/.."

# gate            -run pattern / fuzz target                                packages
TESTS='
chaos             TestChaosFaultInjection|TestFaultPlanReplays              ./internal/engine
storm             TestChaosStorm|TestDrainUnderFaults                       ./internal/engine
memstorm          TestMemPressureStorm|TestSpillCompletesUnderSmallBudget|TestSequentialBudgetCharged|TestSpillForcedMatchesOracle|TestSpillCorruptRunDetected|TestSpillTimeoutLeakFree|TestMetamorphTightMemory|TestBudgetDegradationMonotonic|TestForcedSpillRerunSortMerges|TestPressureGrantsUnderSpill|TestSequentialRetryAfterWorkerFault|TestWorkerFaultsLeaveParallelOpen|TestNoRetryOnTimeout|TestRowBudgetNotRetried|TestStreamNoRetryAfter ./internal/engine ./internal/metamorph
metamorph-short   TestMetamorph(Short|Faults|CatchesKimMutant)|TestGoldenRepros ./internal/metamorph
netchaos          TestNetChaosStorm                                         ./internal/server
cluster           TestDistributedNestJA2|TestClusterChaosStorm              ./internal/cluster
cluster-failover  TestClusterFailover|TestWorkerLostFastFailure|TestClusterAnalyzeRefusals ./internal/cluster
crash             TestDurability|TestCrashStorm|TestGoldenCorpus            ./internal/engine ./internal/wal ./cmd/nestedsqld
'
FUZZ='
FuzzParseScript       ./internal/sqlparser
FuzzRenderParse       ./internal/sqlparser
FuzzDecodeFrame       ./internal/wire
FuzzFrameCorruption   ./internal/wire
FuzzWALReplay         ./internal/wal
'
ORDER="vet fmt build race fuzz $(echo "$TESTS" | awk 'NF {print $1}' | tr '\n' ' ')serve-smoke"

short=-short verbose=
if [ "${1:-}" = -full ]; then
	short= verbose=-v
	shift
else
	# The subprocess kill -9 storms skip under -short unless told to run
	# their reduced-round form.
	export CRASH_STORM_SHORT=1 FAILOVER_STORM_SHORT=1
fi

run_gate() {
	case "$1" in
	vet) go vet ./... ;;
	fmt)
		unformatted=$(gofmt -l .)
		[ -z "$unformatted" ] || { echo "gofmt -l . names:" $unformatted >&2; return 1; }
		;;
	build) go build ./... ;;
	race)
		owned=$(echo "$TESTS" | awk 'NF {print $2}' | paste -sd'|' -)
		go test -race $short -skip "$owned" ./...
		;;
	fuzz)
		echo "$FUZZ" | while read -r target pkg; do
			[ -z "$target" ] || go test -run '^$' -fuzz "$target" -fuzztime 10s "$pkg"
		done
		;;
	serve-smoke) ./scripts/serve_smoke.sh ;;
	*)
		row=$(echo "$TESTS" | awk -v g="$1" '$1 == g')
		[ -n "$row" ] || { echo "check.sh: unknown gate $1 (have: $ORDER)" >&2; exit 2; }
		set -- $row
		pattern=$2
		shift 2
		go test -race -count=1 $short $verbose -run "$pattern" "$@"
		;;
	esac
}

[ $# -gt 0 ] || set -- $ORDER
begin=$(date +%s)
for gate; do
	echo "==> $gate"
	t0=$(date +%s)
	run_gate "$gate"
	echo "==> $gate ok in $(($(date +%s) - t0))s"
done
echo "==> all checks passed in $(($(date +%s) - begin))s"
