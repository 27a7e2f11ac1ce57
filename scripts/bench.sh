#!/usr/bin/env sh
# bench.sh runs the headline benchmarks and writes a machine-readable
# snapshot (ns/op plus each benchmark's custom metrics) so every PR leaves a
# point on the perf trajectory.
#
#   scripts/bench.sh                           # writes BENCH_10.json
#   OUT=BENCH_11.json BASELINE=BENCH_10.json scripts/bench.sh  # next PR
#   BENCH='Table1' COUNT=5 scripts/bench.sh    # subset / more repeats
#   BASELINE=old.json scripts/bench.sh         # embed old.json as "baseline"
set -eu
cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_10.json}
BASELINE=${BASELINE:-BENCH_9.json}
BENCH=${BENCH:-'Table1|SizeInference|PolicyInference|Figure3b|Figure3c|SchedRun|TangoOrder|TelemetryVecRecord|Adversarial|ClassifyExact|DemoteChurn|ScaleHarness|VirtualNowParallel|FleetSustained|FrontierDrain|EstimatorFeed'}
COUNT=${COUNT:-3}

# The switchsim, simclock, dag and pattern micro-benchmarks (exact-match
# lookup, LRU demote churn, padded-vs-unpadded virtual clock reads, the
# frontier drain, the estimator's add pass) ride along with the top-level
# experiment benchmarks; benchjson accepts the concatenated streams.
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . ./internal/switchsim ./internal/simclock ./internal/dag ./internal/core/pattern |
	go run ./scripts/benchjson ${BASELINE:+-baseline "$BASELINE"} >"$OUT"
echo "wrote $OUT"
