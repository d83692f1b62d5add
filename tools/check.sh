#!/usr/bin/env bash
# Full verification sweep: the tier-1 build+test pass, a traced e2ebench
# smoke run per workload, then the same suite
# (minus the wall-clock `perf` label) plus a short differential fuzz soak
# under ASan+UBSan (DIFANE_SANITIZE=ON),
# plus a TSan pass (DIFANE_SANITIZE=thread) over the unit and chaos labels —
# the sharded parallel engine makes race coverage part of tier-1 hygiene.
#
#   tools/check.sh [--quick-bench] [--perf] [--threads] [--burst] [--scale] [FUZZ_SECONDS]
#
# FUZZ_SECONDS (default 30) bounds the sanitized fuzz_difane run. All build
# trees are kept (build/, build-san/, build-tsan/) so incremental re-runs
# are cheap.
#
# --quick-bench additionally runs the whole bench pipeline in --quick mode
# (bench_all over E1-E10/A1-A3), verifies every report merged into the
# trajectory file, and re-runs it to confirm the deterministic metrics
# reproduce byte-for-byte (bench_compare at threshold 0).
#
# --threads runs the bench pipeline in --quick mode at --threads 1 and at
# the host's hardware concurrency, then asserts with bench_compare that
# every deterministic (non-wall) metric is identical — the thread-count
# invariance contract for cell-parallel benches and the sharded engine.
#
# --burst runs the bench pipeline in --quick mode with one arrival per
# ingress event (--burst 0) and with drains of up to 32 (--burst 32), then
# asserts with bench_compare that every deterministic metric is identical —
# the burst-mode equivalence contract (draining is an execution-order
# optimization only; wall metrics are exempt as always).
#
# --scale runs the E11 scale-out stress tier in --quick mode twice and
# asserts with bench_compare that its deterministic metrics (rule counts,
# peak concurrency, delivery counters) reproduce byte-for-byte; wall and RSS
# metrics are host measurements and exempt. The full-size tier (10M rules /
# 1M concurrent flows, about a minute and ~4 GiB) is run manually:
#   ./build/bench/bench_e11_scale --json BENCH_E11.json
#
# --perf gates the build against the committed perf baseline
# (bench/BASELINE.json): one quick bench_all run, then bench_compare with
# deterministic metrics exact and wall metrics allowed PERF_WALL_THRESHOLD
# percent of drift (default 50 — generous because baselines travel across
# hosts; tighten on a pinned CI machine). A counter that moved or a wall
# metric past the threshold fails the script. After an intentional perf or
# semantics change, regenerate the baseline from a clean tree with
#   ./build/tools/bench_all --quick --jobs 1 --out bench/BASELINE.json
# and commit it together with the change that moved the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

quick_bench=0
perf=0
threads_gate=0
burst_gate=0
scale_gate=0
fuzz_seconds=30
for arg in "$@"; do
  case "$arg" in
    --quick-bench) quick_bench=1 ;;
    --perf) perf=1 ;;
    --threads) threads_gate=1 ;;
    --burst) burst_gate=1 ;;
    --scale) scale_gate=1 ;;
    *) fuzz_seconds="$arg" ;;
  esac
done
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: normal build + ctest =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

# The chaos suite (fault injection + reliable channels + verifier gate, plus
# the live-migration make-before-break properties) runs as part of the full
# ctest pass above; run it again by label so a chaos regression is called out
# by name. A failure prints a replay seed — rerun that one case with
# DIFANE_PROPTEST_REPLAY=0x<seed> ./build/tests/test_prop_faults (or
# .../test_prop_migration)
echo "== chaos: ctest -L chaos =="
ctest --test-dir build --output-on-failure -L chaos -j "$jobs"

# Same treatment for the property suites (flow-table/cache differentials,
# the heavy-hitter sketch bounds, and the telemetry error-bound/conservation/
# replay suite): they run in the full pass above, but a labeled re-run names
# the regression. Failures print a replay seed usable as
# DIFANE_PROPTEST_REPLAY=0x<seed> ./build/tests/test_prop_<suite>
echo "== property: ctest -L property =="
ctest --test-dir build --output-on-failure -L property -j "$jobs"

# Scaling-exponent checks (wall-clock ratios between a small and a large
# table). They ran in the full pass above; the labelled re-run, one test at
# a time, names a complexity regression. Sanitized builds skip them: a ratio
# of walls measured under ASan/UBSan says nothing about the real build.
echo "== scaling: ctest -L perf =="
ctest --test-dir build --output-on-failure -L perf

# The end-to-end benchmark compiles e2ebench/difane_e2e.cpp against src/, so
# an API change that breaks it should fail here rather than when the
# benchmark runs. One short traced run per workload (tracing drives the
# per-layer probes, which use the most of the API) plus the harness's own
# tests. Each run takes a few seconds.
echo "== e2ebench: traced smoke run per workload + harness tests =="
for workload in zipf_cached mice_40k mice_evict_export policy100k_burst; do
  python3 e2ebench/run.py --workload "$workload" --size tiny --seconds 1 --trace 1
done
python3 e2ebench/test_e2ebench.py

if [[ "$quick_bench" == 1 ]]; then
  echo "== quick-bench: bench_all --quick + determinism gate =="
  ./build/tools/bench_all --quick --jobs "$jobs" \
    --dir build/bench-reports --out build/BENCH_trajectory.json
  ./build/tools/bench_all --quick --jobs "$jobs" \
    --dir build/bench-reports-2 --out build/BENCH_trajectory_2.json
  ./build/tools/bench_compare build/BENCH_trajectory.json \
    build/BENCH_trajectory_2.json
fi

if [[ "$threads_gate" == 1 ]]; then
  max_threads="$(nproc 2>/dev/null || echo 4)"
  [[ "$max_threads" -lt 2 ]] && max_threads=2
  echo "== threads: bench_all --quick at --threads 1 vs --threads $max_threads =="
  ./build/tools/bench_all --quick --jobs "$jobs" --threads 1 \
    --dir build/bench-reports-t1 --out build/BENCH_trajectory_t1.json
  ./build/tools/bench_all --quick --jobs "$jobs" --threads "$max_threads" \
    --dir build/bench-reports-tN --out build/BENCH_trajectory_tN.json
  # Deterministic metrics must be byte-identical across thread counts; wall
  # metrics (and the sharded-engine engine_wall_* demo row, present only at
  # --threads > 1) are exempt / candidate-only and ignored by bench_compare.
  ./build/tools/bench_compare build/BENCH_trajectory_t1.json \
    build/BENCH_trajectory_tN.json
fi

if [[ "$burst_gate" == 1 ]]; then
  echo "== burst: bench_all --quick at --burst 0 vs --burst 32 =="
  ./build/tools/bench_all --quick --jobs "$jobs" \
    --dir build/bench-reports-b0 --out build/BENCH_trajectory_b0.json
  ./build/tools/bench_all --quick --jobs "$jobs" --burst 32 \
    --dir build/bench-reports-b32 --out build/BENCH_trajectory_b32.json
  # Every deterministic metric must be byte-identical between the scalar and
  # burst data planes; only wall metrics may move.
  ./build/tools/bench_compare build/BENCH_trajectory_b0.json \
    build/BENCH_trajectory_b32.json
fi

if [[ "$scale_gate" == 1 ]]; then
  echo "== scale: bench_e11_scale --quick determinism gate =="
  ./build/tools/bench_all --quick --jobs 1 --only E11 \
    --dir build/bench-reports-scale --out build/BENCH_trajectory_scale.json
  ./build/tools/bench_all --quick --jobs 1 --only E11 \
    --dir build/bench-reports-scale-2 --out build/BENCH_trajectory_scale2.json
  # The stress tier's deterministic metrics (rule/flow/concurrency/delivery
  # counters) must reproduce byte-for-byte; wall and RSS keys are host
  # measurements and exempt by naming convention.
  ./build/tools/bench_compare build/BENCH_trajectory_scale.json \
    build/BENCH_trajectory_scale2.json
fi

if [[ "$perf" == 1 ]]; then
  echo "== perf: bench_all --quick vs committed baseline =="
  ./build/tools/bench_all --quick --jobs "$jobs" \
    --dir build/bench-perf-reports --out build/BENCH_trajectory_perf.json
  ./build/tools/bench_compare bench/BASELINE.json \
    build/BENCH_trajectory_perf.json \
    --wall-threshold "${PERF_WALL_THRESHOLD:-50}"
fi

echo "== sanitized: ASan+UBSan build + ctest + ${fuzz_seconds}s fuzz =="
cmake -B build-san -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDIFANE_SANITIZE=ON
cmake --build build-san -j "$jobs"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -LE perf -j "$jobs"
echo "== chaos (sanitized): ctest -L chaos =="
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -L chaos -j "$jobs"
echo "== property (sanitized): ctest -L property =="
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -L property -j "$jobs"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-san/tools/fuzz_difane --seconds "$fuzz_seconds"

echo "== tsan: DIFANE_SANITIZE=thread build + unit/chaos labels =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDIFANE_SANITIZE=thread
cmake --build build-tsan -j "$jobs"
# halt_on_error makes any reported race fail its test; the chaos label covers
# the multi-threaded sharded-engine differential properties, and the
# test_sharded_engine suite exercises the executor's worker pool directly.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -L unit -j "$jobs"
echo "== chaos (tsan): ctest -L chaos =="
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -L chaos -j "$jobs"
# gtest discovery registers Suite.Test names, not binary names, so the name
# filters below match the suites (--no-tests=error guards against a filter
# silently matching nothing).
echo "== sharded engine (tsan): ShardedExecutor/WorkStealing suites =="
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R '^(ShardedExecutor|WorkStealing|ScenarioThreads)\.' -j "$jobs"
# Live migration runs its state machine in global events while workers park
# at shard barriers; the 4-thread differential and parallel-replay properties
# are the racing surface, so call the suite out by name under TSan (it also
# ran above inside -L chaos).
echo "== live migration (tsan): MigrationChaos suites =="
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R 'MigrationChaos' -j "$jobs"
# Ingress arrival streams (drains and re-arms) run on shard workers;
# the sharded burst property is labelled `property`, which the TSan stages
# above do not run, so call it out by name.
echo "== sharded burst (tsan): Property.ShardedBurst =="
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R '^Property\.ShardedBurst' -j "$jobs"

echo "== all checks passed =="
