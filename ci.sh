#!/usr/bin/env bash
# CI entry point.
#
#   1. Release build + the tier-1 ctest suite (ROADMAP.md). Warnings are
#      errors on every target (-Wall -Wextra -Werror, CMakeLists.txt).
#      This stage also proves the tree builds with lockdep compiled out
#      (the production configuration), then exercises the observability
#      layer end to end: a small motif bench run with --trace-out whose
#      exported Chrome trace is schema-checked by tools/check_trace.py, a
#      CLI run whose Prometheus /metricsz dump is format-checked by
#      tools/check_metricsz.py and whose sampling-profiler collapsed-stack
#      export must be non-empty, and a straggler CLI run with --progress-ms
#      whose stderr must carry the barrier wait's `step progress:` lines.
#      Finally a perf smoke runs the
#      extension-kernel A/B microbenchmarks (kernels vs. reference scans)
#      into BENCH_extension.json and gates it against the committed
#      baseline with tools/bench_compare.py.
#   2. Chaos sweep: resilience_test's ChaosTest replays CHAOS_SEEDS seeded
#      random fault plans (worker crashes, dead steal services, dropped and
#      delayed requests, stragglers) under from-scratch recovery (a zero
#      salvage-pass budget) and fails on any result divergence from the
#      fault-free baseline; property_test's AggregationChaosTest checks
#      motif counts and FSM supports against the brute-force oracles under
#      the same plans, from scratch and with the default salvage.
#   3. Scheduler gate (DESIGN.md §12): the multi-tenant chaos filter
#      (SchedulerChaosTest — a crashing tenant sharing the cluster with
#      clean ones stays bit-exact) plus a CLI end-to-end of
#      --concurrency: three concurrent triangle queries on one shared
#      cluster whose /metricsz dump must contain the scheduler counter
#      families and the per-query units gauges
#      (tools/check_metricsz.py --require), and a --deadline-ms run without
#      --concurrency, which runs as one scheduled query and must finish OK.
#   4. Salvage gate (DESIGN.md §11): the lineage-ledger partial-recovery
#      suite — deterministic salvage tests plus a CHAOS_SEEDS-wide
#      SalvageChaosTest sweep (random fault plans, including
#      crash-in-salvage, recovered by the default salvage policy) — then
#      the SalvageTest suite again under FRACTAL_ALLOC_GUARD=abort (ledger
#      stamping rides the steal hot path and must not allocate), a CLI run
#      whose bare --fault-spec crash must be salvaged, and finally the
#      bench_resilience recovery A/B whose salvage/scratch replay ratios
#      land in BENCH_recovery.json and are gated by tools/bench_compare.py
#      against the committed budget baseline.
#   5. Allocation-discipline lint (tools/fractal_lint.py, DESIGN.md §9):
#      self-test against the seeded-violation fixtures, then the repo run —
#      every FRACTAL_HOT call graph must be provably allocation-, throw-,
#      and raw-mutex-free, and every metric/trace name registered. Uses
#      libclang when the python bindings are installed, its built-in
#      textual engine otherwise.
#   6. Alloc-guard gate: hot_path_test re-run with FRACTAL_ALLOC_GUARD=abort
#      — full-cluster runs of the vertex-induced, edge-induced, and KClist
#      strategies abort the process on any steady-state heap allocation —
#      and alloc_guard_test likewise, whose warm CountMotifs/RunFsm steps
#      hold the pattern-aggregation path (DESIGN.md §13) to the same rule.
#   7. Perfbench: the benchmark's self-tests plus a short oracle-checked
#      run of each kernel workload (motifs4, fsm3); every result must match
#      the single-threaded oracle ("correct": true).
#   8. Static analysis: a clang build with -Wthread-safety promoted to an
#      error (checking the GUARDED_BY/REQUIRES contracts of util/mutex.h),
#      then clang-tidy with the curated .clang-tidy profile over src/,
#      bench/, and tools/ sources. Each tool is used when installed and the
#      stage fails on any diagnostic; on containers without clang the stage
#      degrades to the GCC -Werror build of stage 1 plus the runtime
#      lockdep checking of the sanitizer stages.
#   9. ASan/UBSan build running every thread-spawning suite (including a
#      reduced-seed chaos sweep, the scheduler suite and the alloc-guard
#      suites), plus a full CHAOS_SEEDS-wide SalvageChaosTest sweep so
#      salvage passes are memory-checked at chaos scale.
#  10. TSan build running the same suites (and the same wide salvage
#      sweep), so the persistent-thread Cluster/Worker runtime (parked
#      execution threads, steal-service threads, enumerator cursors, the
#      claim-stamping lineage ledger) is race-checked on every PR.
#
# Stages 9-10 keep FRACTAL_ENABLE_LOCKDEP=ON (the default), so every
# sanitized test run also checks the lock-order graph deterministically.
#
# Usage: ./ci.sh            (JOBS=<n> to override parallelism)
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
# Every suite that spawns threads (directly or through the Cluster runtime),
# plus property_test so the kernel-vs-reference differential sweeps over the
# extension data plane run under ASan/UBSan and TSan on every PR.
SANITIZED_SUITES='core_test|runtime_test|accounting_test|obs_test|introspection_test|profiler_test|lockdep_test|enumerate_test|property_test|apps_test|extras_test|resilience_test|alloc_guard_test|hot_path_test|scheduler_test'
SANITIZED_TARGETS='core_test runtime_test accounting_test obs_test introspection_test profiler_test lockdep_test enumerate_test property_test apps_test extras_test resilience_test alloc_guard_test hot_path_test scheduler_test'
# Chaos seeds for the fault-injection sweep: a wide sweep on the fast
# Release build, a narrower one under the (10-20x slower) sanitizers.
CHAOS_SEEDS="${CHAOS_SEEDS:-32}"
CHAOS_SEEDS_SANITIZED="${CHAOS_SEEDS_SANITIZED:-8}"

echo "=== tier 1: Release build + full ctest suite ==="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release -DFRACTAL_ENABLE_LOCKDEP=OFF
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== trace export: fractal_cli --trace-out + schema check ==="
TRACE_JSON="build-ci/motifs_trace.json"
./build-ci/examples/fractal_cli --kernel motifs --k 3 --workers 2 \
  --threads 2 --trace-out "$TRACE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_trace.py "$TRACE_JSON"
else
  # Degraded check: the file exists, is non-trivial, and closes cleanly.
  test -s "$TRACE_JSON"
  grep -q '"traceEvents"' "$TRACE_JSON"
  echo "python3 not installed; structural trace validation skipped"
fi

echo "=== introspection: /metricsz exposition + profiler export ==="
# The same CLI run exercises the whole introspection plane: the sampling
# profiler writes collapsed stacks (flamegraph.pl / speedscope input) and
# the Prometheus dump must satisfy the text-format contract (cumulative
# buckets, +Inf == _count) that tools/check_metricsz.py enforces.
METRICSZ_TXT="build-ci/metricsz.txt"
PROFILE_TXT="build-ci/profile_collapsed.txt"
./build-ci/examples/fractal_cli --kernel triangles --workers 2 --threads 2 \
  --metricsz-out "$METRICSZ_TXT" --profile-out "$PROFILE_TXT"
test -s "$PROFILE_TXT"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_metricsz.py "$METRICSZ_TXT"
else
  test -s "$METRICSZ_TXT"
  grep -q '# TYPE fractal_' "$METRICSZ_TXT"
  echo "python3 not installed; structural metricsz validation skipped"
fi

echo "=== progress: the barrier wait logs step progress mid-step ==="
# A straggler plan stretches the step over many 5 ms intervals; the driver's
# barrier wait is the step's only clock and must log from inside the step.
PROGRESS_LOG="build-ci/progress_stderr.txt"
./build-ci/examples/fractal_cli --kernel triangles --workers 2 --threads 2 \
  --progress-ms 5 --fault-spec 'slow:w=0,us=200' 2>"$PROGRESS_LOG" >/dev/null
grep -q 'step progress:' "$PROGRESS_LOG"

echo "=== perf smoke: extension kernels vs. reference scans ==="
# A/B microbenchmark of the set-algebra extension kernels against the
# pre-refactor reference scans (bench/bench_micro.cc, dense-graph pairs).
# Results land in BENCH_extension.json for the CI artifact trail; the
# differential property tests gate correctness, this stage tracks speed.
./build-ci/bench/bench_micro \
  --benchmark_filter='Extensions(Kernel|Reference)' \
  --benchmark_out=BENCH_extension.json --benchmark_out_format=json
test -s BENCH_extension.json
# Gate against the committed baseline: >20% real_time regression on any
# shared series fails (same host) or warns (baseline from another machine —
# tools/bench_compare.py compares the benchmark context to decide).
if command -v python3 >/dev/null 2>&1; then
  python3 tools/bench_compare.py \
    bench/baselines/BENCH_extension.json BENCH_extension.json
fi

echo "=== chaos: ${CHAOS_SEEDS}-seed random fault plans stay bit-exact ==="
# Seeded random fault plans (crashes, dead steal services, drops, delays,
# stragglers) against the fault-free baseline; any divergence fails CI.
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS" ./build-ci/tests/resilience_test \
  --gtest_filter='ChaosTest.*'
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS" ./build-ci/tests/property_test \
  --gtest_filter='AggregationChaosTest.*'

echo "=== scheduler: concurrent queries share one cluster, stay bit-exact ==="
# Multi-tenant chaos cross-product (DESIGN.md §12): a fault-injected tenant
# crashing workers mid-step next to clean tenants on the same cluster —
# every query must still match the serial ground truth. (The full
# scheduler_test suite — stress, cancellation, deadlines, admission
# overflow — already ran in the tier-1 ctest pass above.)
./build-ci/tests/scheduler_test --gtest_filter='SchedulerChaosTest.*'
# CLI end-to-end: three concurrent triangle queries on one shared cluster.
# The /metricsz dump must carry the scheduler counter families and at least
# one per-query units gauge (the dynamic fractal_runtime_query_units_<id>
# family).
SCHED_METRICSZ="build-ci/scheduler_metricsz.txt"
./build-ci/examples/fractal_cli --kernel triangles --workers 1 --threads 4 \
  --concurrency 3 --metricsz-out "$SCHED_METRICSZ"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_metricsz.py "$SCHED_METRICSZ" \
    --require fractal_runtime_queries_admitted_total \
    --require fractal_runtime_queries_completed_total \
    --require fractal_runtime_queries_active \
    --require fractal_runtime_query_units.
else
  grep -q 'fractal_runtime_queries_admitted_total' "$SCHED_METRICSZ"
  echo "python3 not installed; structural scheduler-metrics check only"
fi
# A deadline without --concurrency is one scheduled query (there is no
# separate synchronous deadline path).
DEADLINE_OUT="$(./build-ci/examples/fractal_cli --kernel triangles \
  --deadline-ms 60000)"
echo "$DEADLINE_OUT"
grep -q 'status=OK' <<<"$DEADLINE_OUT"

echo "=== salvage: lineage-ledger partial recovery stays bit-exact ==="
# Deterministic salvage tests (acceptance bound, nested crash-in-salvage,
# pass-budget fallback, 16-seed bit-exactness property) plus the
# CHAOS_SEEDS-wide SalvageChaosTest sweep of random fault plans recovered by
# the default salvage policy.
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS" ./build-ci/tests/resilience_test \
  --gtest_filter='Salvage*'
# Ledger claim/complete stamping rides the steal rendezvous on enumeration
# threads: re-run the deterministic suite with the allocation interposer
# armed to abort on any steady-state allocation.
FRACTAL_ALLOC_GUARD=abort ./build-ci/tests/resilience_test \
  --gtest_filter='SalvageTest.*'
# The README crash example end to end: a bare --fault-spec crash is
# salvaged. --no-stealing keeps worker 1 on its own root partition so the
# trigger fires every run; CountMotifs aborts on a failed status, so exit 0
# means status OK, and the --metrics dump must show salvaged work units.
SALVAGE_METRICS="build-ci/salvage_metrics.txt"
./build-ci/examples/fractal_cli --kernel motifs --k 3 --workers 2 \
  --threads 2 --no-stealing --fault-spec 'crash:w=1,after=500' --metrics \
  >"$SALVAGE_METRICS"
awk '$2 == "runtime.units_salvaged" { found = 1; salvaged = $3 }
     END { exit !(found && salvaged > 0) }' "$SALVAGE_METRICS"
# Recovery A/B: crash at 25/50/75% of worker 1's budget, run from-scratch
# and salvage recovery, and record the salvage/scratch replay ratios over
# the deterministic work-unit model. The recovery runs keep WS_ext off, so
# every crash fires and each ratio repeats run to run (about 0.004-0.011;
# intra-worker stealing moves the 75% point by a few units). Worker 1 owns
# about 1.4% of the step, so the ratios are bounded by that share; SalvageTest
# in the stage above also bounds the replay by worker 1's own budget. The committed
# baseline is a *budget*, not a measured snapshot: 0.375 per series so the
# 0.6 relative threshold gates at exactly 0.375 * 1.6 = 0.6 — the salvage
# acceptance bound from tests/resilience_test.cc.
./build-ci/bench/bench_resilience --recovery-out BENCH_recovery.json
test -s BENCH_recovery.json
if command -v python3 >/dev/null 2>&1; then
  python3 tools/bench_compare.py \
    bench/baselines/BENCH_recovery.json BENCH_recovery.json --threshold 0.6
fi

echo "=== lint: hot-path allocation discipline (fractal_lint.py) ==="
if command -v python3 >/dev/null 2>&1; then
  # Self-test first: every seeded-violation fixture must fail its rule.
  # Then the repo itself must come back clean. --engine=auto upgrades to
  # libclang (driven by build-ci's compile_commands.json) when the python
  # bindings are installed; the built-in textual engine gates otherwise.
  python3 tools/fractal_lint.py --self-test
  python3 tools/fractal_lint.py \
    --compile-commands build-ci/compile_commands.json
  # The seeded fixtures must also stay compilable (they feed clang-tidy and
  # the libclang engine through compile_commands.json).
  cmake --build build-ci -j "$JOBS" --target fractal_lint_fixtures
else
  echo "python3 not installed; allocation-discipline lint skipped"
fi

echo "=== alloc-guard: zero steady-state allocations, abort on regression ==="
# The runtime backstop for whatever the static walk cannot see: full-cluster
# runs of all three extension strategies with the operator new interposer
# armed to abort. Any post-warm-up heap allocation on an enumeration thread
# kills the test.
FRACTAL_ALLOC_GUARD=abort ./build-ci/tests/hot_path_test
FRACTAL_ALLOC_GUARD=abort ./build-ci/tests/alloc_guard_test

echo "=== perfbench: benchmark self-tests + oracle-checked kernel runs ==="
# The benchmark's own tests, then a short run of each kernel workload. Every
# request of a run is checked against the independent single-threaded
# oracle (baselines::Tuned*, perfbench/README.md), so this puts those
# oracles in CI; the stage fails unless the result line reads
# "correct": true. Builds into .bench_build/ on first use.
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/test_perfbench.py
  for workload in motifs4 fsm3; do
    RESULT_LINE="$(python3 perfbench/run.py --workload "$workload" \
      --seconds 2 | tail -n 1)"
    echo "$workload: $RESULT_LINE"
    grep -q '"correct": true' <<<"$RESULT_LINE"
  done
else
  echo "python3 not installed; perfbench stage skipped"
fi

echo "=== static analysis: -Wthread-safety + clang-tidy ==="
if command -v clang++ >/dev/null 2>&1; then
  # -Wthread-safety / -Werror=thread-safety are added by CMakeLists.txt
  # for clang; -Werror is global, so any clang diagnostic fails the build.
  cmake -B build-sa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build-sa -j "$JOBS"
  # Build the lint fixtures too so their compile_commands entries are valid
  # translation units for clang-tidy and the libclang lint engine.
  cmake --build build-sa -j "$JOBS" --target fractal_lint_fixtures
  if command -v clang-tidy >/dev/null 2>&1; then
    # .clang-tidy sets WarningsAsErrors: '*'; any finding exits non-zero.
    # Coverage: the library plus the benchmark harnesses and the lint
    # fixtures (tools/) — everything with a compile_commands entry.
    mapfile -t TIDY_SOURCES < <(
      git ls-files 'src/**/*.cc' 'bench/*.cc' 'tools/**/*.cc')
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build-sa -quiet "${TIDY_SOURCES[@]}"
    else
      clang-tidy -p build-sa --quiet "${TIDY_SOURCES[@]}"
    fi
  else
    echo "clang-tidy not installed; skipping lint half of the stage"
  fi
else
  echo "clang++ not installed; thread-safety annotations compile as no-ops"
  echo "(GCC -Werror build of stage 1 and lockdep stages still gate this PR)"
fi

echo "=== ASan/UBSan: ${SANITIZED_SUITES} ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
# shellcheck disable=SC2086
cmake --build build-asan -j "$JOBS" --target $SANITIZED_TARGETS
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS_SANITIZED" \
  ctest --test-dir build-asan --output-on-failure -R "$SANITIZED_SUITES"
# Wide salvage sweep under ASan: partial recovery allocates/frees ledger
# exclusion state per crash, the classic use-after-free shape.
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS" ./build-asan/tests/resilience_test \
  --gtest_filter='SalvageChaosTest.*'

echo "=== TSan: ${SANITIZED_SUITES} ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
# shellcheck disable=SC2086
cmake --build build-tsan -j "$JOBS" --target $SANITIZED_TARGETS
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS_SANITIZED" \
  ctest --test-dir build-tsan --output-on-failure -R "$SANITIZED_SUITES"
# Wide salvage sweep under TSan: claim stamping from steal-service threads
# races against completion stamping from enumeration threads by design;
# the ledger mutex must order every pair.
FRACTAL_CHAOS_SEEDS="$CHAOS_SEEDS" ./build-tsan/tests/resilience_test \
  --gtest_filter='SalvageChaosTest.*'

echo "CI OK"
