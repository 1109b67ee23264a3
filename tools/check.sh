#!/usr/bin/env bash
# Tier-1 verification, static analysis, and sanitizer passes.
#
#   tools/check.sh            # tier-1 + static + TSan + ASan + UBSan
#   tools/check.sh --fast     # tier-1 only (skip static + sanitizers)
#   tools/check.sh --static   # static-analysis leg only
#   tools/check.sh --bench    # benchmark leg only (Release micro_engine vs
#                             # the committed BENCH_engine.json baseline)
#   tools/check.sh --obs      # observability legs only: storm run with
#                             # tracing on + trace validation, then the
#                             # tracer-overhead gate on the fused narrow chain
#
# Legs:
#   tier-1   cmake build + full ctest (the contract every PR must keep green).
#   static   clang++ -Wthread-safety -Wthread-safety-beta -Werror syntax-only
#            pass over every file in src/ (proves the GUARDED_BY / REQUIRES
#            contracts in src/common/thread_annotations.h), then clang-tidy
#            with the curated .clang-tidy at the repo root. Both tools are
#            optional in minimal containers: missing ones warn + skip, they
#            never fail the run.
#   lint     tools/analyze/flint-lint over src/ (determinism, lock
#            discipline, Status hygiene, obs conventions — docs/ANALYSIS.md)
#            plus the golden-file self-tests in tests/lint/. HARD-FAILS on
#            any unsuppressed finding or golden mismatch; the machine-readable
#            report is archived at build/lint/flint-lint.json. Runs in the
#            full pass and under --static.
#   tsan     FLINT_SANITIZE=thread rebuild; storm scenarios + DFS fault matrix
#            + mutex/lock-order detector tests — revocations, retries,
#            degraded-mode probes, and quarantines fire from injector, timer,
#            executor, and scheduler threads at once, which is where data
#            races live.
#   asan     FLINT_SANITIZE=address rebuild; checkpoint + DFS-fault suites,
#            where abandoned writes and quarantined directories could leak.
#   ubsan    FLINT_SANITIZE=undefined rebuild (-fno-sanitize-recover, so any
#            UB aborts the test); same suites as TSan plus checkpoint math.
#   bench    Release build of bench/micro_engine compared against the
#            committed BENCH_engine.json. An items/s drop beyond 25% on any
#            benchmark WARNS but never fails the run, and the leg is skipped,
#            with the reason, when the baseline's host (nproc, build type,
#            compiler) is not this one: micro numbers only compare on the
#            same host. The baseline is refreshed deliberately with
#            tools/bench.sh after intentional performance changes.
#   obs-trace  flintctl storm run (6 nodes, 3 mid-job revocations, 16 MiB/s
#            modelled links) with --trace-out /
#            --metrics-out, then tools/flint-report --validate proves the
#            export is well-formed Chrome trace JSON containing stage,
#            checkpoint (with delta + tau args), revocation, and
#            market_selection events. Runs in the full pass (reuses the
#            tier-1 build tree) and under --obs.
#   obs-straggler  flintctl run with one of four nodes computing 8x slow
#            (kSlowNode at kTaskRun) and a tightened speculation deadline,
#            then flint-report --validate proves the trace shows speculative
#            attempts (task_speculated) and health quarantine
#            (node_quarantined). Runs in the full pass and under --obs.
#   obs-bench  Release micro_engine, BM_NarrowChainTracerPairs: the fused
#            narrow chain timed untraced and traced in alternating pairs in
#            one process. The median per-pair overhead must be < 5%, and the
#            upper end of its 95% confidence interval too (else the leg
#            cannot resolve 5% and fails as unresolved). Needs the Release
#            build, so like bench it only runs under --obs.
#
# Every leg's test/run phase is wrapped in a LEG_TIMEOUT-second timeout (default
# 1500 s): a wedged leg fails fast with its name in the summary instead of
# hanging the whole pass.

set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-}"
# Per-leg wall-clock budget (seconds). A wedged leg — e.g. a sanitizer build
# hitting a deadlock the tests were meant to catch — fails fast with the leg
# named instead of hanging the whole run. Override: LEG_TIMEOUT=600 check.sh.
LEG_TIMEOUT="${LEG_TIMEOUT:-1500}"

with_timeout() {  # with_timeout <cmd...>; propagates exit code, 124 on timeout
  if command -v timeout >/dev/null 2>&1; then
    timeout -k 30 "${LEG_TIMEOUT}" "$@"
  else
    "$@"
  fi
}

# Per-leg results for the summary table: "pass", "FAIL", or "skipped (...)".
LEG_NAMES=()
LEG_RESULTS=()
FAILED=0

record() {  # record <leg> <result>
  LEG_NAMES+=("$1")
  LEG_RESULTS+=("$2")
  if [[ "$2" == FAIL* ]]; then
    FAILED=1
  fi
}

summary() {
  echo
  echo "== summary =="
  printf '%-10s %s\n' "leg" "result"
  printf '%-10s %s\n' "---" "------"
  for i in "${!LEG_NAMES[@]}"; do
    printf '%-10s %s\n' "${LEG_NAMES[$i]}" "${LEG_RESULTS[$i]}"
  done
  if [[ "${FAILED}" -ne 0 ]]; then
    echo "RESULT: FAIL"
    exit 1
  fi
  echo "RESULT: pass"
  exit 0
}

run_tier1() {
  echo "== tier-1: build + ctest =="
  if ! { cmake -B build -S . >/dev/null \
         && cmake --build build -j "${JOBS}"; }; then
    record tier-1 "FAIL (build)"
    return
  fi
  with_timeout ctest --test-dir build --output-on-failure -j "${JOBS}"
  local rc=$?
  if [[ "${rc}" -eq 0 ]]; then
    record tier-1 pass
  elif [[ "${rc}" -eq 124 ]]; then
    echo "tier-1: WEDGED (killed after ${LEG_TIMEOUT}s)" >&2
    record tier-1 "FAIL (timeout after ${LEG_TIMEOUT}s)"
  else
    record tier-1 FAIL
  fi
}

run_static() {
  # Leg 1: clang thread-safety analysis, syntax-only (no objects, no link):
  # each translation unit in src/ is parsed with the annotations promoted to
  # errors. GCC cannot run this analysis, so a container without clang++
  # warns and skips rather than failing.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== static: clang -Wthread-safety over src/ =="
    local ts_fail=0
    local src
    while IFS= read -r src; do
      if ! clang++ -std=c++20 -fsyntax-only -I. \
          -Wthread-safety -Wthread-safety-beta \
          -Werror=thread-safety-analysis -Werror=thread-safety-attributes \
          -Werror=thread-safety-precise -Werror=thread-safety-reference \
          "${src}"; then
        echo "thread-safety: ${src} FAILED"
        ts_fail=1
      fi
    done < <(find src -name '*.cc' | sort)
    if [[ "${ts_fail}" -eq 0 ]]; then
      record thread-safety pass
    else
      record thread-safety FAIL
    fi
  else
    echo "WARNING: clang++ not found; skipping -Wthread-safety analysis" >&2
    record thread-safety "skipped (no clang++)"
  fi

  # Leg 2: clang-tidy with the curated .clang-tidy at the repo root
  # (bugprone-* and concurrency-* are WarningsAsErrors there).
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== static: clang-tidy over src/ =="
    if find src -name '*.cc' -print0 \
        | xargs -0 -n 8 -P "${JOBS}" clang-tidy --quiet -- -std=c++20 -I.; then
      record clang-tidy pass
    else
      record clang-tidy FAIL
    fi
  else
    echo "WARNING: clang-tidy not found; skipping clang-tidy leg" >&2
    record clang-tidy "skipped (no clang-tidy)"
  fi
}

run_lint() {
  echo "== lint: flint-lint over src/ + golden self-tests =="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "WARNING: python3 not found; skipping flint-lint leg" >&2
    record lint "skipped (no python3)"
    return
  fi
  mkdir -p build/lint
  # Archive the machine-readable report next to the leg's log regardless of
  # outcome, so a red run leaves evidence behind.
  python3 tools/analyze/flint-lint --format=json src > build/lint/flint-lint.json
  local json_rc=$?
  python3 tools/analyze/flint-lint src
  local lint_rc=$?
  python3 tests/lint/run_lint_tests.py
  local golden_rc=$?
  if [[ "${json_rc}" -ge 2 || "${lint_rc}" -ge 2 ]]; then
    record lint "FAIL (linter error)"
  elif [[ "${lint_rc}" -ne 0 ]]; then
    record lint "FAIL (unsuppressed findings; see build/lint/flint-lint.json)"
  elif [[ "${golden_rc}" -ne 0 ]]; then
    record lint "FAIL (golden self-tests)"
  else
    record lint pass
  fi
}

run_sanitizer() {  # run_sanitizer <leg> <FLINT_SANITIZE value> <build dir> <gtest filter>
  local leg="$1" san="$2" dir="$3" filter="$4"
  echo "== ${leg}: build (FLINT_SANITIZE=${san}) =="
  if cmake -B "${dir}" -S . -DFLINT_SANITIZE="${san}" >/dev/null \
      && cmake --build "${dir}" -j "${JOBS}" --target flint_tests; then
    echo "== ${leg}: ${filter} =="
    with_timeout "./${dir}/tests/flint_tests" --gtest_filter="${filter}"
    local rc=$?
    if [[ "${rc}" -eq 0 ]]; then
      record "${leg}" pass
    elif [[ "${rc}" -eq 124 ]]; then
      echo "${leg}: WEDGED (killed after ${LEG_TIMEOUT}s)" >&2
      record "${leg}" "FAIL (timeout after ${LEG_TIMEOUT}s)"
    else
      record "${leg}" FAIL
    fi
  else
    record "${leg}" "FAIL (build)"
  fi
}

run_bench() {
  echo "== bench: Release micro_engine vs BENCH_engine.json =="
  local log
  log="$(mktemp)"
  tools/bench.sh --compare | tee "${log}"
  local rc=${PIPESTATUS[0]}
  local mismatch
  mismatch="$(sed -n 's/^HOST MISMATCH: //p' "${log}")"
  rm -f "${log}"
  if [[ "${rc}" -eq 0 ]]; then
    record bench pass
  elif [[ "${rc}" -eq 3 ]]; then
    record bench "skipped (${mismatch})"
  elif [[ "${rc}" -eq 2 ]]; then
    echo "WARNING: benchmark regression vs BENCH_engine.json (see above);" \
         "rerun tools/bench.sh to refresh the baseline if intentional" >&2
    record bench "pass (regression warning)"
  else
    record bench "FAIL (bench run)"
  fi
}

run_obs_storm() {
  echo "== obs-trace: storm run with tracing on =="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "WARNING: python3 not found; skipping trace validation" >&2
    record obs-trace "skipped (no python3)"
    return
  fi
  local out="build/obs"
  mkdir -p "${out}"
  if ! { cmake -B build -S . >/dev/null \
         && cmake --build build -j "${JOBS}" --target flintctl; }; then
    record obs-trace "FAIL (build)"
    return
  fi
  # --failures lands its revocation warnings at a fixed task count, and the
  # 16 MiB/s modelled links stretch every shuffle fetch by a fixed wait, so
  # the job outlasts the warning window and a checkpoint commit however
  # fast the build runs the CPU work.
  if ! ./build/tools/flintctl run --workload pagerank --nodes 6 --failures 3 \
       --link-bandwidth 16 \
       --trace-out "${out}/storm-trace.json" \
       --metrics-out "${out}/storm-metrics.prom"; then
    record obs-trace "FAIL (storm run)"
    return
  fi
  if python3 tools/flint-report --validate "${out}/storm-trace.json" \
       --require stage,checkpoint,revocation,market_selection; then
    record obs-trace pass
  else
    record obs-trace "FAIL (trace validation)"
  fi
}

run_obs_straggler() {
  echo "== obs-straggler: slow-node run with speculation on =="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "WARNING: python3 not found; skipping straggler trace validation" >&2
    record obs-straggler "skipped (no python3)"
    return
  fi
  local out="build/obs"
  mkdir -p "${out}"
  # One of four nodes computes 8x slow for the whole run; the tightened
  # deadline floor makes the demo workload's millisecond tasks eligible for
  # speculation. The trace must show speculative attempts launching and the
  # health scorer quarantining the slow node.
  if ! with_timeout ./build/tools/flintctl run --workload pagerank --nodes 4 \
       --slow-node 0 --slow-factor 8 --spec-deadline 0.01 \
       --trace-out "${out}/straggler-trace.json" \
       --metrics-out "${out}/straggler-metrics.prom"; then
    record obs-straggler "FAIL (straggler run)"
    return
  fi
  if python3 tools/flint-report --validate "${out}/straggler-trace.json" \
       --require stage,speculation,quarantine; then
    record obs-straggler pass
  else
    record obs-straggler "FAIL (trace validation)"
  fi
}

run_obs_slowlink() {
  echo "== obs-slowlink: degraded-link run with the hardened fetch path =="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "WARNING: python3 not found; skipping slow-link trace validation" >&2
    record obs-slowlink "skipped (no python3)"
    return
  fi
  local out="build/obs"
  mkdir -p "${out}"
  # One of eight nodes serves its shuffle buckets through a badly degraded
  # link for the first seconds of the run: with the modelled NIC capacity
  # constrained to 2 MiB/s, the victim's transfers blow the quantile-derived
  # fetch timeout while healthy pulls stay milliseconds. A second node
  # computes 8x slow over the same window so the speculation family is
  # guaranteed alongside the link events (a degraded link alone does not
  # always push a task past its deadline). The trace must show fetches
  # classified link-slow and speculation engaging; quarantine / recompute
  # fallback ride the same machinery (slow_link test suite).
  if ! with_timeout ./build/tools/flintctl run --workload pagerank --nodes 8 \
       --slow-link 0 --link-factor 256 --link-bandwidth 2 --fault-secs 3 \
       --slow-node 1 --slow-factor 8 \
       --spec-deadline 0.01 \
       --trace-out "${out}/slowlink-trace.json" \
       --metrics-out "${out}/slowlink-metrics.prom"; then
    record obs-slowlink "FAIL (slow-link run)"
    return
  fi
  if python3 tools/flint-report --validate "${out}/slowlink-trace.json" \
       --require slow_link,speculation; then
    record obs-slowlink pass
  else
    record obs-slowlink "FAIL (trace validation)"
  fi
}

run_obs_overhead() {
  echo "== obs-bench: tracer overhead on the fused narrow chain =="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "WARNING: python3 not found; skipping overhead gate" >&2
    record obs-bench "skipped (no python3)"
    return
  fi
  if ! { cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null \
         && cmake --build build-bench -j "${JOBS}" --target micro_engine; }; then
    record obs-bench "FAIL (build)"
    return
  fi
  local json="build-bench/narrow_chain_tracer_pairs.json"
  if ! ./build-bench/bench/micro_engine \
       --benchmark_filter='BM_NarrowChainTracerPairs' \
       --benchmark_out="${json}" --benchmark_out_format=json; then
    record obs-bench "FAIL (bench run)"
    return
  fi
  python3 - "${json}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
runs = [b for b in data.get("benchmarks", [])
        if b.get("name", "").startswith("BM_NarrowChainTracerPairs")]
if not runs or "overhead_median" not in runs[0]:
    print("obs-bench: BM_NarrowChainTracerPairs reported no overhead counters")
    sys.exit(1)
r = runs[0]
median, ci_hi = r["overhead_median"], r["overhead_ci_hi"]
print("obs-bench: tracing-on fused chain walltime %+.2f%% vs tracing-off, median of"
      " %d alternating pairs (IQR %+.2f%% .. %+.2f%%, 95%% CI of the median"
      " %+.2f%% .. %+.2f%%; budget < 5%%)"
      % (median * 100.0, int(r["pairs"]), r["overhead_p25"] * 100.0,
         r["overhead_p75"] * 100.0, r["overhead_ci_lo"] * 100.0, ci_hi * 100.0))
if median >= 0.05:
    sys.exit(2)
sys.exit(3 if ci_hi >= 0.05 else 0)
PYEOF
  local rc=$?
  if [[ "${rc}" -eq 0 ]]; then
    record obs-bench pass
  elif [[ "${rc}" -eq 2 ]]; then
    record obs-bench "FAIL (tracer overhead >= 5%)"
  elif [[ "${rc}" -eq 3 ]]; then
    record obs-bench "FAIL (unresolved: the median's 95% CI reaches 5%)"
  else
    record obs-bench "FAIL (overhead check)"
  fi
}

if [[ "${MODE}" == "--static" ]]; then
  run_static
  run_lint
  summary
fi

if [[ "${MODE}" == "--bench" ]]; then
  run_bench
  summary
fi

if [[ "${MODE}" == "--obs" ]]; then
  run_obs_storm
  run_obs_straggler
  run_obs_slowlink
  run_obs_overhead
  summary
fi

run_tier1

if [[ "${MODE}" == "--fast" ]]; then
  record static "skipped (--fast)"
  record lint "skipped (--fast)"
  record obs-trace "skipped (--fast)"
  record obs-straggler "skipped (--fast)"
  record obs-slowlink "skipped (--fast)"
  record tsan "skipped (--fast)"
  record asan "skipped (--fast)"
  record ubsan "skipped (--fast)"
  summary
fi

run_static
run_lint
run_obs_storm
run_obs_straggler
run_obs_slowlink

# The TSan leg also runs the lock-order detector tests (Mutex*) and the storm
# + straggler suites, whose fixtures assert the detector saw no cycle
# (FLINT_SANITIZE builds define FLINT_MUTEX_DEBUG, so detection is on by
# default). Straggler* exercises speculation races: deadline scans, token
# cancellation, duplicate completions, and quarantine by the health judge.
# SlowLink*/ShuffleConc* hammer the hardened fetch path: concurrent
# Fetch/RegisterShuffle/OnNodeRevoked plus retry/recompute under kSlowLink.
# ShufflePath* runs the wide-stage paths (map sides streamed into their
# buckets or built first, merge reduce, the shuffle-free co-partitioned
# Join/CoGroup) across executor threads; Fusion* runs the narrow chains
# (TaskContext::RunChain) the same way.
# SwrrPick*/HealthPlacement*/LocalityPlacement* cover placement: PickNode's
# lineage walk reads every frontier block's size from BlockManager shards on
# the scheduler thread while executors store blocks. BlockManagerSpill* keeps
# a promoted block's disk copy, shared between the shard's two maps.
# RecoveryPlacement* moves cached blocks between BlockManagers (a remote read
# takes the block) while executors and checkpoint writers read both, and
# judges node health from completions while the scheduler places. Latency*
# cancels the one wait from another thread. AttemptPath* runs every attempt
# through the one launch routine and attempt runner: executor threads push
# outcomes the scheduler thread consumes, and each attempt holds its stage's
# body by value. Tpch* (here and under ASan and UBSan) runs the queries'
# narrow joins and aggregations over the cached, key-bucketed tables, before
# and after a revocation.
run_sanitizer tsan thread build-tsan 'FaultInject*:Straggler*:SlowLink*:ShuffleConc*:ShufflePath*:Fusion*:DfsFault*:Mutex*:Obs*:SwrrPick*:HealthPlacement*:LocalityPlacement*:RecoveryPlacement*:Latency*:AttemptPath*:Tpch*:BlockManagerSpill*'
# Fusion*/ShufflePath* under ASan: a chain's sinks hold references into one
# another and into the terminal for exactly one run. LocalityPlacement*/
# RecoveryPlacement*: a moved block's PartitionPtr changes BlockManager while
# readers hold it. BlockManagerSpill*: one PartitionPtr in memory and on disk,
# dropped from either. AttemptPathTraced*: a task span closes before its
# attempt's outcome moves to the scheduler thread. PageRankTest*: the keyed
# reduces walk raw pointers into cached partitions, and PageRank's Join is the
# one that joins vector values.
run_sanitizer asan address build-asan 'FtManagerTest*:CheckpointPolicyMath*:DfsFault*:Mutex*:Fusion*:ShufflePath*:LocalityPlacement*:RecoveryPlacement*:Tpch*:PageRankTest*:BlockManagerSpill*:AttemptPathTraced*'
# The UBSan build aborts on the first finding (-fno-sanitize-recover).
# ShufflePath* folds its combiners in unsigned arithmetic, so signed overflow
# in a test combine shows up here; Latency* covers the one wait's arithmetic;
# LocalityPlacement* the lineage walk's byte sums; BlockManagerSpill* the
# spill accounting; RecoveryPlacement* the round-robin credits; AttemptPath*
# the attempt path; PageRankTest* the key-run walk over vector values.
run_sanitizer ubsan undefined build-ubsan 'FaultInject*:DfsFault*:FtManagerTest*:CheckpointPolicyMath*:Mutex*:ShufflePath*:Fusion*:Latency*:LocalityPlacement*:RecoveryPlacement*:AttemptPath*:Tpch*:PageRankTest*:BlockManagerSpill*'

summary
