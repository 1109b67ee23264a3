#!/usr/bin/env bash
# Runs the engine microbenchmarks (bench/micro_engine) in a Release build and
# maintains the committed performance baseline BENCH_engine.json.
#
#   tools/bench.sh              # run + rewrite BENCH_engine.json
#   tools/bench.sh --compare    # run + compare against BENCH_engine.json;
#                               # exit 2 on a >25% items/s regression, 3
#                               # when the baseline came from another host
#
# The baseline is normalized (tools/bench_baseline.py): it keeps the host
# (nproc, build type, compiler), strips the rest of the machine context, and
# rounds numbers to 3 significant digits, so the committed file only diffs
# when performance or the host actually moves. Refresh it with a plain
# `tools/bench.sh` run after intentional performance changes.

set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-}"
BASELINE="BENCH_engine.json"

if ! command -v python3 >/dev/null 2>&1; then
  echo "WARNING: python3 not found; cannot normalize benchmark output" >&2
  # A missing interpreter must not fail the warn-only check.sh leg.
  [[ "${MODE}" == "--compare" ]] && exit 0
  exit 1
fi

echo "== bench: Release build of micro_engine =="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null \
  && cmake --build build-bench -j "${JOBS}" --target micro_engine \
  || exit 1

RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT

echo "== bench: running micro_engine =="
./build-bench/bench/micro_engine \
  --benchmark_out="${RAW}" --benchmark_out_format=json || exit 1

if [[ "${MODE}" == "--compare" ]]; then
  if [[ ! -f "${BASELINE}" ]]; then
    echo "WARNING: ${BASELINE} missing; run tools/bench.sh to create it" >&2
    exit 0
  fi
  echo "== bench: comparing against ${BASELINE} =="
  python3 tools/bench_baseline.py compare "${BASELINE}" "${RAW}"
else
  python3 tools/bench_baseline.py normalize "${RAW}" > "${BASELINE}" || exit 1
  echo "wrote ${BASELINE}"
  # Show the run relative to itself.
  python3 tools/bench_baseline.py compare "${BASELINE}" "${RAW}" || true
fi
