#!/usr/bin/env bash
# Builds the benchmark program, ssco_bench (RelWithDebInfo, in
# .bench_build/ at the repo root), and runs it. Build output goes to stderr,
# so the last line of stdout is the run's JSON result.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--smoke]
#   benchmark/run.sh --repeat N [--workload W] [--seconds S]
#
# W: reduce_cold, scatter_cold, drift_serve, exec_drift or all (default).
# --traced (= --trace 1) reports the per-layer metrics and writes
# .bench_build/trace_<W>.json. --smoke runs every workload at 1/10 size.
# --repeat N runs two sets of N runs per workload (seeds 1..N) and prints
# each end-to-end metric's medians and spread against its bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: library sources not found in $root" >&2
  exit 1
fi

args=()
repeat=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --traced) args+=(--trace 1); shift ;;
    --smoke) args+=(--smoke); shift ;;
    --repeat) repeat="${2:?--repeat needs a count}"; shift 2 ;;
    --workload|--seed|--seconds|--trace)
      args+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ -n "$repeat" ]]; then
  exec python3 "$here/repeat.py" --runs "$repeat" ${args[@]+"${args[@]}"}
fi

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target ssco_bench -j "$(nproc)" >&2

exec "$build/ssco_bench" ${args[@]+"${args[@]}"} --out-dir "$build"
