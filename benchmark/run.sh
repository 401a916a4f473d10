#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N]           build, then run every workload
#                                         untraced and traced
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                         build, then one run of W
#
# The window is BENCHMARK.json's run_seconds unless --seconds is given.
#
# Builds RelWithDebInfo into build-bench/ at the repository root.  Every
# run prints one `workload metric value unit` line per metric, writes its
# JSON to build-bench/results/, and ends its output with one JSON result
# line.  The exit status is non-zero when any correctness gate fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no VoroNet sources under $root" >&2
  exit 2
fi

build=build-bench
generator=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  generator=(-G Ninja)
fi
cmake -S benchmark -B "$build" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target voronet_bench -j "$(nproc)" >&2

if [[ -d .git ]] && sha="$(git rev-parse HEAD 2>/dev/null)"; then
  export VORONET_BENCH_GIT_SHA="$sha"
  if [[ -z "$(git status --porcelain 2>/dev/null)" ]]; then
    export VORONET_BENCH_GIT_DIRTY=false
  else
    export VORONET_BENCH_GIT_DIRTY=true
  fi
fi

bench=("$build/voronet_bench" --spec BENCHMARK.json --out "$build/results")
for arg in "$@"; do
  if [[ "$arg" == --workload ]]; then
    exec "${bench[@]}" "$@"
  fi
done

# No --workload: every workload of BENCHMARK.json, untraced and then
# traced, for its run_seconds.  The traced run prints its end-to-end
# numbers beside the untraced ones.
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
workloads="$(python3 -c \
  'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
status=0
for w in $workloads; do
  "${bench[@]}" --workload "$w" --seed "$seed" --trace 0 || status=1
  "${bench[@]}" --workload "$w" --seed "$seed" --trace 1 \
    --untraced "$build/results/$w-seed$seed-trace0.json" || status=1
done
exit "$status"
