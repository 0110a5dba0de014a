#!/usr/bin/env bash
# Builds Release and runs one of the JSON-emitting benchmark harnesses
# (docs/PERF.md, docs/EXPERIMENTS.md).
# Usage: scripts/run_bench.sh [--quick] [--bench NAME] [build-dir] [out-json]
#   NAME is the harness suffix: fastpath (default), bucket_fastpath, chaos,
#   serve, parallel, stream, memory, ... — anything with a
#   bench/bench_NAME.cpp that takes --out.
#   For bench_memory's allocs/step columns, point build-dir at a tree
#   configured with -DDTM_ALLOC_TRACK=ON (docs/EXPERIMENTS.md F20).
set -euo pipefail

QUICK=""
BENCH="fastpath"
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK="--quick"; shift ;;
    --bench) BENCH="$2"; shift 2 ;;
    *) break ;;
  esac
done
BUILD="${1:-build-release}"
OUT="${2:-BENCH_${BENCH}.json}"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" --target "bench_${BENCH}" -j "$(nproc)"

"$BUILD/bench/bench_${BENCH}" $QUICK --out "$OUT"
echo "results in $OUT"
