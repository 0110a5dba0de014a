#!/usr/bin/env bash
# gprof's flat profile, with call counts, and call graph of bench/e2e
# workloads.
#
# Builds the bench/e2e project (Release, plus -pg) into a directory outside
# the source tree, runs each named workload's frozen spec from
# bench/e2e/workloads.json (read only, never edited) through bench_e2e with
# untraced reps only, and prints gprof's flat profile: self time and the
# number of calls of every function. Call counts are exact for a given
# seed, so they compare two commits without timing noise. It then prints
# the largest inclusive entries of gprof's call graph (a function's own
# time plus its callees'): a cost spread over many small callees shows
# there as one entry, where the flat profile splits it.
#
# Usage: scripts/profile_e2e.sh [--build-dir DIR] [--seed N] [--reps N]
#                               [--top N] WORKLOAD...
#   --build-dir  where the -pg build lives (default: $TMPDIR or /tmp,
#                under dtm-profile-e2e); reused by later calls
#   --seed       workload seed (default: the catalogue's default seed)
#   --reps       untraced reps after one warm-up (default 4)
#   --top        lines of the flat profile, and entries of the call
#                graph, to print (default 40)
#   WORKLOAD     a name from `bench/e2e/run.sh --list`
#
# Example: scripts/profile_e2e.sh --reps 6 serve-dist-cluster
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${TMPDIR:-/tmp}/dtm-profile-e2e"
seed=""
reps=4
top=40
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) build="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --top) top="$2"; shift 2 ;;
    -h|--help) sed -n '2,25p' "$0"; exit 0 ;;
    -*) echo "unknown flag '$1'" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  echo "usage: $0 [--build-dir DIR] [--seed N] [--reps N] [--top N]" \
       "WORKLOAD..." >&2
  exit 2
fi
case "$build" in
  "$root"|"$root"/*)
    echo "--build-dir must be outside the source tree" >&2; exit 2 ;;
esac

mkdir -p "$build"
log="$build/build.log"
if ! { [ -f "$build/CMakeCache.txt" ] ||
       cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release \
             -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >"$log" 2>&1
     } || ! cmake --build "$build" --target bench_e2e -j "$(nproc)" \
              >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "build failed (log: $log)" >&2
  exit 1
fi

for name in "${workloads[@]}"; do
  # The workload's driver and its spec with the seed filled in, as run.py
  # builds them.
  line="$(python3 - "$root/bench/e2e/workloads.json" "$name" "$seed" <<'EOF'
import json, sys
catalog = json.load(open(sys.argv[1], encoding="utf-8"))
by_name = {w["name"]: w for w in catalog["workloads"]}
if sys.argv[2] not in by_name:
    sys.exit(f"unknown workload '{sys.argv[2]}' "
             f"(known: {', '.join(by_name)})")
w = by_name[sys.argv[2]]
spec = dict(w["spec"], seed=int(sys.argv[3] or catalog["default_seed"]))
print(w["driver"], json.dumps(spec, separators=(",", ":")))
EOF
)"
  read -r driver spec <<<"$line"
  run="$(mktemp -d "$build/run.XXXXXX")"
  (cd "$run" && "$build/bench_e2e" --driver "$driver" --spec "$spec" \
                 --warmup 1 --reps "$reps" >/dev/null)
  echo "== $name (seed ${seed:-default}, 1 warm-up + $reps reps)"
  # Template instantiations demangle to pages; the first 200 columns hold
  # the numbers and the function's name. awk reads to the end, so gprof
  # never dies of a closed pipe (pipefail would stop the loop).
  gprof -b -p "$build/bench_e2e" "$run/gmon.out" |
    awk -v n="$top" 'NR <= n { print substr($0, 1, 200) }'
  # gprof numbers the call graph's primary lines ("[k]") by inclusive
  # time, largest first; the lines between them are callers and callees.
  echo "== $name call graph, largest inclusive entries"
  echo "index  % time    self  children    called     name"
  gprof -b -q "$build/bench_e2e" "$run/gmon.out" |
    awk -v n="$top" '/^\[[0-9]+\]/ && ++k <= n { print substr($0, 1, 200) }'
  rm -rf "$run"
done
