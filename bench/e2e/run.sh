#!/usr/bin/env bash
# The one command of the end-to-end benchmark: configures and builds
# bench_e2e (Release, into $CARGO_TARGET_DIR or .bench_build), runs the
# workloads, checks their outputs and prints every metric. Arguments go to
# run.py; `run.sh --help` lists them, README.md explains them.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
# Recorded in the results envelope. Only a checkout with its own .git is
# asked, so git never searches the directories above it.
if [[ -z "${DTM_GIT_SHA:-}" && -e "$root/.git" ]]; then
  DTM_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export DTM_GIT_SHA="${DTM_GIT_SHA:-unknown}"
export PYTHONDONTWRITEBYTECODE=1
exec python3 "$root/bench/e2e/run.py" "$@"
