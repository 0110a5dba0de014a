#!/usr/bin/env python3
"""End-to-end benchmark driver: builds bench_e2e, runs workloads, checks
outputs and reports metrics. `bench/e2e/run.sh` is the entry point; see
README.md in this directory for the workloads and metric definitions.

Two ways to run it:

  report  run.sh [--workload NAME] [--quick] [--out FILE] [--alloc]
          Every workload (or one) in its own child process: 1 warm-up rep,
          5 timed reps (2 with --quick), then 1 traced rep. Prints the
          end-to-end table and the per-layer table; --out writes them as
          JSON with the run envelope (compare.py reads these files).

  single  run.sh --workload NAME --seed N --seconds S --trace 0|1
          One workload, measured for S seconds. --trace 0 reports the
          end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
          metrics. The last line of stdout is one JSON object
          {"correct", "attempted", "failed", "metrics"}.

Any failed check (schedule validation, lost transactions, commit hash
differing between reps or from the pin in workloads.json for the default
seed) names the workload and the check and exits non-zero.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCHEMA = "dtm-bench-e2e-v1"
# Every end-to-end metric a report carries. BENCHMARK.json names the ones
# with a bound; the rest are deterministic per seed and compared exactly.
E2E_UNITS = {
    "commits_per_s": "commits/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_latency_mean_steps": "steps",
    "sim_latency_p50_steps": "steps",
    "sim_latency_p99_steps": "steps",
    "shed_frac": "fraction",
}
# A single run must end within 180 s; the child gets what is left after
# its own measurement budget, never more than this.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A failed build or check; the message names the workload and check."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "values": values}


# ---------------------------------------------------------------------------
# Build


def build_dir(alloc):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / ("e2e-alloc" if alloc else "e2e-release")


def run_logged(cmd, log, env):
    with open(log, "a", encoding="utf-8") as f:
        f.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode


def build(alloc=False):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("build: simulator sources not found at "
                         f"{ROOT / 'src'}")
    out = build_dir(alloc)
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    log.write_text("", encoding="utf-8")
    # The compiler's temporary files stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DDTM_ALLOC_TRACK={'ON' if alloc else 'OFF'}"])
    jobs = max(1, min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", str(jobs)])
    for cmd in steps:
        if run_logged(cmd, log, env) != 0:
            tail = log.read_text(encoding="utf-8").splitlines()[-30:]
            sys.stderr.write("\n".join(tail) + "\n")
            raise BenchError(f"build: '{' '.join(map(str, cmd))}' failed "
                             f"(log: {log})")
    return out / "bench_e2e", out


def build_envelope(build_path):
    """Build type and flags as CMake recorded them."""
    cache = {}
    for line in (build_path / "CMakeCache.txt").read_text(
            encoding="utf-8").splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{btype.upper()}",
                                           "")) if f)
    return {"build_type": btype, "cxx_flags": flags,
            "compiler_path": cache.get("CMAKE_CXX_COMPILER", "")}


# ---------------------------------------------------------------------------
# One workload in one child process


def workload_spec(w, seed, quick):
    spec = dict(w["spec"])
    if quick:
        spec.update(w["quick"])
    spec["seed"] = seed
    return spec


def run_child(binary, w, seed, quick, args, timeout_s):
    """Runs bench_e2e for one workload; returns (build info, rep lines)."""
    cmd = [str(binary), "--driver", w["driver"], "--spec",
           json.dumps(workload_spec(w, seed, quick))] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"workload {w['name']}: killed after {timeout_s} s"
                         ) from e
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        detail = (lines[-1].removeprefix("error: ") if lines
                  else f"exit status {proc.returncode}")
        raise BenchError(f"workload {w['name']}: {detail}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    return lines[0]["build"], lines[1:]


def check_pin(w, reps, seed, default_seed, quick):
    """The commit hash for the default seed must equal the pinned one."""
    hashes = {r["hash"] for r in reps}
    if len(hashes) != 1:
        raise BenchError(f"workload {w['name']}: check 'commit hash "
                         f"identical across reps' failed: {sorted(hashes)}")
    got = hashes.pop()
    if seed != default_seed:
        return got, "skipped (not the default seed)"
    want = w["pins"]["quick" if quick else "full"]
    if got != want:
        raise BenchError(f"workload {w['name']}: check 'commit hash == pin' "
                         f"failed: {got} != {want or '(no pin)'}")
    return got, "ok"


def end_to_end(reps):
    timed = [r for r in reps if r["kind"] == "timed"]
    det = timed[0]
    metrics = {
        "setup_s": [r["setup_s"] for r in timed],
        "commits_per_s": [r["commits"] / r["run_s"] for r in timed],
        # VmHWM only grows: the last untraced rep holds the process peak.
        "peak_rss_mb": [timed[-1]["peak_rss_kb"] / 1024.0],
        "sim_latency_mean_steps": [det["lat_mean"]],
        "sim_latency_p50_steps": [det["lat_p50"]],
        "sim_latency_p99_steps": [det["lat_p99"]],
        "shed_frac": [det["shed"] / det["offered"]],
    }
    return {k: summary(v, E2E_UNITS[k]) for k, v in metrics.items()}


def per_layer(reps, names):
    """Median over traced reps of each layer metric (None where the layer
    is idle), plus the two that compare traced with untraced reps."""
    timed = [r for r in reps if r["kind"] == "timed"]
    traced = [r for r in reps if r["kind"] == "traced"]
    out = {}
    for name in names:
        vals = [r["layers"].get(name) for r in traced]
        vals = [v for v in vals if v is not None]
        out[name] = statistics.median(vals) if vals else None
    out["util.cpu_util"] = statistics.median(
        r["cpu_s"] / r["run_s"] for r in timed)
    out["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in timed) - 1.0)
    return out


def allocs_per_step(reps):
    """From an allocation-counting build: heap allocations per engine step."""
    timed = [r for r in reps if r["kind"] == "timed"]
    return statistics.median(r["allocs"] / r["active_steps"] for r in timed)


# ---------------------------------------------------------------------------
# Modes


def single(args, bench, catalog):
    w = catalog[args.workload]
    binary, _ = build()
    seconds = float(args.seconds)
    if args.trace:
        child_args = ["--warmup", "1", "--reps", "2", "--seconds",
                      str(seconds / 2), "--traced-reps", "1",
                      "--traced-seconds", str(seconds / 2)]
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        child_args = ["--warmup", "1", "--reps", "3", "--seconds",
                      str(seconds)]
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if args.trace_out:
        child_args += ["--trace-out", args.trace_out]
    _, reps = run_child(binary, w, args.seed, args.quick, child_args,
                        CHILD_TIMEOUT_S)
    correct = True
    try:
        check_pin(w, reps, args.seed, catalog.default_seed, args.quick)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        correct = False
    measured = [r for r in reps if r["kind"] != "warmup"]
    if args.trace:
        values = per_layer(reps, names)
    else:
        values = {k: v["median"] for k, v in end_to_end(reps).items()}
    result = {
        "correct": correct,
        "attempted": sum(r["offered"] for r in measured),
        "failed": sum(r["shed"] for r in measured),
        "metrics": {n: {"value": values[n] if values[n] is not None else 0,
                        "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def report(args, bench, catalog):
    names = [args.workload] if args.workload else list(catalog.names)
    binary, bpath = build(alloc=False)
    layer_names = [m["name"] for m in bench["per_layer"]]
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reps_n = 2 if args.quick else 5
    child_args = ["--warmup", "1", "--reps", str(reps_n), "--traced-reps",
                  "1"]
    results = {}
    info = {}
    for name in names:
        w = catalog[name]
        trace_out = None
        if args.trace_out:
            Path(args.trace_out).mkdir(parents=True, exist_ok=True)
            trace_out = str(Path(args.trace_out) / f"{name}.jsonl")
        extra = ["--trace-out", trace_out] if trace_out else []
        info, reps = run_child(binary, w, args.seed, args.quick,
                               child_args + extra, 1800)
        digest, pin = check_pin(w, reps, args.seed, catalog.default_seed,
                                args.quick)
        layers = per_layer(reps, layer_names)
        results[name] = {
            "driver": w["driver"],
            "loop": w["loop"],
            "threads": w["spec"].get("threads", 1),
            "spec": workload_spec(w, args.seed, args.quick),
            "hash": digest,
            "checks": {"validate_and_no_loss": "ok",
                       "traced_hash_equals_untraced": "ok", "pin": pin},
            "end_to_end": end_to_end(reps),
            "per_layer": {k: {"value": v, "unit": layer_units[k]}
                          for k, v in layers.items()},
        }
        sys.stderr.write(f"{name}: ok ({len(reps)} reps)\n")
    if args.alloc:
        abinary, _ = build(alloc=True)
        for name in names:
            _, reps = run_child(abinary, catalog[name], args.seed,
                                args.quick, ["--warmup", "1", "--reps", "1"],
                                1800)
            results[name]["per_layer"]["util.allocs_per_step"] = {
                "value": allocs_per_step(reps), "unit": "count"}
    doc = {
        "schema": SCHEMA,
        "envelope": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "git_sha": os.environ.get("DTM_GIT_SHA", "unknown"),
            "nproc": os.cpu_count(),
            "host": platform.machine(),
            "compiler": info.get("compiler"),
            **build_envelope(bpath),
            "seed": args.seed,
            "quick": args.quick,
            "warmup_reps": 1,
            "reps": reps_n,
            "traced_reps": 1,
        },
        "workloads": results,
    }
    print_tables(doc, layer_names)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n",
                                  encoding="utf-8")
        sys.stderr.write(f"wrote {args.out}\n")
    return 0


def fmt(v):
    if v is None:
        return "n/a"
    return str(int(v)) if float(v).is_integer() else f"{v:.4g}"


def print_tables(doc, layer_names):
    env = doc["envelope"]
    print(f"bench_e2e  sha={env['git_sha'][:12]}  seed={env['seed']}  "
          f"nproc={env['nproc']}  {env['compiler']}  {env['build_type']}  "
          f"reps={env['warmup_reps']}+{env['reps']}+{env['traced_reps']}"
          f"{'  quick' if env['quick'] else ''}")
    names = list(doc["workloads"])
    print("\nend to end: median [q1, q3] (n)")
    first = doc["workloads"][names[0]]["end_to_end"]
    for metric in first:
        unit = first[metric]["unit"]
        print(f"  {metric} ({unit})")
        for name in names:
            s = doc["workloads"][name]["end_to_end"][metric]
            print(f"    {name:24s} {fmt(s['median']):>14s} "
                  f"[{fmt(s['q1'])}, {fmt(s['q3'])}] ({s['n']})")
    print("\nper layer (traced rep; n/a = layer idle)")
    print("  " + " " * 30 + "".join(f"{n[:22]:>24s}" for n in names))
    keys = list(doc["workloads"][names[0]]["per_layer"])
    for key in keys:
        row = "".join(
            f"{fmt(doc['workloads'][n]['per_layer'][key]['value']):>24s}"
            for n in names)
        print(f"  {key:30s}{row}")


class Catalog:
    """workloads.json: specs, pins and the default seed."""

    def __init__(self, doc):
        self.default_seed = doc["default_seed"]
        self._by_name = {w["name"]: w for w in doc["workloads"]}
        self.names = [w["name"] for w in doc["workloads"]]

    def __getitem__(self, name):
        if name not in self._by_name:
            raise BenchError(f"unknown workload '{name}' "
                             f"(one of: {', '.join(self.names)})")
        return self._by_name[name]


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=int, help="workload seed (default: the "
                   "default_seed of workloads.json, which checks the pins)")
    p.add_argument("--seconds", type=float,
                   help="single mode: measure for this long")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="single mode: 0 = end-to-end, 1 = per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="about 1/10 sizes, 1 + 2 reps plus the traced rep")
    p.add_argument("--list", action="store_true", help="list workloads")
    p.add_argument("--out", help="report mode: write results JSON here")
    p.add_argument("--trace-out", help="raw spans of the traced rep as JSONL "
                   "(report mode: a directory, one file per workload)")
    p.add_argument("--alloc", action="store_true",
                   help="report mode: also build with allocation counting "
                   "and report util.allocs_per_step")
    args = p.parse_args(argv)
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        catalog = Catalog(load_json(HERE / "workloads.json"))
        if args.list:
            why = {w["name"]: w["why"] for w in bench["workloads"]}
            for name in catalog.names:
                w = catalog[name]
                print(f"{name:24s} {w['driver']:7s} {w['loop']}\n"
                      f"{'':24s} {why.get(name, '')}")
            return 0
        if args.seed is None:
            args.seed = catalog.default_seed
        if args.trace is not None:
            if not args.workload or args.seconds is None:
                raise BenchError("--trace needs --workload and --seconds")
            return single(args, bench, catalog)
        return report(args, bench, catalog)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
