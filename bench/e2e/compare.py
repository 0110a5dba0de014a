#!/usr/bin/env python3
"""Compares end-to-end results of two sides of a change.

  compare.py BASE1.json HEAD1.json [BASE2.json HEAD2.json ...]

Arguments are results files written by `run.sh --out`, in the order they
were run: base and head alternate, and each file pairs with its neighbour.
Timing values are paired rep by rep in that order. For every workload and
end-to-end metric it prints each side's median [q1, q3] (n), the change of
the median, the head's win fraction over the pairs, and a verdict:

  improved    at least 10 pairs, head wins >= 9/10 of them, and the medians
              differ by more than the base's own spread (q3 - q1)
  regressed   head's median is worse than base's by more than the metric's
              bound in BENCHMARK.json
  unresolved  base's spread is wider than the bound and not every head value
              beats every base value
  unchanged   otherwise

The simulated latencies and shed_frac are deterministic per seed and must
match exactly (BENCHMARK.json bounds sim_latency_mean_steps only for runs
on different seeds); so must the commit hashes.
Exits 1 if any metric regressed or any deterministic result differs.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# A gain needs at least this many base/head pairs behind it.
MIN_PAIRS = 10


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, head, bound, higher_better):
    """The rule in the module docstring, for one workload and metric."""
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    worse = sign * (bmed - hmed) / bmed if bmed else 0.0
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if worse > bound:
        return "regressed", win_frac
    if (len(pairs) >= MIN_PAIRS and win_frac >= 0.9
            and sign * (hmed - bmed) > bq3 - bq1):
        return "improved", win_frac
    if bmed and (bq3 - bq1) / bmed > bound and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def fmt(v):
    return f"{v:.4g}"


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        sys.stderr.write(__doc__)
        return 2
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in argv]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    bases, heads = docs[0::2], docs[1::2]
    for side, ds in (("base", bases), ("head", heads)):
        shas = sorted({d["envelope"]["git_sha"][:12] for d in ds})
        print(f"{side}: {len(ds)} file(s), sha {', '.join(shas)}, "
              f"nproc {ds[0]['envelope']['nproc']}, "
              f"{ds[0]['envelope']['compiler']}")
    workloads = [w for w in bases[0]["workloads"]
                 if all(w in d["workloads"] for d in docs)]
    failed = False
    print(f"\n{'workload':24s} {'metric':24s} {'base median [q1, q3] (n)':>34s}"
          f" {'head median [q1, q3] (n)':>34s} {'change':>8s} {'win':>5s}"
          "  verdict")
    for w in workloads:
        hashes = {d["workloads"][w]["hash"] for d in docs}
        if len(hashes) != 1:
            failed = True
            print(f"{w:24s} commit hashes differ: {sorted(hashes)}")
        for metric in bases[0]["workloads"][w]["end_to_end"]:
            def values(ds):
                return [v for d in ds
                        for v in d["workloads"][w]["end_to_end"][metric][
                            "values"]]
            base, head = values(bases), values(heads)
            bq1, bmed, bq3 = quartiles(base)
            hq1, hmed, hq3 = quartiles(head)
            change = (hmed - bmed) / bmed if bmed else 0.0
            if metric.startswith("sim_") or metric == "shed_frac":
                result = "identical" if set(base) == set(head) else "differs"
                failed |= result == "differs"
                win_s = "-"
            else:
                m = bounded[metric]
                result, win = verdict(base, head, m["bound"],
                                      m["better"] == "higher")
                failed |= result == "regressed"
                win_s = f"{win:.2f}"
            b = f"{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}] ({len(base)})"
            h = f"{fmt(hmed)} [{fmt(hq1)}, {fmt(hq3)}] ({len(head)})"
            print(f"{w:24s} {metric:24s} {b:>34s} {h:>34s} {change:+8.1%} "
                  f"{win_s:>5s}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
