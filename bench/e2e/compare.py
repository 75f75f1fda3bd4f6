#!/usr/bin/env python3
"""Compare two sets of cadet_e2e reports (the files `--out` writes).

Usage:
    python3 bench/e2e/compare.py --base A1.json A2.json ... \\
                                 --change B1.json B2.json ...

Run the sets alternately (A1, B1, A2, B2, ...): the i-th base report and the
i-th change report form one pair. For every workload x end-to-end metric
the script prints both sides' median and quartiles, the change's pair wins
and a verdict under BENCHMARK.json's bounds and the rule for claiming a
gain:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile range;
  regression  the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  either side's interquartile range exceeds the bound, unless
              every change run beats every base run;
  identical   every run of both sides reads the same (deterministic metrics);
  within      none of the above.

Metrics that BENCHMARK.json does not bound (failed_frac, latency_p999_ms)
are printed with their statistics and "info". Exits 1 when any metric
regressed, 2 on bad input, else 0.
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load(paths):
    """[{workload: {metric: value}}] per report, plus the metrics' units."""
    runs, units = [], {}
    for path in paths:
        report = json.loads(pathlib.Path(path).read_text())
        run = {}
        for workload, body in report["workloads"].items():
            run[workload] = {}
            for name, metric in body["metrics"].items():
                run[workload][name] = metric["value"]
                units[name] = metric["unit"]
        runs.append(run)
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Verdict for one metric from paired base/change values."""
    if len(set(base)) == 1 and base == change:
        return "identical", 0
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if bound is None:
        return "info", wins
    mb, mc = statistics.median(base), statistics.median(change)
    b1, b3 = quartiles(base)
    c1, c3 = quartiles(change)
    gap = sign * (mc - mb)
    if gap > 0 and wins >= 0.9 * len(base) and abs(mc - mb) > b3 - b1:
        return "gain", wins
    if -gap > bound * abs(mb):
        return "regression", wins
    spread = max((b3 - b1) / abs(mb) if mb else 0.0,
                 (c3 - c1) / abs(mc) if mc else 0.0)
    if spread > bound:
        all_better = (min(change) > max(base) if sign > 0
                      else max(change) < min(base))
        return ("better (all runs)" if all_better else "unresolved"), wins
    return "within", wins


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.base) != len(args.change):
        print("compare.py: --base and --change need the same number of "
              "reports (one pair each)", file=sys.stderr)
        return 2
    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, units = load(args.base)
    change, _ = load(args.change)

    regressed = False
    workloads = sorted(set().union(*[set(r) for r in base + change]))
    print(f"{len(base)} pairs; bounds from {args.benchmark}")
    print(f"{'workload':<11} {'metric':<16} {'unit':<5} "
          f"{'base median [q1, q3]':<36} {'change median [q1, q3]':<36} "
          f"{'wins':<6} verdict")
    for workload in workloads:
        names = sorted(set().union(
            *[set(r.get(workload, {})) for r in base + change]))
        for name in names:
            b = [r[workload][name] for r in base if name in r.get(workload, {})]
            c = [r[workload][name] for r in change
                 if name in r.get(workload, {})]
            if len(b) != len(base) or len(c) != len(change):
                print(f"{workload:<11} {name:<16} missing from some reports")
                continue
            better, bound = bounds.get(name, ("lower", None))
            what, wins = verdict(b, c, better, bound)
            regressed = regressed or what == "regression"
            b1, b3 = quartiles(b)
            c1, c3 = quartiles(c)
            side = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"{workload:<11} {name:<16} {units[name]:<5} "
                  f"{side.format(statistics.median(b), b1, b3):<36} "
                  f"{side.format(statistics.median(c), c1, c3):<36} "
                  f"{wins}/{len(b):<4} {what}"
                  + (f" (bound {bound:.0%}, {better} is better)"
                     if bound is not None else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
