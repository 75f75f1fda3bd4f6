#!/usr/bin/env python3
"""Build cadet_e2e from source and run one workload of the benchmark.

Usage (from the repository root):
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; with --trace 1 they are its per_layer list, from a run that
alternates untraced and traced repetitions. Build products, the run's full
report and the traced run's spans go under .bench_build/ in the checkout.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "cadet_e2e"


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no src/ tree next to bench/e2e; cannot build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "cadet_e2e"], check=True, stdout=sys.stderr)
    return BUILD / "cadet_e2e"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")

    report_path = OUT / f"run-{args.workload}.json"
    if report_path.exists():
        report_path.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(report_path)]
    if args.trace:
        cmd += ["--trace-out", str(OUT / "trace")]
    # A failed gate still writes the report (correct: false); only a run
    # that produced no report is an error.
    subprocess.run(cmd, stdout=sys.stderr)
    if not report_path.is_file():
        sys.exit("run.py: cadet_e2e wrote no report")
    report = json.loads(report_path.read_text())
    run = report["workloads"].get(args.workload)
    if run is None:
        sys.exit(f"run.py: unknown workload {args.workload}")
    measured = run["layers" if args.trace else "metrics"]
    metrics = {}
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None or got["value"] is None:
            sys.exit(f"run.py: {args.workload} did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            sys.exit(f"run.py: {metric['name']} is in {got['unit']}, "
                     f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
