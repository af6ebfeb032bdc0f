"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workloads unrank rank --seeds 1 2 3 --seconds 18 [--trace 1]

Runs are made one after another, each in a fresh interpreter.  For every
metric it prints the median, the quartiles, and the spread: the distance
between the quartiles as a share of the median.  With --out, the runs'
result lines are also written to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        results = [result for _details, result in runs]
        summary = summarise(results)
        record[workload] = {"runs": [{"details": d, "result": r} for d, r in runs],
                            "summary": summary}
        bad = [d["seed"] for d, r in runs if not r["correct"]]
        print(f"{workload}: {len(runs)} runs, incorrect seeds {bad}, "
              f"ops {[r['attempted'] for r in results]}")
        for name, s in summary.items():
            print(f"  {name:40s} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  spread {s['spread']:.3f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
