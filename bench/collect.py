"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 bench/collect.py --workloads cascade oracle --seeds 1-10 \
        --seconds 30 [--trace] [--out bench/results/NAME.json]

Runs are sequential, one process at a time.  For every workload and
metric it prints the median, the quartiles and the spread (interquartile
range over the median, quartiles as ``statistics.quantiles(values, n=4)``
gives them) and, with ``--out``, writes every run's result to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    out = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            record, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"record": record, "result": result})
            values = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: failed {result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values) if len(values) > 1 else {"median": values[0]}
            summary[name]["unit"] = names[name]["unit"]
        out["env"] = runs[0]["record"]["env"]
        out["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            line = f"  {name:32s} median {s['median']:.6g} {s['unit']}"
            if "spread" in s:
                line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
