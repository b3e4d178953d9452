"""ergocheck benchmark: time to verdict, correctness and memory per workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cascade --seed 1 --seconds 30 --trace 0

Workloads: cascade, conserved, oracle (see bench/README.md).

Prints every metric with its unit.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON record of the environment and the run.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a separate traced run.

The program under test is the checkout's ``src/ergocheck``; it runs in a
child process with BLAS and OpenMP capped at one thread.  Exits with a
nonzero code, without a result, when that package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The tail percentile of each workload: the highest of 50/75/90/95/99 that
# leaves at least ten samples beyond it in a 30 s run of the baseline, also
# when the host runs slow.  It is fixed so that every later run reports the
# same percentile.
TAIL_PERCENTILE = {"cascade": 90, "conserved": 75, "oracle": 75}

SETUP_REPEATS = 6  # fresh interpreters timed for setup_s (median)
CHILD_TIMEOUT = 170  # seconds; the whole run must end within 180

IMPORT_PROBE = """
import json, platform, time
t = time.perf_counter()
import ergocheck
seconds = time.perf_counter() - t
import numpy, scipy
print(json.dumps({"seconds": seconds, "file": ergocheck.__file__,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def run_child(args, env, deadline):
    """Run a Python child to completion; its stdout, or exit on failure."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.exit(f"bench: child timed out: {args[:2]}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: child failed with code {proc.returncode}")
    return proc.stdout


def import_probe(env, deadline):
    """Time ``import ergocheck`` in a fresh interpreter; also reports where
    the package came from and the library versions."""
    probe = json.loads(run_child(["-c", IMPORT_PROBE], env, deadline))
    if Path(probe["file"]).resolve().parent != SRC / "ergocheck":
        sys.exit(f"bench: imported ergocheck from {probe['file']}, not {SRC}")
    return probe


def measure_setup(env, deadline):
    """Median of ``SETUP_REPEATS`` fresh-interpreter import times.  The
    untimed probe before them writes the bytecode caches, as an installed
    package would have them."""
    return statistics.median(
        import_probe(env, deadline)["seconds"] for _ in range(SETUP_REPEATS)
    )


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(probe):
    record = {k: probe[k] for k in ("python", "numpy", "scipy")}
    record.update(nproc=os.cpu_count(), cpu=cpu_model(), blas_threads=1)
    return record


def percentile(values, p):
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT

    if not (SRC / "ergocheck" / "__init__.py").is_file():
        sys.exit(f"bench: no ergocheck package under {SRC}")
    env = child_env()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(import_probe(env, deadline)),
    }

    worker = [
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        worker += ["--spans", str(spans_path)]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup_s = measure_setup(env, deadline)
    result = json.loads(run_child(worker, env, deadline).splitlines()[-1])

    latencies = result["latencies"]
    attempted = len(latencies)
    failed = len(result["failures"])
    record.update(rounds=result["rounds"], failures=result["failures"][:20])
    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in result["layers"].items()}
        record.update(
            self_time_gap_s=result["self_time_gap_s"], num_spans=result["num_spans"]
        )
    else:
        p = TAIL_PERCENTILE[args.workload]
        tail = percentile(latencies, p)
        record.update(
            tail_percentile=p,
            samples=attempted,
            samples_beyond_tail=sum(1 for x in latencies if x > tail),
        )
        values = {
            "verdicts_per_s": ((attempted - result["raised"]) / sum(latencies), "1/s"),
            "verdict_s_p50": (statistics.median(latencies), "s"),
            "verdict_s_tail": (tail, "s"),
            "correct_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(
            f"verdict_s_tail is p{record['tail_percentile']} of {attempted} "
            f"samples ({record['samples_beyond_tail']} beyond it)"
        )
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
