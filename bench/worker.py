"""One workload in one single-threaded process: a closed loop with one caller.

Usage: python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
       [--spans PATH]

Expects ``ergocheck`` importable (``run.py`` puts the checkout's ``src`` on
PYTHONPATH).  Prints one JSON object with the raw samples and counts.

Untraced (``--trace 0``): whole rounds of the workload until the operations
have taken about ``S`` seconds.  Traced (``--trace 1``): every operation
runs untraced and traced, for about ``S/2`` seconds of untraced time; both
runs must render identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from recheck import check  # noqa: E402
from spans import Tracer, layer_metrics, operation_totals  # noqa: E402
from workloads import make_round, warmup_operation  # noqa: E402

import ergocheck.report as api  # noqa: E402


def run_operation(op):
    """The timed operation: what the CLI does, minus process start-up."""
    if op.witness is not None:
        report = api.verify(op.text, op.witness, totals=op.totals)
    else:
        report = api.analyze(
            op.text, totals=op.totals, oracle=op.oracle, seed=op.oracle_seed
        )
    return api.render_report(report, fmt="json", include_timings=False)


def attempt(op, call=run_operation):
    """Time one operation; returns (seconds, rendered JSON or None, failure).
    The JSON is None exactly when the operation raised."""
    start = perf_counter()
    try:
        text = call(op)
    except Exception as exc:  # a raising operation is a failed operation
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    return elapsed, text, check(op, json.loads(text))


def operations(workload, seed, seconds, spent):
    """(round, operation) over whole rounds.  Another round starts only while
    less than half a round's time is left; ``spent()`` is the time so far."""
    index = 0
    while index == 0 or spent() + spent() / index / 2 < seconds:
        for op in make_round(workload, seed, index):
            yield index, op
        index += 1


def untraced_run(workload, seed, seconds):
    latencies, failures, raised, rounds = [], [], 0, 0
    for rounds, op in operations(workload, seed, seconds, lambda: sum(latencies)):
        elapsed, text, failure = attempt(op)
        latencies.append(elapsed)
        raised += text is None
        if failure:
            failures.append(f"{op.label}: {failure}")
    return {"rounds": rounds + 1, "latencies": latencies, "failures": failures,
            "raised": raised}


def traced_run(workload, seed, seconds, tracer):
    """Each operation runs untraced and traced back to back, alternating
    which goes first, so that both see the same machine conditions.  Whole
    rounds until the untraced runs add up to about half of ``seconds``."""
    plain, traced, failures, raised, rounds = [], [], [], 0, 0

    def run_traced(op, op_id):
        tracer.install()
        try:
            return attempt(op, functools.partial(tracer.operation, op_id, run_operation))
        finally:
            tracer.uninstall()

    ops = operations(workload, seed, seconds / 2, lambda: sum(plain))
    for op_id, (rounds, op) in enumerate(ops):
        if op_id % 2:
            traced_result = run_traced(op, op_id)
            plain_result = attempt(op)
        else:
            plain_result = attempt(op)
            traced_result = run_traced(op, op_id)
        elapsed, text, failure = traced_result
        plain.append(plain_result[0])
        traced.append(elapsed)
        raised += text is None
        if failure is None and text != plain_result[1]:
            failure = "traced report differs from untraced report"
        if failure:
            failures.append(f"{op.label}: {failure}")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.operation_s"] = sum(traced) / len(traced)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    return {"rounds": rounds + 1, "latencies": traced, "failures": failures,
            "raised": raised, "layers": metrics,
            "self_time_gap_s": max(
                abs(duration - layers)
                for duration, layers in operation_totals(tracer.spans).values()
            ),
            "num_spans": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    # Warm-up outside the timed region: first-call costs inside numpy/scipy.
    run_operation(warmup_operation())

    if args.trace:
        tracer = Tracer()
        result = traced_run(args.workload, args.seed, args.seconds, tracer)
        if args.spans:
            tracer.write(args.spans)
    else:
        result = untraced_run(args.workload, args.seed, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
