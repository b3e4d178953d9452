"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import copy
import functools
import json
import pathlib
import random
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import ergocheck.irreducibility  # noqa: E402
import recheck  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

# Per operation, the layer spans' self times must add up to the operation
# span within this share of it plus this many seconds (the benchmark's own
# glue between the layer calls is the only time outside layer spans).
SELF_TIME_REL_TOL = 0.02
SELF_TIME_ABS_TOL = 1e-4


def _small_ops():
    """One quick operation per family and call type, every verdict."""
    rng = random.Random(0)
    ops = [
        W._op(rng, f.__name__, f.__name__, f()) for f in W.SMALL_FAMILIES
    ]
    osc = {"S6": 1, "S8": 1}
    return ops + [
        W._op(rng, "c", "cascade", W.cascade(4)),
        W._op(rng, "vc", "cascade", W.cascade(4), witness=W.cascade_witness(4)),
        W._op(rng, "o", "oscillator", W.oscillator(), totals=osc),
        W._op(rng, "vo", "oscillator", W.oscillator(), totals=osc,
              witness=W.OSCILLATOR_WITNESS, permute=False),
        W._op(rng, "s", "switch", W.switch(), totals={"A": 3}),
    ]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_rounds_are_deterministic_per_seed(workload):
    first = W.make_round(workload, 7, 2)
    again = W.make_round(workload, 7, 2)
    other = W.make_round(workload, 8, 2)
    assert [op.text for op in first] == [op.text for op in again]
    assert [op.oracle_seed for op in first] == [op.oracle_seed for op in again]
    assert [op.text for op in first] != [op.text for op in other]
    # the seed changes presentation only: the same mix every time
    assert sorted(op.label for op in first) == sorted(op.label for op in other)


def test_known_answers_cover_every_verdict():
    assert {a.verdict for a in W.KNOWN_ANSWERS.values()} == set(W.VERDICTS)
    small = {W.KNOWN_ANSWERS[f.__name__].verdict for f in W.SMALL_FAMILIES}
    assert small == set(W.VERDICTS)
    for workload in W.WORKLOADS:
        for op in W.make_round(workload, 0):
            assert op.answer == W.KNOWN_ANSWERS[op.family]


def _proven_report(net, d_u, flux, lyapunov):
    return {
        "verdict": W.PROVEN_ERGODIC,
        "network": {"species": list(net.species), "d_u": d_u},
        "irreducibility": {"failed_condition": None,
                           "flux_witness": [str(x) for x in flux]},
        "drift": {"status": "certified", "lyapunov_vector": [str(x) for x in lyapunov]},
        "oracle": None,
    }


@pytest.mark.parametrize("d", [2, 5, 17])
def test_hand_witnesses_pass_the_independent_recheck(d):
    op = W._op(None, "c", "cascade", W.cascade(d), permute=False)
    witness = W.cascade_witness(d)
    report = _proven_report(
        op.network, d, [1] * (3 * d), [witness[s] for s in op.network.species]
    )
    assert recheck.check(op, report) is None

    bad_flux = copy.deepcopy(report)
    bad_flux["irreducibility"]["flux_witness"][0] = "2"
    assert "M v != 0" in recheck.check(op, bad_flux)
    bad_drift = copy.deepcopy(report)
    bad_drift["drift"]["lyapunov_vector"][0] = str(10 * d)  # X1: row d >= 0
    assert "not negative" in recheck.check(op, bad_drift)


def test_oscillator_witness_passes_the_independent_recheck():
    net = W.oscillator()
    v = [W.OSCILLATOR_WITNESS[s] for s in net.species]
    positive = v[:5] + [x + 1 for x in v[5:]]  # add the two conservation laws
    report = _proven_report(net, 5, [1] * 16, positive)
    op = W._op(None, "o", "oscillator", net, permute=False)
    assert recheck.check_lyapunov(op.network, report) is None
    report["drift"]["lyapunov_vector"] = [str(x) for x in v]
    assert recheck.check_lyapunov(op.network, report) == "lyapunov vector not positive"


def test_wrong_verdict_is_a_failure():
    op = W._op(None, "sw", "switch", W.switch(), totals={"A": 3}, permute=False)
    report = {"verdict": W.IRREDUCIBILITY_DISPROVEN, "irreducibility": None}
    assert "expected PROVEN_ERGODIC" in recheck.check(op, report)


def test_conserved_chains_stay_below_the_closure_defect():
    n_c = [t + 1 for t in W.SWITCH_TOTALS]
    n_c += [(t + 1) * (t + 2) // 2 for t in W.RING_TOTALS]
    n_c += [(t1 + 1) * (t2 + 1) for t1, t2 in W.TWO_POOL_TOTALS]
    assert max(n_c) < W.CLOSURE_DEFECT_N_C


@pytest.mark.xfail(reason="uint8 wrap in reachability_closure (ROADMAP item 1)")
def test_conserved_chain_of_256_states_is_proven():
    # The smallest conserved chain the benchmark leaves out for the defect.
    op = W._op(None, "two_pool T=15,15", "two_pool", W.two_pool(),
               totals={"A": 15, "C": 15}, permute=False)
    _, _, failure = worker.attempt(op)
    assert failure is None


def test_render_orders_totals_by_header_position():
    net = W.Network(("D", "C", "X", "B", "A"), W.two_pool().reactions)
    assert W.order_totals(net, {"A": 12, "C": 20}) == (20, 12)


def test_traced_and_untraced_reports_agree_and_self_times_add_up():
    ops = _small_ops()
    plain = [worker.attempt(op) for op in ops]
    assert all(failure is None for _, _, failure in plain)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [
            worker.attempt(op, functools.partial(tracer.operation, i, worker.run_operation))
            for i, op in enumerate(ops)
        ]
    finally:
        tracer.uninstall()
    assert [t for _, t, _ in traced] == [t for _, t, _ in plain]
    assert all(failure is None for _, _, failure in traced)

    totals = spans.operation_totals(tracer.spans)
    assert set(totals) == set(range(len(ops)))
    for duration, layers in totals.values():
        assert abs(duration - layers) <= SELF_TIME_REL_TOL * duration + SELF_TIME_ABS_TOL
    own = spans.self_times(tracer.spans)
    assert all(x >= -1e-9 for x in own)


def test_wrappers_catch_internal_calls_and_are_removed():
    tracer = spans.Tracer()
    original = ergocheck.irreducibility.solve_lfp
    tracer.install()
    try:
        assert ergocheck.irreducibility.solve_lfp is not original
        assert ergocheck.network.solve_lfp is ergocheck.irreducibility.solve_lfp
        tracer.operation(0, worker.run_operation, _small_ops()[0])
    finally:
        tracer.uninstall()
    assert ergocheck.irreducibility.solve_lfp is original
    names = {s[1] for s in tracer.spans}
    assert {"report.analyze", "network.parse_network", "report.render_report"} <= names


def test_removed_function_reads_zero(monkeypatch):
    monkeypatch.delattr(ergocheck.irreducibility, "reachability_closure")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = spans.layer_metrics([])
    assert metrics["irreducibility.closure_s"] == 0
    assert all(v == 0 for v in metrics.values())


def test_layer_metrics_nesting():
    # op 0: analyze (0..10) -> check_irreducibility (1..6) -> solve_lfp (2..5)
    #       and analyze -> check_negative_drift (6..9) -> solve_lfp (7..8)
    raw = [
        (0, spans.OP_SPAN, 0.0, 10.0, -1, None),
        (0, "report.analyze", 0.0, 10.0, 0, None),
        (0, "irreducibility.check_irreducibility", 1.0, 6.0, 1, None),
        (0, "lfp.solve_lfp", 2.0, 5.0, 2,
         {"rows": 3, "vars": 2, "feasible": 1, "bits": 3}),
        (0, "drift.check_negative_drift", 6.0, 9.0, 1, None),
        (0, "lfp.solve_lfp", 7.0, 8.0, 4,
         {"rows": 4, "vars": 1, "feasible": 0, "bits": 0}),
    ]
    m = spans.layer_metrics(raw)
    assert m["lfp.solve_s"] == 4.0
    assert m["lfp.calls"] == 2
    assert m["lfp.rows_max"] == 4
    assert m["lfp.feasible_frac"] == 0.5
    assert m["irreducibility.flux_lfp_s"] == 3.0
    assert m["irreducibility.self_s"] == 2.0
    assert m["drift.lfp_s"] == 1.0
    assert m["report.analyze_self_s"] == 2.0


def test_spans_file_is_json_lines(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.operation(0, worker.run_operation, _small_ops()[0])
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert json.loads(lines[0])[0] == 0
