"""End-to-end acceptance suite.

Each test prints a single PASS line on success (run with -s or look at
captured output).  Tolerances are stated inline; structural checks are
exact (rational arithmetic, zero tolerance).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from ergocheck import (
    analyze,
    build_drift_system,
    certificate_from_witness,
    check_negative_drift,
    classify_reactions,
    conserved_class_analysis,
    enumerate_conserved_states,
    find_conservation_relations,
    gillespie_simulate,
    hermite_normal_form,
    parse_network,
    propensity,
    reorder_conserved_last,
    solve_lfp,
    stoichiometry_matrix,
    time_average,
    truncated_cme_stationary,
    verify,
    verify_certificate,
    witness_satisfies,
)
from ergocheck.cli import main as cli_main
from ergocheck.irreducibility import closed_classes, reachability_closure
from ergocheck.oracle import batch_means
from helpers import (
    bfs_reachability,
    cascade_text,
    grid_feasible,
    oracle_box_sufficient,
    random_boxed_lfp,
    random_int_matrix,
)
from test_linalg import assert_valid_hnf

OSCILLATOR_WITNESS = (
    2,
    1,
    2,
    1,
    2,
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 2),
)


def _ok(n, message):
    print(f"ACCEPTANCE CRITERION {n}: PASS — {message}")


def test_criterion_1_oscillator_end_to_end(oscillator_text):
    start = time.perf_counter()
    report = analyze(oscillator_text, totals=(1, 1))
    elapsed = time.perf_counter() - start

    assert report.verdict == "PROVEN_ERGODIC"
    rc = report.classification
    # 1-based reaction numbers
    assert tuple(k + 1 for k in rc.unary_unconserved) == (7, 8, 9, 12, 13, 14, 16)
    assert tuple(k + 1 for k in rc.binary) == (1, 3, 15)

    irr = report.irreducibility
    names = lambda levels: tuple(
        frozenset(report.network.species[i] for i in g) for g in levels
    )
    assert names(irr.forward_levels.levels) == (
        frozenset({"S1", "S3"}),
        frozenset({"S2", "S4"}),
        frozenset({"S5"}),
    )
    assert names(irr.inverse_levels.levels) == (
        frozenset({"S1", "S2", "S3", "S4"}),
        frozenset({"S5"}),
    )

    # closed-class structure: one class covering everything when the
    # repressor protein (species 2) is available, else the single closed
    # class is total freedom, (1,0) on each complex pair
    cs = report.conserved
    net = report.network
    with_2 = conserved_class_analysis(net, cs, frozenset({1}))
    assert with_2.num_classes == 1 and with_2.eta == 1
    assert with_2.classes[0] == frozenset(range(cs.n_c))
    without_2 = conserved_class_analysis(net, cs, frozenset({0, 2, 3, 4}))
    (closed,) = [
        c for c, flag in zip(without_2.classes, without_2.closed_flags) if flag
    ]
    assert {tuple(cs.conserved_states[i].tolist()) for i in closed} == {(1, 0, 1, 0)}

    assert elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s"
    _ok(1, f"oscillator proven ergodic with exact structure in {elapsed:.3f}s")


def test_criterion_2_oscillator_witness_verification(oscillator_text):
    report = verify(oscillator_text, OSCILLATOR_WITNESS, totals=(1, 1))
    assert report.verdict == "PROVEN_ERGODIC"
    cert = report.certificate
    ds = report.drift_system
    assert cert.w == tuple(Fraction(x) for x in OSCILLATOR_WITNESS)
    assert ds.a_eq.matvec(cert.w) == (0, 0, 0)
    assert cert.drift_margin == (-1, -1, -1, -1, -1)
    assert all(x > 0 for x in cert.v_positive)
    assert verify_certificate(cert, ds)
    _ok(2, "supplied witness reproduces Av = -1 and positivizes (exact)")


def test_criterion_3_birth_death_oracles(bd_text):
    start = time.perf_counter()
    report = analyze(bd_text)
    assert report.verdict == "PROVEN_ERGODIC"

    # truncated stationary distribution vs Poisson(theta1/theta2), TV <= 1e-8
    for theta1, theta2 in ((1, 1), (2, 1), (1, 3)):
        net = parse_network(f"0 -> S ; {theta1}\nS -> 0 ; {theta2}\n")
        est = truncated_cme_stationary(net, (50,))
        lam = theta1 / theta2
        by_count = {s[0]: p for s, p in zip(est.states, est.probabilities)}
        covered = 0.0
        tv = 0.0
        for k, p in by_count.items():
            q = math.exp(-lam) * lam**k / math.factorial(k)
            tv += abs(p - q)
            covered += q
        tv = (tv + (1.0 - covered)) / 2.0
        assert tv <= 1e-8, f"TV {tv:g} for rates ({theta1},{theta2})"

    # SSA long-run average within 3 batch-means standard errors of 1
    traj = gillespie_simulate(parse_network(bd_text), (0,), 1e5, seed=0)
    mean = time_average(traj)[0]
    _, se = batch_means(traj, 0)
    assert abs(mean - 1.0) <= 3 * se, f"|{mean} - 1| > 3*{se}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"
    _ok(
        3,
        f"Poisson TV <= 1e-8 on [0,50] for three rate pairs; "
        f"SSA mean {mean:.4f} within 3 SE ({se:.4f}) in {elapsed:.1f}s",
    )


def test_criterion_4_negative_controls(pb_text, cascade_open_text, tmp_path):
    assert analyze(pb_text).verdict == "IRREDUCIBILITY_DISPROVEN"

    report = analyze(cascade_open_text)
    assert report.verdict == "INCONCLUSIVE"
    assert report.irreducibility.failed_condition == "forward-exhaustive"

    tri = tmp_path / "tri.crn"
    tri.write_text("3*A -> 0 ; 1\n0 -> A ; 1\n")
    assert analyze(tri.read_text()).verdict == "UNSUPPORTED"
    result = CliRunner().invoke(cli_main, ["analyze", str(tri)])
    assert result.exit_code == 4
    _ok(4, "pure birth disproven, stalled autocatalysis inconclusive, order-3 exits 4")


def test_criterion_5a_hnf_properties():
    rng = random.Random(20250826)
    for _ in range(1000):
        m = random_int_matrix(rng, max_rows=6, max_cols=8)
        assert_valid_hnf(m, hermite_normal_form(m))
    _ok(5, "(a) 1000 random HNFs satisfy M*U=H, |det U|=1, canonical lattice")


def test_criterion_5b_lfp_grid_oracle():
    rng = random.Random(7771)
    checked = feas = 0
    while checked < 500:
        p = random_boxed_lfp(rng)
        if not oracle_box_sufficient(p):
            continue
        expected = grid_feasible(p)
        out = solve_lfp(p)
        assert (out.status == "feasible") == (expected is not None)
        if expected is not None:
            assert witness_satisfies(p, out.witness)
            feas += 1
        checked += 1
    # degenerate / tie-heavy regression instances (see test_lfp for more)
    from ergocheck import LfpProblem

    cyc = LfpProblem.build(
        [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -1}],
        [0, 0, 0],
        [{0: 1, 1: 1, 2: 1}],
        [0],
        3,
    )
    assert solve_lfp(cyc).status == "feasible"
    _ok(5, f"(b) 500 grid-oracle instances agree ({feas} feasible); cycling set OK")


def _digraphs(rng):
    """504 random 0/1 adjacency matrices, n up to 300."""
    graphs = []
    for _ in range(500):
        n = rng.randint(1, 12)
        graphs.append(
            [[1 if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
        )
    for n in (256, 300):  # past the old uint8 wrap: complete and sparse
        graphs.append([[1] * n for _ in range(n)])
        graphs.append(
            [[1 if rng.random() < 0.01 else 0 for _ in range(n)] for _ in range(n)]
        )
    return graphs


def test_criterion_5c_reachability_vs_bfs():
    graphs = _digraphs(random.Random(31337))
    for z in graphs:
        got = reachability_closure(z)
        assert [[int(v) for v in row] for row in got] == bfs_reachability(z)
    _ok(
        5,
        f"(c) boolean matrix-power reachability equals BFS on {len(graphs)}"
        " digraphs, n up to 300",
    )


def test_criterion_5c_closed_classes_vs_bfs():
    rng = random.Random(31337)
    graphs = _digraphs(rng)
    for z in graphs:
        adj = np.array(z, dtype=bool).reshape(len(z), len(z))
        src, dst = np.nonzero(adj)
        # a third of the edges repeated, as per-reaction edge lists can
        again = rng.sample(range(len(src)), len(src) // 3)
        labels, closed = closed_classes(
            len(z), np.concatenate([src, src[again]]), np.concatenate([dst, dst[again]])
        )
        reach = np.array(bfs_reachability(z), dtype=bool)
        assert ((labels[:, None] == labels[None, :]) == (reach & reach.T)).all()
        for c, flag in enumerate(closed):
            inside = labels == c
            assert flag == (not adj[np.ix_(inside, ~inside)].any())
    _ok(
        5,
        f"(c) strong components and closed classes equal BFS on {len(graphs)}"
        " digraphs with repeated edges, n up to 300",
    )


def test_criterion_5d_certificate_cone(bd_text, oscillator_text):
    certified = []
    net = parse_network(bd_text)
    ds = build_drift_system(classify_reactions(net), net)
    certified.append((check_negative_drift(ds), ds, None))

    net = parse_network(oscillator_text)
    gammas = find_conservation_relations(stoichiometry_matrix(net))
    net, cs = reorder_conserved_last(net, gammas)
    cs = enumerate_conserved_states(cs, (1, 1))
    ds = build_drift_system(classify_reactions(net, cs), net, cs)
    certified.append((check_negative_drift(ds, cs), ds, cs))

    net = parse_network(cascade_text(8))
    ds = build_drift_system(classify_reactions(net), net)
    certified.append((check_negative_drift(ds), ds, None))

    for cert, ds, cs in certified:
        assert cert is not None
        for c in (2, 3, Fraction(7, 2)):
            scaled = certificate_from_witness(
                tuple(c * x for x in cert.w), ds, cs
            )
            assert verify_certificate(scaled, ds)
    _ok(5, "(d) every accepted certificate stays valid under c in {2,3,7/2}")


def test_criterion_5e_conservation_constancy(oscillator_text):
    nets = [
        (oscillator_text, (0, 0, 0, 0, 0, 0, 1, 1, 0)),
        ("A -> B ; 1\nB -> A ; 2\n", (4, 1)),
        ("species: A B C\n0 -> A ; 1\nA -> 0 ; 1\nA + B -> C ; 1\nC -> B ; 1\n", (2, 3, 1)),
    ]
    for text, x0 in nets:
        net = parse_network(text)
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        assert gammas
        for seed in range(5):
            traj = gillespie_simulate(net, x0, 40.0, seed=seed)
            for gamma in gammas:
                ref = sum(g * x for g, x in zip(gamma, x0))
                assert all(
                    sum(g * x for g, x in zip(gamma, s)) == ref
                    for s in traj.states.tolist()
                )
    _ok(5, "(e) gamma . X(t) constant along every sampled trajectory (exact)")


def test_criterion_6_drift_inequality_pointwise(bd_text):
    net = parse_network(bd_text)
    ds = build_drift_system(classify_reactions(net), net)
    cert = check_negative_drift(ds)
    v = cert.v_positive[0]
    theta1 = net.reactions[0].rate
    theta2 = net.reactions[1].rate
    c1 = theta1 * v
    c2 = theta2
    for x in range(201):
        state = (x,)
        drift = sum(
            propensity(net, k, state)
            * v
            * net.reactions[k].displacement[0]
            for k in range(net.num_reactions)
        )
        assert drift <= c1 - c2 * (v * x)  # exact rational comparison
    _ok(6, "generator drift <= c1 - c2*V(x) for all x in [0,200] (exact)")


def test_criterion_7_scale_smoke():
    text = cascade_text(500)
    net = parse_network(text)
    assert net.num_species == 500 and net.num_reactions == 1500
    start = time.perf_counter()
    report = analyze(text)
    elapsed = time.perf_counter() - start
    assert report.verdict == "PROVEN_ERGODIC"
    assert verify_certificate(report.certificate, report.drift_system)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"
    _ok(7, f"d=500 / K=1500 cascade proven ergodic in {elapsed:.1f}s")
