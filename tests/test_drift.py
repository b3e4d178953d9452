import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ergocheck import (
    UnsupportedReactionOrder,
    WitnessRejected,
    analyze,
    build_drift_system,
    certificate_from_witness,
    check_negative_drift,
    classify_reactions,
    enumerate_conserved_states,
    find_conservation_relations,
    parse_network,
    reorder_conserved_last,
    stoichiometry_matrix,
    verify,
    verify_certificate,
)
from helpers import random_network_text

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


def oscillator_system(oscillator_text):
    net = parse_network(oscillator_text)
    gammas = find_conservation_relations(stoichiometry_matrix(net))
    net, cs = reorder_conserved_last(net, gammas)
    cs = enumerate_conserved_states(cs, (1, 1))
    rc = classify_reactions(net, cs)
    return build_drift_system(rc, net, cs), rc, cs


class TestClassification:
    def test_birth_death(self, bd_text):
        rc = classify_reactions(parse_network(bd_text))
        assert rc.unary_unconserved == (1,)
        assert rc.binary == ()
        assert rc.remainder == (0,)
        assert rc.unit_vectors == {1: 0}

    def test_oscillator(self, oscillator_text):
        _, rc, _ = oscillator_system(oscillator_text)
        assert rc.unary_unconserved == (6, 7, 8, 11, 12, 13, 15)
        assert rc.binary == (0, 2, 14)
        assert set(rc.remainder) == {1, 3, 4, 5, 9, 10}
        assert rc.unit_vectors == {6: 0, 7: 0, 8: 1, 11: 2, 12: 2, 13: 3, 15: 4}

    def test_partition_property(self):
        rng = random.Random(17)
        for _ in range(60):
            net = parse_network(random_network_text(rng))
            rc = classify_reactions(net)
            groups = (rc.unary_unconserved, rc.binary, rc.remainder)
            merged = sorted(k for g in groups for k in g)
            assert merged == list(range(net.num_reactions))
            for k in rc.binary:
                assert net.reactions[k].order == 2

    def test_conserved_unary_goes_to_remainder(self):
        net = parse_network("species: A B C\nB -> C ; 1\nC -> B ; 1\n0 -> A ; 1\nA -> 0 ; 1\n")
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        net, cs = reorder_conserved_last(net, gammas)
        rc = classify_reactions(net, cs)
        assert rc.unary_unconserved == (3,)
        assert set(rc.remainder) == {0, 1, 2}

    def test_order_three_rejected(self):
        net = parse_network("3*A -> 0 ; 1\n")
        with pytest.raises(UnsupportedReactionOrder) as exc:
            classify_reactions(net)
        assert "1" in str(exc.value)  # reactions are numbered from 1


class TestDriftMatrix:
    def test_birth_death(self, bd_text):
        net = parse_network(bd_text)
        ds = build_drift_system(classify_reactions(net), net)
        assert ds.a.to_dense() == [[-1]]
        assert ds.a_eq.nrows == 0
        assert ds.lower == (1,)  # v_u >= 1, the [-I | 0] block

    def test_rates_weight_the_rows(self):
        net = parse_network("species: A B\nA -> B ; 3\nB -> 0 ; 1/2\n0 -> A ; 1\n")
        ds = build_drift_system(classify_reactions(net), net)
        assert ds.a.to_dense() == [
            [-3, 3],
            [0, Fraction(-1, 2)],
        ]

    def test_oscillator_geometry(self, oscillator_text):
        ds, rc, _ = oscillator_system(oscillator_text)
        assert (ds.a.nrows, ds.a.ncols) == (5, 9)
        assert (ds.a_eq.nrows, ds.a_eq.ncols) == (3, 9)
        # v_u >= 1 on the 5 unconserved species; the conserved ones are free
        assert ds.lower == (1,) * 5 + (None,) * 4
        # binary rows in ascending reaction order
        row0 = [ds.a_eq.rows[0].get(i, 0) for i in range(9)]
        assert row0 == [0, -1, 0, 0, 0, -1, 1, 0, 0]


class TestSolveAndVerify:
    def test_birth_death_certified(self, bd_text):
        net = parse_network(bd_text)
        ds = build_drift_system(classify_reactions(net), net)
        cert = check_negative_drift(ds)
        assert cert is not None
        assert verify_certificate(cert, ds)
        assert all(m <= -1 for m in cert.drift_margin)

    def test_pure_birth_infeasible(self, pb_text):
        net = parse_network(pb_text)
        ds = build_drift_system(classify_reactions(net), net)
        assert check_negative_drift(ds) is None

    def test_oscillator_certified_with_positivization(self, oscillator_text):
        ds, _, cs = oscillator_system(oscillator_text)
        cert = check_negative_drift(ds, cs)
        assert cert is not None
        assert verify_certificate(cert, ds)
        assert all(x > 0 for x in cert.v_positive)
        # v differs from w only on conserved coordinates
        assert cert.w[:5] == cert.v_positive[:5]

    def test_known_oscillator_witness_accepted(self, oscillator_text):
        ds, _, cs = oscillator_system(oscillator_text)
        cert = certificate_from_witness(OSCILLATOR_WITNESS, ds, cs)
        assert cert.drift_margin == (-1, -1, -1, -1, -1)
        assert cert.alphas == (1, 1)
        assert cert.v_positive == (
            2,
            1,
            2,
            1,
            2,
            Fraction(1, 2),
            Fraction(3, 2),
            Fraction(1, 2),
            Fraction(3, 2),
        )
        assert verify_certificate(cert, ds)

    def test_witness_scaling_cone_property(self, oscillator_text):
        # any strictly feasible witness stays feasible under scaling by c >= 1
        ds, _, cs = oscillator_system(oscillator_text)
        for c in (2, 3, Fraction(7, 2)):
            scaled = tuple(c * x for x in OSCILLATOR_WITNESS)
            cert = certificate_from_witness(scaled, ds, cs)
            assert verify_certificate(cert, ds)

    def test_bad_witnesses_rejected_with_reason(self, oscillator_text):
        ds, _, cs = oscillator_system(oscillator_text)
        cases = [
            ((0,) * 9, "B-block"),
            (OSCILLATOR_WITNESS[:5], "dimension"),
            # break the binary orthogonality by shifting a complex entry
            (OSCILLATOR_WITNESS[:6] + (1,) + OSCILLATOR_WITNESS[7:], "binary-equality"),
            # flip the sign of a degradation-dominated coordinate
            ((2, 1, 2, 1, -2) + OSCILLATOR_WITNESS[5:], "B-block"),
        ]
        for w, expected in cases:
            with pytest.raises(WitnessRejected) as exc:
                certificate_from_witness(w, ds, cs)
            assert expected in str(exc.value)

    def test_a_block_violation_detected(self, bd_text):
        net = parse_network(bd_text)
        ds = build_drift_system(classify_reactions(net), net)
        # w = (1): Aw = -1 is fine; w must fail only when A-row goes slack
        net2 = parse_network("0 -> S ; 1\nS -> 2*S ; 1\n")
        ds2 = build_drift_system(classify_reactions(net2), net2)
        with pytest.raises(WitnessRejected) as exc:
            certificate_from_witness((1,), ds2)
        assert "A-block" in str(exc.value)
        assert certificate_from_witness((1,), ds) is not None

    def test_binary_orthogonality_holds_on_certificates(self, oscillator_text):
        ds, _, cs = oscillator_system(oscillator_text)
        cert = check_negative_drift(ds, cs)
        assert ds.a_eq.matvec(cert.v_positive) == (0, 0, 0)


def _with_entry(vec, i, x):
    return vec[:i] + (Fraction(x),) + vec[i + 1 :]


def certificate_mutants(cert, gamma):
    """Copies of `cert` that each break one certificate condition; `gamma`
    is a conservation vector whose first support entry is index 5."""
    w, v, margin = cert.w, cert.v_positive, cert.drift_margin
    return {
        "unconserved w entry below 1": replace(cert, w=_with_entry(w, 0, Fraction(1, 2))),
        "w off a binary equality": replace(cert, w=_with_entry(w, 6, w[6] + 1)),
        "v off a binary equality": replace(cert, v_positive=_with_entry(v, 6, v[6] + 1)),
        "v entry set to 0": replace(cert, v_positive=_with_entry(v, 5, 0)),
        # moved along gamma: still a point of the problem, only v > 0 fails
        "v entry at 0 along gamma": replace(
            cert, v_positive=tuple(x - v[5] * g for x, g in zip(v, gamma))
        ),
        "drift_margin entry changed": replace(
            cert, drift_margin=_with_entry(margin, 0, margin[0] - 1)
        ),
    }


@pytest.mark.parametrize("source", ["analyze", "verify"])
def test_verify_certificate_rejects_every_mutant(oscillator_text, source):
    if source == "analyze":
        report = analyze(oscillator_text, totals=(1, 1))
    else:
        report = verify(oscillator_text, OSCILLATOR_WITNESS, totals=(1, 1))
    cert, ds = report.certificate, report.drift_system
    gamma = report.conserved.gammas[0]
    assert gamma.index(1) == 5
    assert verify_certificate(cert, ds)
    for name, mutant in certificate_mutants(cert, gamma).items():
        assert not verify_certificate(mutant, ds), name
