import json
from fractions import Fraction

import pytest

import ergocheck.drift as drift_mod
from ergocheck import (
    InternalCheckFailed,
    MissingTotals,
    WitnessRejected,
    analyze,
    render_report,
    verify,
)
from ergocheck.oracle import CME_STATES_HIGH_DIM
from helpers import cascade_text


class TestVerdictMapping:
    def test_golden_verdicts(self, bd_text, pb_text, oscillator_text, cascade_open_text):
        assert analyze(bd_text).verdict == "PROVEN_ERGODIC"
        assert analyze(pb_text).verdict == "IRREDUCIBILITY_DISPROVEN"
        assert analyze(oscillator_text, totals=(1, 1)).verdict == "PROVEN_ERGODIC"
        assert analyze(cascade_open_text).verdict == "INCONCLUSIVE"

    def test_drift_infeasible_is_inconclusive(self):
        # irreducible but the linear drift condition cannot hold: the
        # positive-flux witness forces production to balance degradation,
        # yet 0 -> 2S doubles the A-row weight of the source
        text = "0 -> S ; 1\nS -> 2*S ; 2\nS -> 0 ; 1\n"
        report = analyze(text)
        assert report.irreducibility.status == "IRREDUCIBLE_PROVEN"
        assert report.verdict == "INCONCLUSIVE"
        assert report.drift_status == "infeasible"

    def test_unsupported_order_reports_reaction(self):
        report = analyze("0 -> A ; 1\n3*A -> 0 ; 1\n")
        assert report.verdict == "UNSUPPORTED"
        assert "2" in report.unsupported_reason  # second reaction

    def test_unsupported_overlapping_conservation(self):
        report = analyze("A + C -> 2*B ; 1\n2*B -> A + C ; 1\n", totals=(1,))
        assert report.verdict == "UNSUPPORTED"
        assert "overlap" in report.unsupported_reason

    def test_missing_totals_names_relations(self, oscillator_text):
        with pytest.raises(MissingTotals) as exc:
            analyze(oscillator_text)
        assert "S6" in str(exc.value)

    def test_weighted_relation_is_printed_with_coefficients(self):
        text = "2*A -> 3*B ; 1\n0 -> X ; 1\nX -> 0 ; 1\n"
        message = (
            "conservation relations detected, supply --conserved-totals for: 3*A+2*B"
        )
        with pytest.raises(MissingTotals) as exc:
            analyze(text)
        assert str(exc.value) == message
        human = render_report(analyze(text, totals=(6,)), include_timings=False)
        assert "\nconserved: 3*A+2*B = 6\n" in human

    def test_totals_without_relations_are_rejected(self, bd_text):
        with pytest.raises(MissingTotals, match="expected 0 conserved totals, got 1$"):
            analyze(bd_text, totals=(5,))
        assert analyze(bd_text, totals=()).verdict == "PROVEN_ERGODIC"

    def test_bad_witness_raises(self, oscillator_text):
        with pytest.raises(WitnessRejected):
            verify(oscillator_text, (0,) * 9, totals=(1, 1))

    def test_lifted_witness_failing_its_recheck_raises(
        self, oscillator_text, monkeypatch
    ):
        half = Fraction(1, 2)
        witness = (2, 1, 2, 1, 2, -half, half, -half, half)
        assert verify(oscillator_text, witness, totals=(1, 1)).verdict == "PROVEN_ERGODIC"
        monkeypatch.setattr(
            drift_mod, "_positivize", lambda w, cs: ((Fraction(0),) * len(w), ())
        )
        with pytest.raises(InternalCheckFailed):
            verify(oscillator_text, witness, totals=(1, 1))


class TestOracleModes:
    def test_ssa_attaches_runs(self, oscillator_text):
        report = analyze(oscillator_text, totals=(1, 1), oracle="ssa", seed=3)
        assert report.oracle["mode"] == "ssa"
        assert report.oracle["conservation_constant"]
        assert len(report.oracle["runs"]) == 2
        for run in report.oracle["runs"]:
            assert run["jumps"] > 0
            assert len(run["time_averages"]) == 9

    def test_cme_matches_the_proof(self, bd_text):
        report = analyze(bd_text, oracle="cme")
        assert report.oracle["mode"] == "cme"
        assert report.oracle["interior_strongly_connected"]
        assert report.oracle["stationary_means"][0] == pytest.approx(1.0, abs=1e-6)

    def test_cme_box_is_the_largest_cube_within_the_budget(self):
        # 16**3 is exactly the budget; its float cube root is 15.999...
        report = analyze(cascade_text(3), oracle="cme")
        assert report.oracle["box"] == [15, 15, 15]
        assert 16**3 <= CME_STATES_HIGH_DIM < 17**3

    def test_cme_flags_disagreement_with_disproof(self, pb_text):
        report = analyze(pb_text, oracle="cme")
        assert report.verdict == "IRREDUCIBILITY_DISPROVEN"
        assert not report.oracle["interior_strongly_connected"]


class TestRendering:
    def test_json_round_trip_identity(self, oscillator_text):
        report = analyze(oscillator_text, totals=(1, 1))
        blob = render_report(report, fmt="json", include_timings=False)
        data = json.loads(blob)
        assert json.dumps(data, sort_keys=True, indent=2) + "\n" == blob

    def test_timings_toggle(self, bd_text):
        report = analyze(bd_text)
        with_t = json.loads(render_report(report, fmt="json"))
        without = json.loads(render_report(report, fmt="json", include_timings=False))
        assert "timings" in with_t
        assert "timings" not in without

    def test_human_mentions_verdict_and_certificate(self, oscillator_text):
        report = analyze(oscillator_text, totals=(1, 1))
        text = render_report(report, fmt="human")
        assert "PROVEN_ERGODIC" in text
        assert "levels: G1={S1,S3} G2={S2,S4} G3={S5}" in text
