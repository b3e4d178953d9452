import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

import ergocheck.drift as drift_mod
from ergocheck.cli import EXIT_CODES, INTERNAL_ERROR_EXIT, main
from conftest import DATA
from helpers import cascade_text


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestExitCodes:
    def test_proven(self, runner):
        result = run(runner, "analyze", str(DATA / "bd.crn"))
        assert result.exit_code == 0
        assert "PROVEN_ERGODIC" in result.output

    def test_disproven(self, runner):
        result = run(runner, "analyze", str(DATA / "pb.crn"))
        assert result.exit_code == 2
        assert "IRREDUCIBILITY_DISPROVEN" in result.output

    def test_inconclusive(self, runner):
        result = run(runner, "analyze", str(DATA / "cascade_open.crn"))
        assert result.exit_code == 1
        assert "INCONCLUSIVE" in result.output

    def test_unsupported_order(self, runner, tmp_path):
        p = tmp_path / "tri.crn"
        p.write_text("3*A -> 0 ; 1\n0 -> A ; 1\n")
        result = run(runner, "analyze", str(p))
        assert result.exit_code == 4
        assert "UNSUPPORTED" in result.output

    def test_singular_cme_box_is_recorded_in_the_report(self, runner, tmp_path):
        p = tmp_path / "s.crn"
        args = ("--oracle", "cme", "--format", "json", "--no-timings")
        for text, verdict in (
            # two absorbing species: several absorbing states on the box
            ("2*A -> 0 ; 1\n2*B -> 0 ; 1\n", "IRREDUCIBILITY_DISPROVEN"),
            # parity kept by paired births and deaths: two closed classes
            ("0 -> 2*S ; 1\n2*S -> 0 ; 1\n", "IRREDUCIBILITY_DISPROVEN"),
            ((DATA / "cascade_open.crn").read_text(), "INCONCLUSIVE"),
        ):
            p.write_text(text)
            result = run(runner, "analyze", str(p), *args)
            data = json.loads(result.stdout)
            assert data["verdict"] == verdict
            assert result.exit_code == EXIT_CODES[verdict]
            assert data["oracle"] == {
                "mode": "cme",
                "error": "stationary system is singular on this box",
            }
            assert result.stderr == ""

    def test_propensity_overflow_is_recorded_in_the_report(self, runner, tmp_path):
        p = tmp_path / "fast.crn"
        huge = "0 -> S ; 1e400\nS -> 0 ; 1e400\n"  # beyond the float range
        tiny = "0 -> S ; 1e-400\nS -> 0 ; 1\n"  # below it: not a rate of 0.0
        # a conserved catalyst of 10**400 molecules, and a rare jump that
        # makes 10**400 molecules mid-run: neither count fits a float
        big = str(10**400)
        catalyst = "0 -> X ; 1\nX -> 0 ; 1\nA -> A + X ; 1\n"
        jump = f"0 -> S ; 1\nS -> 0 ; 1\n0 -> {big}*S ; 1/100\n"
        count = "a species count exceeds the float range"
        for text, mode, error, *totals in (
            (
                "0 -> S ; 10000000000000000\nS -> 0 ; 1\n",
                "ssa",
                "total rate 1e+16 exceeds guard",
            ),
            (huge, "ssa", "rate of reaction 1 exceeds the float range"),
            (huge, "cme", "rate of reaction 1 exceeds the float range"),
            (tiny, "ssa", "rate of reaction 1 is below the float range"),
            (tiny, "cme", "rate of reaction 1 is below the float range"),
            (catalyst, "ssa", count, "--conserved-totals", big),
            (catalyst, "cme", count, "--conserved-totals", big),
            (jump, "ssa", count),
        ):
            p.write_text(text)
            args = ("--oracle", mode, "--format", "json", "--no-timings")
            result = run(runner, "analyze", str(p), *totals, *args)
            assert result.exit_code == 0
            data = json.loads(result.stdout)
            assert data["verdict"] == "PROVEN_ERGODIC"
            assert data["oracle"] == {"mode": mode, "error": error}
            assert result.stderr == ""

    def test_ssa_without_species_is_skipped(self, runner, tmp_path):
        p = tmp_path / "empty.crn"
        p.write_text("0 -> 0 ; 1\n")
        args = ("--oracle", "ssa", "--format", "json", "--no-timings")
        result = run(runner, "analyze", str(p), *args)
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["verdict"] == "PROVEN_ERGODIC"
        assert data["oracle"] == {"mode": "ssa", "skipped": "no species"}

    def test_empty_conserved_set_is_skipped(self, runner, tmp_path):
        # 3A + 2B = 1 has no state: the disproof stands and neither oracle runs
        p = tmp_path / "empty.crn"
        p.write_text("2*A -> 3*B ; 1\n0 -> X ; 1\nX -> 0 ; 1\n")
        for mode in ("ssa", "cme"):
            args = ("--conserved-totals", "1", "--oracle", mode, "--format", "json")
            result = run(runner, "analyze", str(p), *args)
            assert result.exit_code == 2
            data = json.loads(result.stdout)
            assert data["verdict"] == "IRREDUCIBILITY_DISPROVEN"
            assert data["network"]["n_c"] == 0
            assert data["oracle"] == {
                "mode": mode,
                "skipped": "no conserved state matches the totals",
            }

    def test_cme_box_beyond_the_budget_is_skipped_quickly(self, runner, tmp_path):
        # 3**8 states exceed the 4,096-state budget, and a box of 2 states a
        # side is too small to tell anything: no box is built
        for d in (8, 12, 13):
            p = tmp_path / f"c{d}.crn"
            p.write_text(cascade_text(d))
            start = time.perf_counter()
            result = run(runner, "analyze", str(p), "--oracle", "cme", "--format", "json")
            assert time.perf_counter() - start < 1.0
            assert result.exit_code == 0
            assert json.loads(result.stdout)["oracle"] == {
                "mode": "cme",
                "skipped": "state budget too small",
            }

    def test_missing_file(self, runner, tmp_path):
        result = run(runner, "analyze", str(tmp_path / "nope.crn"))
        assert result.exit_code == 3

    def test_parse_error(self, runner, tmp_path):
        p = tmp_path / "bad.crn"
        p.write_text("A -> ; 1\n")
        result = run(runner, "analyze", str(p))
        assert result.exit_code == 3
        assert "line" in result.stderr

    def test_conserved_without_totals(self, runner):
        result = run(runner, "analyze", str(DATA / "oscillator.crn"))
        assert result.exit_code == 3
        assert "totals" in result.stderr.lower()

    def test_totals_without_relations(self, runner):
        result = run(
            runner, "analyze", str(DATA / "bd.crn"), "--conserved-totals", "5"
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "expected 0 conserved totals, got 1" in result.stderr

    def test_conserved_chain_past_256_states_is_proven(self, runner, tmp_path):
        p = tmp_path / "switch.crn"
        p.write_text("0 -> X ; 1\nX -> 0 ; 1\nA + X -> B + X ; 1\nB -> A ; 1\n")
        result = run(runner, "analyze", str(p), "--conserved-totals", "513")
        assert result.exit_code == 0
        assert "PROVEN_ERGODIC" in result.output

    def test_oscillator_with_totals(self, runner):
        result = run(
            runner, "analyze", str(DATA / "oscillator.crn"), "--conserved-totals", "1,1"
        )
        assert result.exit_code == 0


class TestJsonOutput:
    def test_deterministic_and_round_trips(self, runner):
        args = [
            "analyze",
            str(DATA / "oscillator.crn"),
            "--conserved-totals",
            "1,1",
            "--format",
            "json",
            "--no-timings",
        ]
        first = run(runner, *args).output
        second = run(runner, *args).output
        assert first == second
        data = json.loads(first)
        assert json.dumps(data, sort_keys=True, indent=2) + "\n" == first
        assert data["verdict"] == "PROVEN_ERGODIC"
        assert data["drift"]["status"] == "certified"
        assert data["drift"]["k_unr"] == [7, 8, 9, 12, 13, 14, 16]
        assert data["drift"]["k_bin"] == [1, 3, 15]

    def test_rationals_as_fraction_strings(self, runner, tmp_path):
        w = tmp_path / "w.json"
        w.write_text(json.dumps(["2", "1", "2", "1", "2", "-1/2", "1/2", "-1/2", "1/2"]))
        result = run(
            runner,
            "verify",
            str(DATA / "oscillator.crn"),
            str(w),
            "--conserved-totals",
            "1,1",
            "--format",
            "json",
            "--no-timings",
        )
        data = json.loads(result.output)
        entries = data["drift"]["lyapunov_vector"]
        assert all(isinstance(e, str) for e in entries)
        assert "1/2" in entries and "3/2" in entries
        assert data["drift"]["witness"][5] == "-1/2"

    def test_sha_matches_input(self, runner):
        import hashlib

        result = run(
            runner, "analyze", str(DATA / "bd.crn"), "--format", "json", "--no-timings"
        )
        data = json.loads(result.output)
        expected = hashlib.sha256((DATA / "bd.crn").read_bytes()).hexdigest()
        assert data["input_sha256"] == expected


class TestHumanOutput:
    def test_oscillator_levels_line(self, runner):
        result = run(
            runner, "analyze", str(DATA / "oscillator.crn"), "--conserved-totals", "1,1"
        )
        assert "  levels: G1={S1,S3} G2={S2,S4} G3={S5}" in result.output

    def test_disproof_names_the_condition(self, runner):
        result = run(runner, "analyze", str(DATA / "pb.crn"))
        assert "lfp" in result.output.lower()


class TestVerify:
    def witness_file(self, tmp_path, payload):
        p = tmp_path / "w.json"
        p.write_text(json.dumps(payload))
        return str(p)

    OSC_W = ["2", "1", "2", "1", "2", "-1/2", "1/2", "-1/2", "1/2"]

    def test_good_witness(self, runner, tmp_path):
        w = self.witness_file(tmp_path, self.OSC_W)
        result = run(
            runner,
            "verify",
            str(DATA / "oscillator.crn"),
            w,
            "--conserved-totals",
            "1,1",
        )
        assert result.exit_code == 0
        assert "PROVEN_ERGODIC" in result.output

    def test_wrapped_witness_object(self, runner, tmp_path):
        w = self.witness_file(tmp_path, {"v": self.OSC_W})
        result = run(
            runner,
            "verify",
            str(DATA / "oscillator.crn"),
            w,
            "--conserved-totals",
            "1,1",
        )
        assert result.exit_code == 0

    def test_bad_witness_names_constraint(self, runner, tmp_path):
        w = self.witness_file(tmp_path, ["0"] * 9)
        result = run(
            runner,
            "verify",
            str(DATA / "oscillator.crn"),
            w,
            "--conserved-totals",
            "1,1",
        )
        assert result.exit_code == 1
        assert "B-block" in result.stderr

    def test_malformed_witness_json(self, runner, tmp_path):
        p = tmp_path / "w.json"
        for payload, message in [
            ("{not json", "cannot read witness file"),
            ('{"w": [1]}', "witness JSON must be a list"),  # neither form
            ('["1/0"]', "bad witness entry"),
        ]:
            p.write_text(payload)
            result = run(
                runner,
                "verify",
                str(DATA / "oscillator.crn"),
                str(p),
                "--conserved-totals",
                "1,1",
            )
            assert result.exit_code == 3
            assert message in result.stderr
            assert result.stdout == ""

    def test_analyze_witness_option_matches_verify(self, runner, tmp_path):
        w = self.witness_file(tmp_path, self.OSC_W)
        common = [str(DATA / "oscillator.crn"), "--conserved-totals", "1,1",
                  "--format", "json", "--no-timings"]
        via_verify = run(runner, "verify", common[0], w, *common[1:]).output
        via_analyze = run(runner, "analyze", *common, "--witness", w).output
        assert via_verify == via_analyze

    def test_lifted_witness_failing_its_recheck_exits_5(
        self, runner, tmp_path, monkeypatch
    ):
        w = self.witness_file(tmp_path, self.OSC_W)
        monkeypatch.setattr(
            drift_mod, "_positivize", lambda w, cs: ((Fraction(0),) * len(w), ())
        )
        result = run(
            runner, "verify", str(DATA / "oscillator.crn"), w, "--conserved-totals", "1,1"
        )
        assert result.exit_code == INTERNAL_ERROR_EXIT
        assert result.stdout == ""
        assert "internal check failed" in result.stderr


class TestStateBoundOverride:
    def test_env_variable_limits_enumeration(self, runner):
        result = run(
            runner,
            "analyze",
            str(DATA / "oscillator.crn"),
            "--conserved-totals",
            "1000,1000",
            env={"ERGOCHECK_MAX_STATES": "100"},
        )
        assert result.exit_code == 3

    def test_env_variable_bounds_ssa_jumps(self, runner, tmp_path):
        p = tmp_path / "fast.crn"
        p.write_text("0 -> S ; 1000\nS -> 0 ; 1\n")
        start = time.perf_counter()
        result = run(
            runner,
            "analyze",
            str(p),
            "--oracle",
            "ssa",
            "--format",
            "json",
            env={"ERGOCHECK_MAX_STATES": "10000"},
        )
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0  # the verdict's code: the proof stands
        oracle = json.loads(result.stdout)["oracle"]
        assert oracle["mode"] == "ssa"
        assert "jumps" in oracle["error"]

    def test_bad_env_value(self, runner):
        result = run(
            runner,
            "analyze",
            str(DATA / "bd.crn"),
            env={"ERGOCHECK_MAX_STATES": "lots"},
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("bound", ["-5", "0"])
    def test_bound_below_one_is_an_input_error(self, runner, monkeypatch, bound):
        monkeypatch.setattr("ergocheck.cli.analyze", never_called)
        result = run(
            runner,
            "analyze",
            str(DATA / "bd.crn"),
            "--oracle",
            "ssa",
            env={"ERGOCHECK_MAX_STATES": bound},
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert f"ERGOCHECK_MAX_STATES value '{bound}'" in result.stderr


def never_called(*args, **kwargs):
    raise AssertionError("the analysis ran on rejected input")


class TestUsageErrors:
    """Click's usage errors exit with the input-error code, 3, not click's
    own 2, which is IRREDUCIBILITY_DISPROVEN's; nothing goes to stdout."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--format", "xml"), "Invalid value for '--format'"),
            (("--seed", "abc"), "Invalid value for '--seed'"),
            (("--oracle", "ssa", "--seed", "-1"), "Invalid value for '--seed'"),
            (("--conserved-totals", "1,x"), "bad --conserved-totals value '1,x'"),
        ],
    )
    def test_bad_option_value(self, runner, monkeypatch, args, message):
        monkeypatch.setattr("ergocheck.cli.analyze", never_called)
        result = run(runner, "analyze", str(DATA / "bd.crn"), *args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert message in result.stderr

    def test_missing_path(self, runner):
        result = run(runner, "analyze")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "Missing argument 'PATH'" in result.stderr

    def test_unknown_command_and_option(self, runner):
        for args in (("lint",), ("--verbose", "analyze")):
            result = run(runner, *args)
            assert result.exit_code == 3
            assert result.stdout == ""
            assert "No such" in result.stderr

    @pytest.mark.parametrize("args", [("--help",), ("analyze", "--help"), ("--version",)])
    def test_help_and_version_exit_zero(self, runner, args):
        result = run(runner, *args)
        assert result.exit_code == 0
        assert result.stdout


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Run the CLI under python -O with the simplex witness corrupted: the
# exact re-check must still refuse it, although -O strips every assert.
CORRUPTED_WITNESS_RUN = textwrap.dedent(
    """
    import sys
    import ergocheck.lfp as lfp
    from ergocheck.cli import main

    if __debug__:
        sys.exit("not running under python -O")
    solution = lfp._basic_solution
    lfp._basic_solution = lambda *a: (solution(*a)[0] + 1,) + solution(*a)[1:]
    main(["analyze", sys.argv[1], "--format", "json"])
    """
)


def test_corrupted_flux_witness_is_caught_under_optimize():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_WITNESS_RUN, str(DATA / "bd.crn")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == INTERNAL_ERROR_EXIT, proc.stderr
    assert proc.stdout == ""
    assert "internal check failed" in proc.stderr
