"""Byte-for-byte pins of the `--no-timings` JSON reports of the CLI.

Each file under tests/data/golden holds the stdout of one command, e.g.

    ergocheck analyze tests/data/oscillator.crn --conserved-totals 1,1 \\
        --format json --no-timings > tests/data/golden/analyze_oscillator.json

The reports are exact-only (no oracle), so they hold no floats and do not
depend on the BLAS build.  Refresh a file only for a deliberate change of
the report.
"""

import pytest
from click.testing import CliRunner

from ergocheck.cli import main
from conftest import DATA

GOLDEN = DATA / "golden"

CASES = {
    "analyze_bd": (0, "analyze", "bd.crn"),
    "analyze_pb": (2, "analyze", "pb.crn"),
    "analyze_cascade_open": (1, "analyze", "cascade_open.crn"),
    "analyze_oscillator": (0, "analyze", "oscillator.crn", "--conserved-totals", "1,1"),
    "analyze_switch": (0, "analyze", "switch.crn", "--conserved-totals", "5"),
    "verify_oscillator": (
        0,
        "verify",
        "oscillator.crn",
        str(GOLDEN / "oscillator_witness.json"),
        "--conserved-totals",
        "1,1",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_matches_golden_file(name):
    exit_code, command, network, *rest = CASES[name]
    args = [command, str(DATA / network), *rest, "--format", "json", "--no-timings"]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == exit_code
    assert result.stdout == (GOLDEN / f"{name}.json").read_text()
