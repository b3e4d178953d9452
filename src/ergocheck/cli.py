"""Command-line interface.

Exit codes: 0 PROVEN_ERGODIC, 1 INCONCLUSIVE, 2 IRREDUCIBILITY_DISPROVEN,
3 parse/input error, 4 UNSUPPORTED, 5 internal self-check failed (no
report is printed).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from fractions import Fraction

import click

from . import __version__
from .errors import InputError, InternalCheckFailed, WitnessRejected
from .network import DEFAULT_MAX_STATES
from .report import (
    INCONCLUSIVE,
    IRREDUCIBILITY_DISPROVEN,
    PROVEN_ERGODIC,
    UNSUPPORTED,
    analyze,
    render_report,
)

EXIT_CODES = {
    PROVEN_ERGODIC: 0,
    INCONCLUSIVE: 1,
    IRREDUCIBILITY_DISPROVEN: 2,
    UNSUPPORTED: 4,
}
INPUT_ERROR_EXIT = 3
INTERNAL_ERROR_EXIT = 5


def _max_states():
    raw = os.environ.get("ERGOCHECK_MAX_STATES")
    try:
        bound = int(raw) if raw else DEFAULT_MAX_STATES
    except ValueError:
        bound = 0
    if bound < 1:
        raise InputError(f"bad ERGOCHECK_MAX_STATES value {raw!r}")
    return bound


def _parse_totals(raw):
    if raw is None:
        return None
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise InputError(f"bad --conserved-totals value {raw!r}") from None


def _load_witness(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read witness file {path}: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("v")
    if not isinstance(payload, list):
        raise InputError("witness JSON must be a list or {\"v\": [...]}")
    try:
        return tuple(Fraction(str(x)) for x in payload)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad witness entry: {exc}") from None


def _run(path, totals, fmt, witness_path, oracle, seed, no_timings):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR_EXIT)
    try:
        witness = _load_witness(witness_path) if witness_path else None
        report = analyze(
            text,
            totals=_parse_totals(totals),
            witness=witness,
            oracle=oracle,
            seed=seed,
            max_states=_max_states(),
        )
    except WitnessRejected as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CODES[INCONCLUSIVE])
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR_EXIT)
    except InternalCheckFailed as exc:
        click.echo(f"internal check failed: {exc}", err=True)
        sys.exit(INTERNAL_ERROR_EXIT)
    click.echo(
        render_report(report, fmt=fmt, include_timings=not no_timings), nl=False
    )
    sys.exit(EXIT_CODES[report.verdict])


_common = [
    click.option(
        "--conserved-totals",
        "totals",
        default=None,
        help="Comma-separated totals, matched to relations in detection order.",
    ),
    click.option(
        "--format",
        "fmt",
        type=click.Choice(["human", "json"]),
        default="human",
        show_default=True,
    ),
    click.option(
        "--oracle",
        type=click.Choice(["off", "ssa", "cme"]),
        default="off",
        show_default=True,
        help="Optional empirical cross-check appended to the report.",
    ),
    click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True),
    click.option(
        "--no-timings", is_flag=True, help="Omit timings (deterministic output)."
    ),
]


def _with_common(func):
    for opt in reversed(_common):
        func = opt(func)
    return func


@contextlib.contextmanager
def _usage_errors_as_input_errors():
    """Usage errors (a bad option value, a missing argument) exit with the
    input-error code; click's own, 2, is IRREDUCIBILITY_DISPROVEN's."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = INPUT_ERROR_EXIT
        raise


class _Group(click.Group):
    # the group's own arguments, then the subcommand's
    make_context = _usage_errors_as_input_errors()(click.Group.make_context)
    invoke = _usage_errors_as_input_errors()(click.Group.invoke)


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    """Prove ergodicity of stochastic mass-action reaction networks."""


@main.command("analyze")
@click.argument("path", type=click.Path())
@click.option(
    "--witness",
    "witness_path",
    type=click.Path(),
    default=None,
    help="Verify this drift witness (JSON) instead of solving.",
)
@_with_common
def analyze_cmd(path, witness_path, totals, fmt, oracle, seed, no_timings):
    """Run the full pipeline on a network file."""
    _run(path, totals, fmt, witness_path, oracle, seed, no_timings)


@main.command()
@click.argument("path", type=click.Path())
@click.argument("witness_path", type=click.Path())
@_with_common
def verify(path, witness_path, totals, fmt, oracle, seed, no_timings):
    """Check a supplied drift witness against a network file."""
    _run(path, totals, fmt, witness_path, oracle, seed, no_timings)


if __name__ == "__main__":
    main()
