"""Differential corpus: a fixed, seeded list of analyses pinned by hash.

Each case is one `analyze` or `verify` run.  Its record is the exit code
the CLI gives plus the sha256 of its `--no-timings` JSON and human
reports, or, when the run raises, the sha256 of the error's class and
message.  The manifest tests/data/golden/corpus.tsv holds the records of
the runs with the oracles off; tests/data/golden/corpus_oracle.tsv holds
those of the oracle runs, whose floats can differ across Python, numpy
and scipy builds, so its header names the builds it was made with.
test_corpus.py recomputes the records and names each case that changed.

Regenerate a manifest only for a deliberate change of the reports, and
list the changed cases with the change:

    PYTHONPATH=src python tests/corpus.py          # corpus.tsv
    PYTHONPATH=src python tests/corpus.py oracle   # corpus_oracle.tsv
"""

from __future__ import annotations

import hashlib
import random
import sys

import numpy as np
import scipy

from ergocheck import (
    OverlappingConservation,
    analyze,
    find_conservation_relations,
    parse_network,
    render_report,
    stoichiometry_matrix,
)
from ergocheck.cli import (
    EXIT_CODES,
    INPUT_ERROR_EXIT,
    INTERNAL_ERROR_EXIT,
    _load_witness,
)
from ergocheck.errors import (
    InputError,
    InternalCheckFailed,
    WitnessRejected,
)
from ergocheck.network import DEFAULT_MAX_STATES
from conftest import DATA
from helpers import cascade_text, random_network_text, rings_text

MANIFEST = DATA / "golden" / "corpus.tsv"
ORACLE_MANIFEST = DATA / "golden" / "corpus_oracle.tsv"
RANDOM_SEED = 17  # the random networks
TOTALS_SEED = 18  # their totals, drawn apart so a relation count moves no network
NUM_RANDOM = 1200
NUM_RANDOM_ORACLE = 200  # the first ones of the same stream
SSA_MAX_STATES = 20000  # short SSA runs on the random networks; pins the budget error

# totals for the tests/data networks: none, a mismatched count and fitting ones
DATA_TOTALS = {
    "bd": [None, (1,)],
    "pb": [None, (1,)],
    "cascade_open": [None, (1,)],
    "oscillator": [None, (1,), (1, 1), (2, 3), (0, 0)],
    "switch": [None, (1, 1), (0,), (5,), (40,)],
}


def _label(totals):
    return "" if totals is None else " totals=" + ",".join(map(str, totals))


def _relation_count(text):
    try:
        m = stoichiometry_matrix(parse_network(text))
        return len(find_conservation_relations(m))
    except OverlappingConservation:
        return 0  # reported as UNSUPPORTED, whatever the totals


def _random_cases(count):
    """(name, text, totals) for the first `count` seeded random networks."""
    rng, totals_rng = random.Random(RANDOM_SEED), random.Random(TOTALS_SEED)
    for i in range(count):
        text = random_network_text(rng)
        draws = tuple(totals_rng.randint(0, 4) for _ in range(4))
        relations = _relation_count(text)
        totals = draws[:relations] if relations else None
        yield f"random({RANDOM_SEED})#{i:04d}{_label(totals)}", text, totals


def cases():
    """(name, text, totals, witness) for every case, in a fixed order."""
    out = []
    for stem, choices in DATA_TOTALS.items():
        text = (DATA / f"{stem}.crn").read_text()
        for totals in choices:
            out.append((f"data/{stem}{_label(totals)}", text, totals, None))
    witness = _load_witness(DATA / "golden" / "oscillator_witness.json")
    text = (DATA / "oscillator.crn").read_text()
    out.append(("verify data/oscillator totals=1,1", text, (1, 1), witness))
    zero = (0,) * 9  # rejected
    out.append(("verify data/oscillator witness=0 totals=1,1", text, (1, 1), zero))
    for d in range(1, 13):
        out.append((f"cascade_text({d})", cascade_text(d), None, None))
    for n in range(2, 9):
        for totals in (None, (1, 1), (3, 2)):
            name = f"rings_text({n}){_label(totals)}"
            out.append((name, rings_text(n), totals, None))
    for name, text, totals in _random_cases(NUM_RANDOM):
        out.append((name, text, totals, None))
    return out


def oracle_cases():
    """(name, text, totals, witness, oracle, max_states) for every oracle
    case, in a fixed order."""
    both = []
    for stem, choices in DATA_TOTALS.items():
        text = (DATA / f"{stem}.crn").read_text()
        for totals in choices:
            if len(totals or ()) == _relation_count(text):
                both.append((f"data/{stem}{_label(totals)}", text, totals))
    for d in range(1, 9):
        both.append((f"cascade_text({d})", cascade_text(d), None))
    for n in range(2, 5):
        both.append((f"rings_text({n}) totals=1,1", rings_text(n), (1, 1)))
    runs = [(case, mode, DEFAULT_MAX_STATES) for case in both for mode in ("ssa", "cme")]
    # about 2 * 10**6 jumps to t = 500: the run overruns the jump budget
    budget = "0 -> S ; 2000\nS -> 0 ; 1\n"
    for case in (("budget", budget, None), ("cascade_text(40)", cascade_text(40), None)):
        runs.append((case, "ssa", DEFAULT_MAX_STATES))
    for case in _random_cases(NUM_RANDOM_ORACLE):
        runs += [(case, "cme", DEFAULT_MAX_STATES), (case, "ssa", SSA_MAX_STATES)]
    out = []
    for (name, text, totals), mode, max_states in runs:
        name += f" oracle={mode}"
        if max_states != DEFAULT_MAX_STATES:
            name += f" max_states={max_states}"
        out.append((name, text, totals, None, mode, max_states))
    return out


def builds():
    """The builds the oracle floats depend on, as the oracle manifest's
    header names them."""
    python = ".".join(map(str, sys.version_info[:2]))
    return f"python {python} numpy {np.__version__} scipy {scipy.__version__}"


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(text, totals, witness, oracle="off", max_states=DEFAULT_MAX_STATES):
    """(exit code, JSON sha256, human sha256), or (exit code, error sha256,
    "-") when the run raises, with the exit codes of the CLI."""
    try:
        report = analyze(
            text, totals=totals, witness=witness, oracle=oracle, max_states=max_states
        )
    except (WitnessRejected, InputError, InternalCheckFailed) as exc:
        if isinstance(exc, WitnessRejected):
            code = EXIT_CODES["INCONCLUSIVE"]
        elif isinstance(exc, InputError):
            code = INPUT_ERROR_EXIT
        else:
            code = INTERNAL_ERROR_EXIT
        return code, _sha(f"{type(exc).__name__}: {exc}"), "-"
    return (
        EXIT_CODES[report.verdict],
        _sha(render_report(report, fmt="json", include_timings=False)),
        _sha(render_report(report, fmt="human", include_timings=False)),
    )


def records(listed=None):
    """{name: record} over every case of `listed` (default: `cases()`);
    raises when two cases share a name."""
    listed = cases() if listed is None else listed
    out = {name: record(*rest) for name, *rest in listed}
    if len(out) != len(listed):
        raise ValueError("corpus case names repeat")
    return out


def read_manifest(path=MANIFEST):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        name, code, first, second = line.split("\t")
        out[name] = (int(code), first, second)
    return out


def read_builds(path=ORACLE_MANIFEST):
    """The builds named by a manifest's first line, `# built with ...`."""
    return path.read_text().splitlines()[0].removeprefix("# built with ")


def write_manifest(recs, path=MANIFEST, header=()):
    lines = [
        *header,
        "# case\texit code\tsha256 of the JSON report or of the error"
        "\tsha256 of the human report",
    ]
    for name, (code, *rest) in recs.items():
        lines.append("\t".join([name, str(code), *rest]))
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["oracle"]:
        path, recs = ORACLE_MANIFEST, records(oracle_cases())
        write_manifest(recs, path, header=[f"# built with {builds()}"])
    else:
        path, recs = MANIFEST, records()
        write_manifest(recs, path)
    print(f"wrote {len(recs)} cases to {path}")
