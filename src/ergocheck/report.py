"""Pipeline orchestration and report rendering.

`analyze` runs parse -> conservation -> reorder -> irreducibility -> drift
and maps the outcomes onto a four-way verdict; `verify` replaces the drift
solve with validation of an externally supplied witness.  Reports render
deterministically as human text or schema-stable JSON (rationals as
"p/q" strings).
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from . import drift as drift_mod
from . import irreducibility as irr_mod
from .errors import MissingTotals, OverlappingConservation, UnsupportedReactionOrder
from .network import (
    DEFAULT_MAX_STATES,
    enumerate_conserved_states,
    find_conservation_relations,
    format_terms,
    parse_network,
    reorder_conserved_last,
    stoichiometry_matrix,
)
from .oracle import run_oracle

PROVEN_ERGODIC = "PROVEN_ERGODIC"
IRREDUCIBILITY_DISPROVEN = "IRREDUCIBILITY_DISPROVEN"
INCONCLUSIVE = "INCONCLUSIVE"
UNSUPPORTED = "UNSUPPORTED"

DRIFT_CERTIFIED = "certified"
DRIFT_INFEASIBLE = "infeasible"
DRIFT_SKIPPED = "skipped"


@dataclass(frozen=True)
class ErgodicityReport:
    verdict: str
    network: object  # reordered ReactionNetwork
    timings: dict
    input_sha256: str
    conserved: object = None
    irreducibility: object = None
    classification: object = None
    drift_system: object = None
    certificate: object = None
    drift_status: str = DRIFT_SKIPPED
    unsupported_reason: str = ""
    oracle: dict | None = None
    version: str = __version__


def _fr(x):
    return str(Fraction(x))


def analyze(
    text,
    totals=None,
    witness=None,
    oracle="off",
    seed=0,
    max_states=DEFAULT_MAX_STATES,
):
    """Full pipeline on network text; returns an ErgodicityReport.

    `witness` (sequence of rationals) switches the drift stage to
    verification of the supplied vector; a bad witness raises
    WitnessRejected.
    """
    timings = {}
    report = functools.partial(
        ErgodicityReport,
        timings=timings,
        input_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
    start = time.perf_counter()
    net = parse_network(text)
    timings["parse"] = time.perf_counter() - start

    k = next((k for k, r in enumerate(net.reactions) if r.order > 2), None)
    if k is not None:
        reason = str(UnsupportedReactionOrder(k))
        return report(UNSUPPORTED, net, unsupported_reason=reason)

    start = time.perf_counter()
    try:
        gammas = find_conservation_relations(stoichiometry_matrix(net))
    except OverlappingConservation as exc:
        timings["conservation"] = time.perf_counter() - start
        return report(UNSUPPORTED, net, unsupported_reason=str(exc))
    cs = None
    if gammas:
        net, cs = reorder_conserved_last(net, gammas)
        if totals is None:
            names = ["+".join(format_terms(g, net.species)) for g in cs.gammas]
            raise MissingTotals(
                "conservation relations detected, supply --conserved-totals "
                f"for: {', '.join(names)}"
            )
        cs = enumerate_conserved_states(cs, totals, max_states=max_states)
    elif totals:
        raise MissingTotals(f"expected 0 conserved totals, got {len(totals)}")
    timings["conservation"] = time.perf_counter() - start

    start = time.perf_counter()
    irr = irr_mod.check_irreducibility(net, cs)
    timings["irreducibility"] = time.perf_counter() - start

    start = time.perf_counter()
    rc = drift_mod.classify_reactions(net, cs)
    problem = drift_mod.build_drift_system(rc, net, cs)
    if witness is not None:
        cert = drift_mod.certificate_from_witness(witness, problem, cs)
    else:
        cert = drift_mod.check_negative_drift(problem, cs)
    timings["drift"] = time.perf_counter() - start

    if irr.status == irr_mod.NECESSARY_CONDITION_FAILED:
        verdict = IRREDUCIBILITY_DISPROVEN
    elif irr.status == irr_mod.IRREDUCIBLE_PROVEN and cert is not None:
        verdict = PROVEN_ERGODIC
    else:
        verdict = INCONCLUSIVE

    oracle_data = None
    if oracle != "off":
        start = time.perf_counter()
        oracle_data = run_oracle(oracle, net, cs, seed, max_states)
        timings["oracle"] = time.perf_counter() - start

    return report(
        verdict,
        net,
        conserved=cs,
        irreducibility=irr,
        classification=rc,
        drift_system=problem,
        certificate=cert,
        drift_status=DRIFT_CERTIFIED if cert is not None else DRIFT_INFEASIBLE,
        oracle=oracle_data,
    )


def verify(text, witness, totals=None, **kw):
    """Irreducibility pipeline plus verification of a supplied witness."""
    return analyze(text, totals=totals, witness=witness, **kw)


def _levels_to_names(levels, species):
    return [sorted(species[i] for i in g) for g in levels]


def report_to_dict(report, include_timings=True):
    """JSON-ready dict; deterministic for identical inputs."""
    net = report.network
    cs = report.conserved
    irr = report.irreducibility
    rc = report.classification
    cert = report.certificate
    data = {
        "version": report.version,
        "input_sha256": report.input_sha256,
        "verdict": report.verdict,
        "network": {
            "d": net.num_species,
            "K": net.num_reactions,
            "d_u": cs.d_u if cs is not None else net.num_species,
            "d_c": cs.d_c if cs is not None else 0,
            "n_c": cs.n_c if cs is not None else 0,
            "species": list(net.species),
            "identity_reactions": [k + 1 for k in net.identity_reactions()],
        },
        "conservation": None,
        "irreducibility": None,
        "drift": None,
        "oracle": report.oracle,
        "unsupported_reason": report.unsupported_reason,
    }
    if cs is not None:
        data["conservation"] = {
            "gammas": [list(g) for g in cs.gammas],
            "totals": list(cs.totals),
            "permutation": list(cs.permutation),
            "n_c": cs.n_c,
        }
    if irr is not None:
        data["irreducibility"] = {
            "status": irr.status,
            "failed_condition": irr.failed_condition,
            "rank": irr.rank_value,
            "rank_required": irr.rank_required,
            "lattice_ok": irr.lattice_ok,
            "hnf_pivots": list(irr.hnf_pivots),
            "flux_witness": (
                [_fr(x) for x in irr.lfp_outcome.witness]
                if irr.lfp_outcome is not None and irr.lfp_outcome.feasible
                else None
            ),
            "forward_levels": (
                _levels_to_names(irr.forward_levels.levels, net.species)
                if irr.forward_levels
                else None
            ),
            "forward_exhaustive": (
                irr.forward_levels.exhaustive if irr.forward_levels else None
            ),
            "inverse_levels": (
                _levels_to_names(irr.inverse_levels.levels, net.species)
                if irr.inverse_levels
                else None
            ),
            "inverse_exhaustive": (
                irr.inverse_levels.exhaustive if irr.inverse_levels else None
            ),
            "num_classes": (
                irr.class_analysis.num_classes if irr.class_analysis else None
            ),
            "num_closed_classes": (
                irr.class_analysis.eta if irr.class_analysis else None
            ),
            "diagnostic": irr.diagnostic,
        }
    if rc is not None:
        data["drift"] = {
            "status": report.drift_status,
            "k_unr": [k + 1 for k in rc.unary_unconserved],
            "k_bin": [k + 1 for k in rc.binary],
            "k_rem": [k + 1 for k in rc.remainder],
            "witness": [_fr(x) for x in cert.w] if cert else None,
            "lyapunov_vector": [_fr(x) for x in cert.v_positive] if cert else None,
            "alphas": [_fr(a) for a in cert.alphas] if cert else None,
            "drift_margin": [_fr(x) for x in cert.drift_margin] if cert else None,
        }
    if include_timings:
        data["timings"] = {k: round(v, 6) for k, v in report.timings.items()}
    return data


def render_report(report, fmt="human", include_timings=True):
    """Render a report as text."""
    data = report_to_dict(report, include_timings=include_timings)
    if fmt == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    return _render_human(data)


def _fmt_levels(levels):
    return " ".join(
        f"G{l + 1}={{{','.join(g)}}}" for l, g in enumerate(levels)
    )


def _render_human(data):
    lines = []
    net = data["network"]
    lines.append(f"verdict: {data['verdict']}")
    lines.append(
        f"network: d={net['d']} K={net['K']} d_u={net['d_u']} "
        f"d_c={net['d_c']} n_c={net['n_c']}"
    )
    if data.get("unsupported_reason"):
        lines.append(f"unsupported: {data['unsupported_reason']}")
    cons = data.get("conservation")
    if cons:
        for g, total in zip(cons["gammas"], cons["totals"]):
            terms = "+".join(format_terms(g, net["species"]))
            lines.append(f"conserved: {terms} = {total}")
    irr = data.get("irreducibility")
    if irr:
        lines.append(f"irreducibility: {irr['status']}")
        if irr["failed_condition"]:
            lines.append(
                f"  failed: {irr['failed_condition']} ({irr['diagnostic']})"
            )
        lines.append(
            f"  rank: {irr['rank']}/{irr['rank_required']}"
            f"  lattice: {'ok' if irr['lattice_ok'] else 'FAILED'}"
        )
        if irr["forward_levels"] is not None:
            lines.append("  levels: " + _fmt_levels(irr["forward_levels"]))
        if irr["inverse_levels"] is not None:
            lines.append(
                "  inverse levels: " + _fmt_levels(irr["inverse_levels"])
            )
    dr = data.get("drift")
    if dr:
        lines.append(f"drift: {dr['status']}")
        lines.append(
            "  K_unr={" + ",".join(map(str, dr["k_unr"])) + "}"
            " K_bin={" + ",".join(map(str, dr["k_bin"])) + "}"
        )
        if dr["lyapunov_vector"]:
            lines.append(
                "  lyapunov vector: (" + ", ".join(dr["lyapunov_vector"]) + ")"
            )
    if data.get("oracle"):
        lines.append(f"oracle: {json.dumps(data['oracle'], sort_keys=True)}")
    if "timings" in data:
        total = sum(data["timings"].values())
        lines.append(f"timings: total={total:.3f}s")
    return "\n".join(lines) + "\n"
