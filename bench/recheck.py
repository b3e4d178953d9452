"""Benchmark-side correctness checks of one operation's JSON report.

Nothing here calls ergocheck.  The certificate checks rebuild the
stoichiometry from the generated network (``workloads.Network``) and
substitute the reported rationals exactly, so a wrong certificate is
caught even if ergocheck's own ``witness_satisfies`` or
``verify_certificate`` were wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import PROVEN_ERGODIC

# A CME stationary mean is a float solve of a truncated chain whose boundary
# mass is below 1e-30 here, so it matches the exact mean to rounding error.
CME_MEAN_TOL = 1e-6
# SSA time averages are random; the bound is six batch-means standard errors
# plus a floor, far outside what a correct simulator produces.
SSA_SIGMAS = 6.0
SSA_FLOOR = 0.1


def _displacements(net, species):
    """Net-effect vectors of the reactions, indexed by ``species``."""
    pos = {s: i for i, s in enumerate(species)}
    out = []
    for reactants, products, _ in net.reactions:
        vec = [0] * len(species)
        for s, c in reactants.items():
            vec[pos[s]] -= c
        for s, c in products.items():
            vec[pos[s]] += c
        out.append(vec)
    return out


def check_flux(net, report):
    """M_bar v = 0 over the unconserved species and v >= 1 on every
    reaction.  Returns a failure reason or None."""
    species = report["network"]["species"]
    d_u = report["network"]["d_u"]
    v = [Fraction(x) for x in report["irreducibility"]["flux_witness"]]
    disp = _displacements(net, species)
    if len(v) != len(disp):
        return "flux witness length"
    if any(x < 1 for x in v):
        return "flux witness below 1"
    for i in range(d_u):
        if sum(vk * nu[i] for vk, nu in zip(v, disp)) != 0:
            return f"flux witness: M v != 0 at {species[i]}"
    return None


def check_lyapunov(net, report):
    """v > 0, every unary-unconserved row of A strictly negative, every
    binary displacement annihilated.  Returns a failure reason or None."""
    species = report["network"]["species"]
    d_u = report["network"]["d_u"]
    v = [Fraction(x) for x in report["drift"]["lyapunov_vector"]]
    if len(v) != len(species):
        return "lyapunov vector length"
    if any(x <= 0 for x in v):
        return "lyapunov vector not positive"
    disp = _displacements(net, species)
    pos = {s: i for i, s in enumerate(species)}
    rows = [Fraction(0)] * d_u
    has_row = [False] * d_u
    for (reactants, _, rate), nu in zip(net.reactions, disp):
        order = sum(reactants.values())
        effect = sum(vi * z for vi, z in zip(v, nu))
        if order == 1:
            (s,) = reactants
            i = pos[s]
            if i < d_u:
                rows[i] += Fraction(rate) * effect
                has_row[i] = True
        elif order == 2 and effect != 0:
            return "lyapunov vector: binary displacement not annihilated"
    for i in range(d_u):
        if not has_row[i] or rows[i] >= 0:
            return f"lyapunov vector: drift row {species[i]} not negative"
    return None


def _known_means(species):
    """Hand-derived stationary means shared by the oracle families: the
    catalyst X, the birth-death S and every cascade species X_i have mean 1
    (their mean equations are linear; see ``workloads``)."""
    return {s: 1.0 for s in species if s == "S" or s.startswith("X")}


def check_oracle(op, report):
    """Reference check of the oracle section.  Returns a reason or None."""
    data = report["oracle"]
    species = report["network"]["species"]
    known = _known_means(species)
    total = op.totals[0] if op.family == "switch" else None  # A + B
    if data is None or data.get("mode") != op.oracle:
        return "oracle section missing"
    if op.oracle == "cme":
        if not data["interior_strongly_connected"]:
            return "cme: interior not strongly connected"
        if data["truncation_flagged"]:
            return "cme: truncation flagged"
        means = dict(zip(species, data["stationary_means"]))
        for s, mean in known.items():
            if abs(means[s] - mean) > CME_MEAN_TOL:
                return f"cme: mean of {s} is {means[s]}, expected {mean}"
        if total is not None and abs(means["A"] + means["B"] - total) > CME_MEAN_TOL:
            return "cme: conserved total not preserved"
        return None
    if not data["conservation_constant"]:
        return "ssa: conservation law violated"
    for run in data["runs"]:
        if run["jumps"] <= 0:
            return "ssa: no jumps"
        averages = dict(zip(species, run["time_averages"]))
        first = species[0]
        if first in known:
            err = abs(averages[first] - known[first])
            if not math.isfinite(err) or err > SSA_SIGMAS * run["first_species_se"] + SSA_FLOOR:
                return f"ssa: time average of {first} is {averages[first]}"
        if total is not None:
            if abs(averages["A"] + averages["B"] - total) > 1e-9 * max(1, total):
                return "ssa: conserved total not preserved on average"
    return None


def check(op, report):
    """All checks of one operation; returns a failure reason or None."""
    answer = op.answer
    if report["verdict"] != answer.verdict:
        return f"verdict {report['verdict']}, expected {answer.verdict}"
    irr = report["irreducibility"]
    if answer.failed_condition is not None:
        got = irr["failed_condition"] if irr else None
        if got != answer.failed_condition:
            return f"failed condition {got}, expected {answer.failed_condition}"
    if answer.drift_status is not None:
        got = report["drift"]["status"] if report["drift"] else None
        if got != answer.drift_status:
            return f"drift status {got}, expected {answer.drift_status}"
    if answer.verdict == PROVEN_ERGODIC:
        reason = check_flux(op.network, report) or check_lyapunov(op.network, report)
        if reason:
            return reason
    if op.oracle != "off":
        return check_oracle(op, report)
    return None
