"""Negative-drift certification via a linear Lyapunov function.

Reactions are partitioned into unary-unconserved, binary and remainder
sets; the induced linear feasibility problem is solved exactly and a
feasible point is lifted to a fully positive vector by adding conservation
vectors, which keeps it a point of the same problem.  The resulting linear
form V(x) = v^T x certifies ergodicity once irreducibility is established.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckFailed, UnsupportedReactionOrder, WitnessRejected
from .lfp import LfpProblem, solve_lfp, witness_satisfies, witness_violation


@dataclass(frozen=True)
class ReactionClassification:
    """Partition of reactions by what they contribute to the drift bound.

    Indices are 0-based.
    """

    unary_unconserved: tuple
    binary: tuple
    remainder: tuple


@dataclass(frozen=True)
class LyapunovCertificate:
    """Exact drift certificate: raw feasibility witness plus the fully
    positive vector obtained by adding scaled conservation vectors."""

    w: tuple
    v_positive: tuple
    alphas: tuple
    drift_margin: tuple  # A @ w, every entry <= -1


def classify_reactions(net, cs=None):
    """Split reactions into unary-unconserved, binary and remainder sets.

    Requires every reaction to consume at most two molecules.
    """
    d_u = cs.d_u if cs is not None else net.num_species
    unary = []
    binary = []
    remainder = []
    for k, r in enumerate(net.reactions):
        order = r.order
        if order > 2:
            raise UnsupportedReactionOrder(k)
        if order == 1:
            if r.reactants.index(1) < d_u:
                unary.append(k)
            else:
                remainder.append(k)
        elif order == 2:
            binary.append(k)
        else:
            remainder.append(k)
    return ReactionClassification(
        unary_unconserved=tuple(unary),
        binary=tuple(binary),
        remainder=tuple(remainder),
    )


def build_drift_system(rc, net, cs=None):
    """The drift feasibility problem over v in Q^d.

    Constraints: A v <= -1 (strict negativity encoded exactly as in a
    cone: any strictly negative solution rescales to satisfy <= -1),
    M_q^T v = 0, one row per binary reaction, and the B block B v <= -1,
    i.e. v_u >= 1, posed as lower bounds on the unconserved coordinates;
    conserved coordinates are free.
    """
    d = net.num_species
    d_u = cs.d_u if cs is not None else d
    a_rows = [{} for _ in range(d_u)]
    for k in rc.unary_unconserved:
        r = net.reactions[k]
        i = r.reactants.index(1)
        for j, z in enumerate(r.displacement):
            if z:
                a_rows[i][j] = a_rows[i].get(j, 0) + r.rate * z
    a_rows = [{j: v for j, v in row.items() if v != 0} for row in a_rows]
    eq_rows = [
        {i: z for i, z in enumerate(net.reactions[k].displacement) if z}
        for k in rc.binary
    ]
    lower = [1] * d_u + [None] * (d - d_u)
    return LfpProblem.build(a_rows, [-1] * d_u, eq_rows, [0] * len(eq_rows), d, lower)


def _positivize(w, cs):
    """Add alpha_r * gamma_r (alpha doubled from 1) until every conserved
    entry in each relation's support is strictly positive.

    A gamma is invariant for both the A-rows and the binary equalities, so
    scaling never breaks the other certificate conditions.
    """
    v = [Fraction(x) for x in w]
    alphas = []
    if cs is not None:
        for gamma in cs.gammas:
            support = [i for i, g in enumerate(gamma) if g]
            alpha = Fraction(1)
            while any(v[i] + alpha * gamma[i] <= 0 for i in support):
                alpha *= 2
            for i in support:
                v[i] += alpha * gamma[i]
            alphas.append(alpha)
    return tuple(v), tuple(alphas)


def _certificate(w, problem, cs):
    """Lift a valid witness to a full certificate and re-check it by exact
    substitution; a certificate that fails is never returned."""
    v, alphas = _positivize(w, cs)
    cert = LyapunovCertificate(
        w=tuple(w),
        v_positive=v,
        alphas=alphas,
        drift_margin=problem.a.matvec(w),
    )
    if not verify_certificate(cert, problem):
        raise InternalCheckFailed("Lyapunov certificate fails its exact re-check")
    return cert


def check_negative_drift(problem, cs=None):
    """Solve the drift feasibility problem; return a certificate or None.

    Infeasibility is not a disproof (the condition is sufficient only).
    """
    outcome = solve_lfp(problem)
    if not outcome.feasible:
        return None
    return _certificate(outcome.witness, problem, cs)


# user-facing names of the drift problem's constraint blocks
_BLOCK_NAMES = {"lower": "B-block", "ineq": "A-block", "eq": "binary-equality"}


def certificate_from_witness(w, problem, cs=None):
    """Validate an externally supplied witness and lift it to a full
    certificate; raises WitnessRejected naming the violated constraint, and
    InternalCheckFailed if the lifted certificate fails its re-check."""
    w = tuple(Fraction(x) for x in w)
    if len(w) != problem.num_vars:
        raise WitnessRejected("dimension")
    violation = witness_violation(problem, w)
    if violation is not None:
        raise WitnessRejected(_BLOCK_NAMES[violation])
    return _certificate(w, problem, cs)


def verify_certificate(cert, problem):
    """Independent re-check by exact substitution: w and v_positive are both
    points of the drift problem, v_positive > 0 and drift_margin = A w."""
    points = (cert.w, cert.v_positive)
    n = problem.num_vars
    return (
        all(len(p) == n and witness_satisfies(problem, p) for p in points)
        and all(x > 0 for x in cert.v_positive)
        and problem.a.matvec(cert.w) == tuple(cert.drift_margin)
    )
