"""Negative-drift certification via a linear Lyapunov function.

Reactions are partitioned into unary-unconserved, binary and remainder
sets; the induced linear feasibility problem is solved exactly and a
feasible point is lifted to a fully positive vector by adding conservation
vectors.  The resulting linear form V(x) = v^T x certifies ergodicity once
irreducibility is established.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckFailed, UnsupportedReactionOrder, WitnessRejected
from .lfp import LfpProblem, solve_lfp
from .linalg import RationalMatrix


@dataclass(frozen=True)
class ReactionClassification:
    """Partition of reactions by what they contribute to the drift bound.

    Indices are 0-based.  `unit_vectors[k]` is the unconserved reactant
    index for each unary-unconserved reaction k.
    """

    unary_unconserved: tuple
    binary: tuple
    remainder: tuple
    unit_vectors: dict  # k -> reactant index in the unconserved block

    @property
    def k_q(self):
        return len(self.binary)


@dataclass(frozen=True)
class DriftSystem:
    a: RationalMatrix  # d_u x d
    m_q: RationalMatrix  # d x K_q
    problem: LfpProblem
    d_u: int
    d: int


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
    units = {}
    for k, r in enumerate(net.reactions):
        order = r.order
        if order > 2:
            raise UnsupportedReactionOrder(k)
        if order == 1:
            i = next(j for j, c in enumerate(r.reactants) if c)
            if i < d_u:
                unary.append(k)
                units[k] = i
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
        unit_vectors=units,
    )


def build_drift_system(rc, net, cs=None):
    """Assemble the drift matrices and the feasibility problem.

    Constraints: A v <= -1 (strict negativity encoded exactly as in a
    cone: any strictly negative solution rescales to satisfy <= -1),
    M_q^T v = 0, and the B block B v <= -1, i.e. v_u >= 1, posed as lower
    bounds on the unconserved coordinates; conserved coordinates are free.
    """
    d = net.num_species
    d_u = cs.d_u if cs is not None else d
    a_rows = [{} for _ in range(d_u)]
    for k in rc.unary_unconserved:
        r = net.reactions[k]
        i = rc.unit_vectors[k]
        for j, z in enumerate(r.displacement):
            if z:
                a_rows[i][j] = a_rows[i].get(j, 0) + r.rate * z
    a_rows = [{j: v for j, v in row.items() if v != 0} for row in a_rows]
    a = RationalMatrix(d_u, d, a_rows)

    mq_rows = [{} for _ in range(d)]
    for col, k in enumerate(rc.binary):
        for i, z in enumerate(net.reactions[k].displacement):
            if z:
                mq_rows[i][col] = z
    m_q = RationalMatrix(d, rc.k_q, mq_rows)

    eq = [dict(r) for r in m_q.transpose().rows]
    lower = [1] * d_u + [None] * (d - d_u)
    problem = LfpProblem.build(
        [dict(r) for r in a.rows], [-1] * d_u, eq, [0] * rc.k_q, d, lower
    )
    return DriftSystem(a=a, m_q=m_q, problem=problem, d_u=d_u, d=d)


def _positivize(w, ds, cs):
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


def _certificate(w, ds, cs):
    """Lift a valid witness to a full certificate and re-check it by exact
    substitution; a certificate that fails is never returned."""
    v, alphas = _positivize(w, ds, cs)
    cert = LyapunovCertificate(
        w=tuple(w),
        v_positive=v,
        alphas=alphas,
        drift_margin=tuple(ds.a.matvec(list(w))),
    )
    if not verify_certificate(cert, ds):
        raise InternalCheckFailed("Lyapunov certificate fails its exact re-check")
    return cert


def check_negative_drift(ds, cs=None):
    """Solve the drift feasibility problem; return a certificate or None.

    Infeasibility is not a disproof (the condition is sufficient only).
    """
    outcome = solve_lfp(ds.problem)
    if not outcome.feasible:
        return None
    return _certificate(outcome.witness, ds, cs)


def witness_violation(w, ds):
    """Name of the first violated witness condition, or None if valid."""
    if len(w) != ds.d:
        return "dimension"
    for i in range(ds.d_u):
        if w[i] < 1:
            return "B-block"
    for i, row in enumerate(ds.a.rows):
        if sum((v * w[j] for j, v in row.items()), Fraction(0)) > -1:
            return "A-block"
    for row in ds.m_q.transpose().rows:
        if sum((v * w[j] for j, v in row.items()), Fraction(0)) != 0:
            return "binary-equality"
    return None


def certificate_from_witness(w, ds, cs=None):
    """Validate an externally supplied witness and lift it to a full
    certificate; raises WitnessRejected naming the violated constraint, and
    InternalCheckFailed if the lifted certificate fails its re-check."""
    w = tuple(Fraction(x) for x in w)
    violation = witness_violation(w, ds)
    if violation is not None:
        raise WitnessRejected(violation)
    return _certificate(w, ds, cs)


def verify_certificate(cert, ds):
    """Independent re-check of a certificate by exact substitution."""
    if witness_violation(cert.w, ds) is not None:
        return False
    v = list(cert.v_positive)
    if any(x <= 0 for x in v):
        return False
    if any(val >= 0 for val in ds.a.matvec(v)):
        return False
    if any(val != 0 for val in ds.m_q.transpose().matvec(v)):
        return False
    return True
