"""Exact linear feasibility solver.

Decides non-emptiness of {v : A v <= b, A_eq v = b_eq} by a phase-I
simplex over exact rationals with Bland's anti-cycling rule.  A reported
witness always re-verifies by substitution before being returned; an
infeasible answer is backed by simplex termination at a positive phase-I
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InternalCheckFailed
from .linalg import RationalMatrix, _axpy

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LfpProblem:
    """A feasibility instance A v <= b, A_eq v = b_eq over n variables."""

    a: RationalMatrix
    b: tuple
    a_eq: RationalMatrix
    b_eq: tuple

    def __post_init__(self):
        if self.a.nrows != len(self.b):
            raise DimensionMismatch("A and b row counts differ")
        if self.a_eq.nrows != len(self.b_eq):
            raise DimensionMismatch("A_eq and b_eq row counts differ")
        if self.a.nrows and self.a_eq.nrows and self.a.ncols != self.a_eq.ncols:
            raise DimensionMismatch("A and A_eq column counts differ")

    @property
    def num_vars(self):
        return self.a.ncols if self.a.nrows or self.a.ncols else self.a_eq.ncols

    @classmethod
    def build(cls, ineq_rows, b, eq_rows, b_eq, num_vars):
        """Construct from lists of sparse {col: value} rows."""
        return cls(
            a=RationalMatrix(len(ineq_rows), num_vars, [dict(r) for r in ineq_rows]),
            b=tuple(Fraction(x) for x in b),
            a_eq=RationalMatrix(len(eq_rows), num_vars, [dict(r) for r in eq_rows]),
            b_eq=tuple(Fraction(x) for x in b_eq),
        )


@dataclass(frozen=True)
class LfpOutcome:
    status: str
    witness: tuple | None = None

    @property
    def feasible(self):
        return self.status == FEASIBLE


def witness_satisfies(problem, v):
    """Exact substitution check of every constraint (zero tolerance)."""
    if len(v) != problem.num_vars:
        raise DimensionMismatch("witness length mismatch")
    av = problem.a.matvec(list(v))
    if any(lhs > rhs for lhs, rhs in zip(av, problem.b)):
        return False
    aeqv = problem.a_eq.matvec(list(v))
    return all(lhs == rhs for lhs, rhs in zip(aeqv, problem.b_eq))


def solve_lfp(problem):
    """Phase-I simplex with Bland's rule; exact rational arithmetic.

    Variables are split v = v+ - v-.  Every row gets a slack (inequalities)
    and, when no natural basic column exists, an artificial variable; the
    instance is feasible iff the minimized artificial sum is exactly zero.
    """
    n = problem.num_vars
    rows = []
    rhs = []
    basis = []
    art_rows = []
    # column layout: v+ [0,n), v- [n,2n), slacks, then artificials
    nslack = problem.a.nrows
    next_col = 2 * n + nslack

    def add_row(coeffs, b, slack_col):
        nonlocal next_col
        row = {}
        for j, val in coeffs.items():
            if val:
                row[j] = Fraction(val)
                row[n + j] = -Fraction(val)
        b = Fraction(b)
        sign = 1
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b, sign = -b, -1
        if slack_col is not None:
            row[slack_col] = sign
        idx = len(rows)
        if slack_col is not None and sign == 1:
            basis.append(slack_col)
        else:
            row[next_col] = 1
            basis.append(next_col)
            next_col += 1
            art_rows.append(idx)
        rows.append(row)
        rhs.append(b)

    for i in range(problem.a.nrows):
        add_row(problem.a.rows[i], problem.b[i], 2 * n + i)
    for i in range(problem.a_eq.nrows):
        add_row(problem.a_eq.rows[i], problem.b_eq[i], None)

    art_cols = set(basis[i] for i in art_rows)
    # reduced costs for min(sum of artificials); artificials are basic.
    obj = {}
    for i in art_rows:
        for j, v in rows[i].items():
            if j not in art_cols:
                obj[j] = obj.get(j, 0) - v
    obj = {j: v for j, v in obj.items() if v != 0}
    objval = sum((rhs[i] for i in art_rows), Fraction(0))

    while objval > 0:
        entering = None
        for j, v in obj.items():
            if v < 0 and (entering is None or j < entering):
                entering = j
        if entering is None:
            break
        leave = None
        best_ratio = None
        for i, row in enumerate(rows):
            a = row.get(entering)
            if a and a > 0:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    leave, best_ratio = i, ratio
        if leave is None:
            # phase-I objective is bounded below by 0, so this is unreachable
            break
        _pivot(rows, rhs, basis, obj, leave, entering)
        objval = sum(
            (rhs[i] for i, b in enumerate(basis) if b in art_cols), Fraction(0)
        )

    if objval != 0:
        return LfpOutcome(status=INFEASIBLE)

    witness = _basic_solution(basis, rhs, n)
    if not witness_satisfies(problem, witness):
        raise InternalCheckFailed("simplex witness fails exact substitution")
    return LfpOutcome(status=FEASIBLE, witness=witness)


def _basic_solution(basis, rhs, n):
    """v = v+ - v- read off the final tableau; nonbasic columns are 0."""
    values = dict(zip(basis, rhs))
    return tuple(Fraction(values.get(j, 0) - values.get(n + j, 0)) for j in range(n))


def _pivot(rows, rhs, basis, obj, pi, entering):
    prow = rows[pi]
    pval = prow[entering]
    if pval != 1:
        prow = {j: v / pval for j, v in prow.items()}
        rows[pi] = prow
        rhs[pi] = rhs[pi] / pval
    pb = rhs[pi]
    for i, row in enumerate(rows):
        if i == pi:
            continue
        f = row.pop(entering, None)
        if f:
            _axpy(row, prow, -f)
            row.pop(entering, None)
            rhs[i] -= f * pb
    f = obj.pop(entering, None)
    if f:
        _axpy(obj, prow, -f)
        obj.pop(entering, None)
    basis[pi] = entering
