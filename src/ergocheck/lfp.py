"""Exact linear feasibility solver.

Decides non-emptiness of {v : A v <= b, A_eq v = b_eq, v >= l} by a
phase-I simplex over exact rationals with Bland's anti-cycling rule.  The
problem is taken in natural form: each variable has a lower bound or is
free.  A bounded variable is shifted to one nonnegative column,
v_j = l_j + s_j; only free variables are split, v_j = v+ - v-.  A reported
witness always re-verifies by substitution before being returned; an
infeasible answer is backed by simplex termination at a positive phase-I
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InternalCheckFailed
from .linalg import RationalMatrix, _eliminate

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
_RHS = -1  # tableau key of the right-hand side


@dataclass(frozen=True)
class LfpProblem:
    """A feasibility instance A v <= b, A_eq v = b_eq over n variables,
    with v_j >= lower[j] for every j whose bound is not None."""

    a: RationalMatrix
    b: tuple
    a_eq: RationalMatrix
    b_eq: tuple
    lower: tuple | None = None  # None: every variable free

    def __post_init__(self):
        if self.a.nrows != len(self.b):
            raise DimensionMismatch("A and b row counts differ")
        if self.a_eq.nrows != len(self.b_eq):
            raise DimensionMismatch("A_eq and b_eq row counts differ")
        if self.a.nrows and self.a_eq.nrows and self.a.ncols != self.a_eq.ncols:
            raise DimensionMismatch("A and A_eq column counts differ")
        if self.lower is None:
            object.__setattr__(self, "lower", (None,) * self.num_vars)
        elif len(self.lower) != self.num_vars:
            raise DimensionMismatch("lower bounds and variable counts differ")

    @property
    def num_vars(self):
        return self.a.ncols if self.a.nrows or self.a.ncols else self.a_eq.ncols

    @classmethod
    def build(cls, ineq_rows, b, eq_rows, b_eq, num_vars, lower=None):
        """Construct from lists of sparse {col: value} rows."""
        return cls(
            a=RationalMatrix(len(ineq_rows), num_vars, [dict(r) for r in ineq_rows]),
            b=tuple(Fraction(x) for x in b),
            a_eq=RationalMatrix(len(eq_rows), num_vars, [dict(r) for r in eq_rows]),
            b_eq=tuple(Fraction(x) for x in b_eq),
            lower=None
            if lower is None
            else tuple(None if x is None else Fraction(x) for x in lower),
        )


@dataclass(frozen=True)
class LfpOutcome:
    status: str
    witness: tuple | None = None

    @property
    def feasible(self):
        return self.status == FEASIBLE


def witness_violation(problem, v):
    """Exact substitution check of every constraint (zero tolerance): the
    first violated block, "lower", "ineq" or "eq", or None if v is feasible."""
    if len(v) != problem.num_vars:
        raise DimensionMismatch("witness length mismatch")
    if any(lo is not None and x < lo for x, lo in zip(v, problem.lower)):
        return "lower"
    if any(lhs > rhs for lhs, rhs in zip(problem.a.matvec(v), problem.b)):
        return "ineq"
    if any(lhs != rhs for lhs, rhs in zip(problem.a_eq.matvec(v), problem.b_eq)):
        return "eq"
    return None


def witness_satisfies(problem, v):
    """True when v satisfies every constraint exactly."""
    return witness_violation(problem, v) is None


def solve_lfp(problem):
    """Phase-I simplex with Bland's rule; exact rational arithmetic.

    Column j holds s_j = v_j - l_j for a bounded variable and v+_j for a
    free one, whose v-_j sits in column n + j.  Every row gets a slack
    (inequalities) and, when no natural basic column exists, an artificial
    variable; the instance is feasible iff the minimized artificial sum is
    exactly zero.  The right-hand side and the phase-I objective live in
    the tableau rows, so each pivot is a single elimination step.
    """
    n = problem.num_vars
    lower = problem.lower
    rows = []
    basis = []
    art_rows = []
    # column layout: v+ or s [0,n), v- [n,2n), slacks, then artificials
    nslack = problem.a.nrows
    next_col = 2 * n + nslack

    def add_row(coeffs, b, slack_col):
        nonlocal next_col
        row = {}
        b = Fraction(b)
        for j, val in coeffs.items():
            if val:
                row[j] = Fraction(val)
                if lower[j] is None:
                    row[n + j] = -Fraction(val)
                else:
                    b -= val * lower[j]
        sign = 1
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b, sign = -b, -1
        if slack_col is not None:
            row[slack_col] = sign
        if slack_col is not None and sign == 1:
            basis.append(slack_col)
        else:
            row[next_col] = 1
            basis.append(next_col)
            next_col += 1
            art_rows.append(len(rows))
        if b:
            row[_RHS] = b
        rows.append(row)

    for i in range(problem.a.nrows):
        add_row(problem.a.rows[i], problem.b[i], 2 * n + i)
    for i in range(problem.a_eq.nrows):
        add_row(problem.a_eq.rows[i], problem.b_eq[i], None)

    art_cols = set(basis[i] for i in art_rows)
    # Reduced costs for min(sum of artificials), artificials basic; the
    # _RHS entry holds minus the current sum.
    obj = {}
    for i in art_rows:
        for j, v in rows[i].items():
            if j not in art_cols:
                obj[j] = obj.get(j, 0) - v
    obj = {j: v for j, v in obj.items() if v != 0}

    while obj.get(_RHS, 0) < 0:
        entering = min(
            (j for j, v in obj.items() if v < 0 and j != _RHS), default=None
        )
        if entering is None:
            break
        leave = None
        best_ratio = None
        for i, row in enumerate(rows):
            a = row.get(entering)
            if a and a > 0:
                ratio = row.get(_RHS, 0) / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    leave, best_ratio = i, ratio
        if leave is None:
            # phase-I objective is bounded below by 0, so this is unreachable
            break
        _eliminate(rows[leave], entering, rows + [obj])
        basis[leave] = entering

    if obj.get(_RHS, 0) != 0:
        return LfpOutcome(status=INFEASIBLE)

    witness = _basic_solution(basis, rows, lower)
    if not witness_satisfies(problem, witness):
        raise InternalCheckFailed("simplex witness fails exact substitution")
    return LfpOutcome(status=FEASIBLE, witness=witness)


def _basic_solution(basis, rows, lower):
    """v = l + s or v+ - v- read off the final tableau; nonbasic columns are 0."""
    n = len(lower)
    values = {col: row.get(_RHS, 0) for col, row in zip(basis, rows)}
    return tuple(
        Fraction((lo or 0) + values.get(j, 0) - values.get(n + j, 0))
        for j, lo in enumerate(lower)
    )
