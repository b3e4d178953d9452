"""Exact integer/rational matrix algebra.

Matrices are stored sparsely (one dict per row) so that the same code
handles both desk-scale examples and synthetic networks with hundreds of
species.  All arithmetic is over `fractions.Fraction` / Python ints; no
floating point enters any verdict-relevant computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch

Row = dict  # {col: Fraction|int}, zero entries never stored


class RationalMatrix:
    """Sparse exact-arithmetic matrix.

    Rows are dicts mapping column index to a nonzero Fraction (or int).
    Instances are treated as immutable once constructed.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [{} for _ in range(nrows)]
        if len(rows) != nrows:
            raise DimensionMismatch(f"expected {nrows} rows, got {len(rows)}")
        self.rows = rows

    @classmethod
    def from_dense(cls, dense):
        rows = [
            {j: Fraction(v) for j, v in enumerate(r) if v != 0} for r in dense
        ]
        ncols = len(dense[0]) if dense else 0
        return cls(len(dense), ncols, rows)

    @classmethod
    def from_columns(cls, nrows, columns):
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v != 0:
                    rows[i][j] = v
        return cls(nrows, len(columns), rows)

    def to_dense(self):
        return [
            [Fraction(self.rows[i].get(j, 0)) for j in range(self.ncols)]
            for i in range(self.nrows)
        ]

    def columns(self):
        """Column-major copy as a list of {row: value} dicts."""
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def transpose(self):
        return RationalMatrix.from_columns(
            self.ncols, [dict(r) for r in self.rows]
        )

    def is_integer(self):
        return all(
            Fraction(v).denominator == 1 for r in self.rows for v in r.values()
        )

    def matvec(self, x):
        if len(x) != self.ncols:
            raise DimensionMismatch("matvec length mismatch")
        return tuple(
            sum((v * x[j] for j, v in row.items()), Fraction(0))
            for row in self.rows
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul shape mismatch")
        rows = []
        for row in self.rows:
            acc = {}
            for k, v in row.items():
                for j, w in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            rows.append({j: v for j, v in acc.items() if v != 0})
        return RationalMatrix(self.nrows, other.ncols, rows)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        for a, b in zip(self.rows, other.rows):
            if {j: Fraction(v) for j, v in a.items()} != {
                j: Fraction(v) for j, v in b.items()
            }:
                return False
        return True

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"


def _pick_sparsest(rows):
    """Index of the shortest nonempty row (deterministic tie-break)."""
    best = None
    best_len = None
    for i, r in enumerate(rows):
        if r and (best_len is None or len(r) < best_len):
            best, best_len = i, len(r)
    return best


def rref(mat):
    """Reduced row echelon form via exact sparse elimination.

    Returns (pivot_cols, reduced_rows) where reduced_rows[i] is the row
    whose pivot is pivot_cols[i], scaled so the pivot entry is 1 and
    eliminated from every other returned row.
    """
    work = [
        {j: Fraction(v) for j, v in r.items() if v != 0} for r in mat.rows
    ]
    done = []  # (pivot_col, row)
    while True:
        i = _pick_sparsest(work)
        if i is None:
            break
        row = work.pop(i)
        pcol = min(row)
        _eliminate(row, pcol, work + [r for _, r in done])
        done.append((pcol, row))
    done.sort(key=lambda t: t[0])
    return [p for p, _ in done], [r for _, r in done]


def _eliminate(prow, pcol, rows):
    """Gauss-Jordan step: scale `prow` in place so its `pcol` entry is 1,
    then clear `pcol` from every other row of `rows`."""
    pval = prow[pcol]
    if pval != 1:
        for j, v in prow.items():
            prow[j] = v / pval
    for row in rows:
        f = row.get(pcol)
        if f and row is not prow:
            _axpy(row, prow, -f)


def _axpy(target, source, factor):
    """target += factor * source, dropping entries that cancel to zero."""
    for j, v in source.items():
        new = target.get(j, 0) + factor * v
        if new == 0:
            target.pop(j, None)
        else:
            target[j] = new


def null_space(mat):
    """Basis of {x : mat @ x = 0} as a list of Fraction tuples."""
    pivots, rows = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(mat.ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * mat.ncols
        vec[free] = Fraction(1)
        for pcol, row in zip(pivots, rows):
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -Fraction(coeff)
        basis.append(tuple(vec))
    return basis


def left_null_space(mat):
    """Basis of {y : y^T mat = 0}."""
    return null_space(mat.transpose())


@dataclass(frozen=True)
class HnfResult:
    """Column-style Hermite normal form H = M @ U with U unimodular.

    `pivots` lists (row, col, value) for each pivot of the staircase.
    """

    h: RationalMatrix
    u: RationalMatrix
    pivots: tuple


def hermite_normal_form(mat):
    """Column-style HNF of an integer matrix, with transform tracking.

    Only elementary *column* operations are applied (swap, negate, add an
    integer multiple of another column), so det(U) = +-1 by construction.
    Output is deterministic for a fixed input.
    """
    if not mat.is_integer():
        raise DimensionMismatch("hermite_normal_form requires integer entries")
    d, k = mat.nrows, mat.ncols
    cols = [
        {i: int(v) for i, v in col.items()} for col in mat.columns()
    ]
    ucols = [{j: 1} for j in range(k)]
    pivots = []
    c = 0  # next pivot slot
    for r in range(d):
        if c >= k:
            break
        # Reduce columns c.. until at most one is nonzero in row r.
        while True:
            nz = [j for j in range(c, k) if r in cols[j]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: (abs(cols[j][r]), j))
            jstar = nz[0]
            pval = cols[jstar][r]
            for j in nz[1:]:
                q = cols[j][r] // pval
                if q:
                    _axpy(cols[j], cols[jstar], -q)
                    _axpy(ucols[j], ucols[jstar], -q)
        nz = [j for j in range(c, k) if r in cols[j]]
        if not nz:
            continue
        j = nz[0]
        if j != c:
            cols[c], cols[j] = cols[j], cols[c]
            ucols[c], ucols[j] = ucols[j], ucols[c]
        if cols[c][r] < 0:
            cols[c] = {i: -v for i, v in cols[c].items()}
            ucols[c] = {i: -v for i, v in ucols[c].items()}
        pivot = cols[c][r]
        # Canonical form: entries left of the pivot in its row lie in [0, pivot).
        for j in range(c):
            v = cols[j].get(r)
            if v is not None:
                q = v // pivot
                if q:
                    _axpy(cols[j], cols[c], -q)
                    _axpy(ucols[j], ucols[c], -q)
        pivots.append((r, c, pivot))
        c += 1
    h = RationalMatrix.from_columns(d, cols)
    u = RationalMatrix.from_columns(k, ucols)
    return HnfResult(h=h, u=u, pivots=tuple(pivots))


def lattice_spans_full(hnf, dim):
    """True iff the integer column lattice of the matrix with Hermite
    normal form `hnf` equals Z^dim: full rank with every pivot 1."""
    return len(hnf.pivots) == dim and all(p == 1 for _, _, p in hnf.pivots)
