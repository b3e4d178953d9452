import random
from fractions import Fraction

import pytest

from ergocheck import (
    RationalMatrix,
    hermite_normal_form,
    lattice_spans_full,
    left_null_space,
    null_space,
    parse_network,
    stoichiometry_matrix,
)
from ergocheck.linalg import rref
from helpers import det_exact, random_int_matrix


class TestRationalMatrix:
    def test_entry_and_dense_round_trip(self):
        dense = [[1, 0, -2], [0, Fraction(1, 3), 0]]
        m = RationalMatrix.from_dense(dense)
        assert m.rows[0].get(2, 0) == -2
        assert m.rows[1].get(0, 0) == 0
        assert m.to_dense() == [[Fraction(v) for v in row] for row in dense]

    def test_zero_entries_not_stored(self):
        m = RationalMatrix.from_dense([[0, 1], [0, 0]])
        assert m.rows[0] == {1: Fraction(1)}
        assert m.rows[1] == {}

    def test_matmul_and_transpose(self):
        a = RationalMatrix.from_dense([[1, 2], [3, 4]])
        b = RationalMatrix.from_dense([[0, 1], [1, 0]])
        assert (a @ b).to_dense() == [[2, 1], [4, 3]]
        assert a.transpose().to_dense() == [[1, 3], [2, 4]]

    def test_matvec(self):
        a = RationalMatrix.from_dense([[1, -1], [2, 0]])
        assert a.matvec((Fraction(1, 2), Fraction(1, 2))) == (0, 1)


def rank(m):
    """Rank of an integer matrix as the pipeline reads it: the HNF pivot
    count, checked against the RREF pivot count."""
    pivots = len(hermite_normal_form(m).pivots)
    assert pivots == len(rref(m)[0])
    return pivots


class TestRank:
    @pytest.mark.parametrize(
        "dense,expected",
        [
            ([[1, -1]], 1),
            ([[1], [1]], 1),
            ([[1, 0], [0, 1]], 2),
            ([[1, 2], [2, 4]], 1),
            ([[0]], 0),
        ],
    )
    def test_small_cases(self, dense, expected):
        assert rank(RationalMatrix.from_dense(dense)) == expected

    def test_oscillator(self, oscillator_text):
        m = stoichiometry_matrix(parse_network(oscillator_text))
        assert rank(m) == 7
        m_bar = RationalMatrix(5, m.ncols, [dict(r) for r in m.rows[:5]])
        assert rank(m_bar) == 5

    def test_rank_invariant_under_row_ops(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_int_matrix(rng)
            if m.nrows < 2:
                continue
            dense = m.to_dense()
            # add a multiple of row 0 to the last row
            f = Fraction(rng.randint(-3, 3))
            mixed = [row[:] for row in dense]
            mixed[-1] = [a + f * b for a, b in zip(mixed[-1], dense[0])]
            assert rank(m) == rank(RationalMatrix.from_dense(mixed))


class TestNullSpaces:
    def test_null_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(80):
            m = random_int_matrix(rng)
            basis = null_space(m)
            assert len(basis) == m.ncols - rank(m)
            for v in basis:
                assert m.matvec(v) == tuple([0] * m.nrows)
            for v in left_null_space(m):
                assert m.transpose().matvec(v) == tuple([0] * m.ncols)


def assert_valid_hnf(m, res):
    """Full contract: H = M U with U unimodular, H column-style lower
    triangular with positive pivots dominating their row to the left."""
    assert (m @ res.u) == res.h
    dim = res.u.nrows
    d = det_exact(res.u.to_dense())
    assert abs(d) == 1
    assert res.u.is_integer() and res.h.is_integer()
    prev_row = -1
    for row, col, pivot in res.pivots:
        assert row > prev_row
        prev_row = row
        assert pivot > 0
        assert res.h.rows[row].get(col, 0) == pivot
        for j in range(col):
            assert 0 <= res.h.rows[row].get(j, 0) < pivot
        for j in range(col + 1, res.h.ncols):
            assert res.h.rows[row].get(j, 0) == 0
    # canonical: HNF of H reproduces H, hence equal lattices
    assert hermite_normal_form(res.h).h == res.h


class TestHermiteNormalForm:
    def test_single_row(self):
        m = RationalMatrix.from_dense([[1, -1]])
        res = hermite_normal_form(m)
        assert res.h.to_dense() == [[1, 0]]
        assert lattice_spans_full(hermite_normal_form(m), 1)

    def test_even_sublattice(self):
        m = RationalMatrix.from_dense([[2, -2, 4]])
        res = hermite_normal_form(m)
        assert [p for _, _, p in res.pivots] == [2]
        assert not lattice_spans_full(hermite_normal_form(m), 1)

    def test_gcd_combination(self):
        m = RationalMatrix.from_dense([[6, 10, 15]])
        res = hermite_normal_form(m)
        assert res.h.to_dense() == [[1, 0, 0]]

    def test_two_rows(self):
        m = RationalMatrix.from_dense([[1, 0, 2], [0, 1, 3]])
        res = hermite_normal_form(m)
        assert res.h.to_dense() == [[1, 0, 0], [0, 1, 0]]
        assert lattice_spans_full(hermite_normal_form(m), 2)

    def test_rank_deficient(self):
        m = RationalMatrix.from_dense([[1, 1], [1, 1]])
        res = hermite_normal_form(m)
        assert len(res.pivots) == 1
        assert not lattice_spans_full(hermite_normal_form(m), 2)

    def test_oscillator_lattice_is_full(self, oscillator_text):
        m = stoichiometry_matrix(parse_network(oscillator_text))
        m_bar = RationalMatrix(5, m.ncols, [dict(r) for r in m.rows[:5]])
        res = hermite_normal_form(m_bar)
        assert [p for _, _, p in res.pivots] == [1] * 5
        assert lattice_spans_full(hermite_normal_form(m_bar), 5)

    def test_random_contract(self):
        rng = random.Random(101)
        for _ in range(150):
            m = random_int_matrix(rng)
            assert_valid_hnf(m, hermite_normal_form(m))

    def test_column_permutation_preserves_hnf(self):
        # the canonical form depends only on the column lattice
        rng = random.Random(33)
        for _ in range(40):
            m = random_int_matrix(rng)
            cols = m.columns()
            rng.shuffle(cols)
            shuffled = RationalMatrix.from_columns(m.nrows, cols)
            assert hermite_normal_form(m).h == hermite_normal_form(shuffled).h
