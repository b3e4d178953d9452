import random
from fractions import Fraction

import pytest

from ergocheck import (
    DimensionMismatch,
    LfpProblem,
    build_drift_system,
    classify_reactions,
    parse_network,
    solve_lfp,
    stoichiometry_matrix,
    witness_satisfies,
    witness_violation,
)
from ergocheck.irreducibility import _positive_flux_lfp
from helpers import (
    cascade_text,
    grid_feasible,
    oracle_box_sufficient,
    random_bounded_lfp,
    random_boxed_lfp,
)


def feasibility(problem):
    out = solve_lfp(problem)
    if out.status == "feasible":
        # the solver's own witness must satisfy the system exactly
        assert witness_satisfies(problem, out.witness)
    return out.status == "feasible"


class TestKnownInstances:
    def test_birth_death_positive_flux(self, bd_text):
        m = stoichiometry_matrix(parse_network(bd_text))
        assert feasibility(_positive_flux_lfp(m))

    def test_pure_birth_positive_flux_infeasible(self, pb_text):
        m = stoichiometry_matrix(parse_network(pb_text))
        assert not feasibility(_positive_flux_lfp(m))

    def test_open_cascade_flux_infeasible(self, cascade_open_text):
        m = stoichiometry_matrix(parse_network(cascade_open_text))
        assert not feasibility(_positive_flux_lfp(m))

    def test_oscillator_positive_flux(self, oscillator_text):
        m = stoichiometry_matrix(parse_network(oscillator_text))
        assert feasibility(_positive_flux_lfp(m))

    def test_equality_only(self):
        # x + y = 1, x - y = 0 has the unique solution (1/2, 1/2)
        p = LfpProblem.build([], [], [{0: 1, 1: 1}, {0: 1, 1: -1}], [1, 0], 2)
        out = solve_lfp(p)
        assert out.status == "feasible"
        assert out.witness == (Fraction(1, 2), Fraction(1, 2))

    def test_contradictory_inequalities(self):
        p = LfpProblem.build([{0: 1}, {0: -1}], [-1, -1], [], [], 1)
        assert not feasibility(p)

    def test_unbounded_direction_still_feasible(self):
        p = LfpProblem.build([{0: -1}], [-5], [], [], 1)
        assert feasibility(p)

    def test_zero_constraints(self):
        p = LfpProblem.build([], [], [], [], 2)
        assert feasibility(p)


class TestDegenerateInstances:
    """Highly degenerate systems: many ties in the ratio test, redundant
    rows, and constraints active at the origin.  Bland's rule must still
    terminate with the right status."""

    def test_cycle_through_origin(self):
        rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -1}]
        p = LfpProblem.build(rows, [0, 0, 0], [{0: 1, 1: 1, 2: 1}], [0], 3)
        assert feasibility(p)

    def test_redundant_equalities(self):
        eq = [{0: 1, 1: 1}] * 4 + [{0: 2, 1: 2}]
        p = LfpProblem.build([], [], eq, [1, 1, 1, 1, 2], 2)
        assert feasibility(p)

    def test_redundant_then_contradiction(self):
        eq = [{0: 1, 1: 1}] * 3 + [{0: 1, 1: 1}]
        p = LfpProblem.build([], [], eq, [1, 1, 1, 2], 2)
        assert not feasibility(p)

    def test_many_zero_rhs_inequalities(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 4)
            rows = [
                {j: rng.randint(-1, 1) for j in range(n)}
                for _ in range(6)
            ]
            p = LfpProblem.build(rows, [0] * 6, [], [], n)
            assert feasibility(p)  # v = 0 always works

    def test_tight_box_vertex(self):
        # forces the optimum onto a degenerate vertex with 3 active rows
        rows = [{0: 1, 1: 1}, {0: 1}, {1: 1}, {0: -1}, {1: -1}]
        p = LfpProblem.build(rows, [2, 1, 1, -1, -1], [], [], 2)
        assert feasibility(p)


class TestGridOracle:
    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 120:
            p = random_boxed_lfp(rng)
            if not oracle_box_sufficient(p):
                continue
            expected = grid_feasible(p)
            got = solve_lfp(p)
            assert (got.status == "feasible") == (expected is not None)
            if expected is not None:
                assert witness_satisfies(p, got.witness)
            checked += 1

    def test_bounded_variables_agree_with_exhaustive_search(self):
        rng = random.Random(4049)
        checked = feas = mixed = 0
        while checked < 300:
            p = random_bounded_lfp(rng)
            if not oracle_box_sufficient(p):
                continue
            expected = grid_feasible(p)
            got = solve_lfp(p)
            assert (got.status == "feasible") == (expected is not None)
            if expected is not None:
                assert witness_satisfies(p, got.witness)
                feas += 1
            mixed += None in p.lower and any(lo is not None for lo in p.lower)
            checked += 1
        assert 0 < feas < checked
        assert mixed > 0


class TestBounds:
    def test_default_is_all_free(self):
        p = LfpProblem.build([{0: 1}], [-5], [], [], 2)
        assert p.lower == (None, None)
        assert solve_lfp(p).witness == (Fraction(-5), Fraction(0))

    def test_bound_shifts_the_variable(self):
        # v0 + v1 = 1 with v0 >= 3 forces v1 <= -2, which a free v1 allows
        p = LfpProblem.build([], [], [{0: 1, 1: 1}], [1], 2, lower=[3, None])
        out = solve_lfp(p)
        assert out.feasible
        assert out.witness[0] >= 3 and sum(out.witness) == 1

    def test_bounds_can_make_a_problem_infeasible(self):
        p = LfpProblem.build([{0: 1, 1: 1}], [1], [], [], 2, lower=[1, 1])
        assert not feasibility(p)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            LfpProblem.build([{0: 1}], [1], [], [], 2, lower=[0])
        with pytest.raises(DimensionMismatch):
            LfpProblem.build([], [], [{0: 1}], [1], 1, lower=[0, 0])

    def test_witness_check_honours_bounds(self):
        p = LfpProblem.build([], [], [], [], 2, lower=[1, None])
        assert witness_satisfies(p, (Fraction(1), Fraction(-7)))
        assert not witness_satisfies(p, (Fraction(1, 2), Fraction(0)))

    def test_witness_violation_names_the_first_failed_block(self):
        # v >= 1, v_0 <= 2, v_0 + v_1 = 3
        p = LfpProblem.build([{0: 1}], [2], [{0: 1, 1: 1}], [3], 2, lower=[1, 1])
        assert witness_violation(p, (1, 2)) is None
        assert witness_violation(p, (0, 3)) == "lower"
        assert witness_violation(p, (0, 5)) == "lower"  # eq fails too
        assert witness_violation(p, (3, 3)) == "ineq"  # eq fails too
        assert witness_violation(p, (2, 2)) == "eq"

    def test_cascade_problems_have_one_row_per_equation(self):
        net = parse_network(cascade_text(60))
        flux = _positive_flux_lfp(stoichiometry_matrix(net))
        drift = build_drift_system(classify_reactions(net), net)
        for p in (flux, drift):
            assert p.a.nrows + p.a_eq.nrows == 60
            assert p.lower == (1,) * p.num_vars
            out = solve_lfp(p)
            assert out.feasible and witness_satisfies(p, out.witness)
        assert flux.a.nrows == 0


class TestWitnessChecking:
    def test_exact_boundary(self):
        p = LfpProblem.build([{0: 3}], [1], [], [], 1)
        assert witness_satisfies(p, (Fraction(1, 3),))
        assert not witness_satisfies(p, (Fraction(1, 3) + Fraction(1, 10**12),))

    def test_equality_must_hold_exactly(self):
        p = LfpProblem.build([], [], [{0: 1, 1: 1}], [1], 2)
        assert witness_satisfies(p, (Fraction(1, 7), Fraction(6, 7)))
        assert not witness_satisfies(p, (Fraction(1, 7), Fraction(6, 7) + 1))

    def test_dimension_checked(self):
        p = LfpProblem.build([{0: 1}], [1], [], [], 2)
        with pytest.raises(DimensionMismatch):
            witness_satisfies(p, (Fraction(0),))


def test_problem_shape_validation():
    with pytest.raises(DimensionMismatch):
        LfpProblem.build([{0: 1}], [1, 2], [], [], 1)
