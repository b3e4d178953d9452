import math
import time

import pytest
import scipy.sparse.linalg

from ergocheck import (
    StateSpaceTooLarge,
    Trajectory,
    batch_means,
    empirical_irreducibility_probe,
    enumerate_conserved_states,
    find_conservation_relations,
    gillespie_simulate,
    parse_network,
    reorder_conserved_last,
    stoichiometry_matrix,
    time_average,
    truncated_cme_stationary,
)


def poisson_pmf(lam, k):
    return math.exp(-lam) * lam**k / math.factorial(k)


def tv_to_poisson(estimate, lam):
    """Total variation against the Poisson law, truncation tail included."""
    by_count = {s[0]: p for s, p in zip(estimate.states, estimate.probabilities)}
    covered = 0.0
    tv = 0.0
    for k, p in by_count.items():
        q = poisson_pmf(lam, k)
        tv += abs(p - q)
        covered += q
    tv += 1.0 - covered  # Poisson mass outside the box
    return tv / 2.0


def oscillator_conserved(oscillator_text):
    net = parse_network(oscillator_text)
    gammas = find_conservation_relations(stoichiometry_matrix(net))
    net, cs = reorder_conserved_last(net, gammas)
    return net, enumerate_conserved_states(cs, (1, 1))


class TestSimulation:
    def test_seed_reproducibility(self, bd_text):
        net = parse_network(bd_text)
        a = gillespie_simulate(net, (0,), 50.0, seed=42)
        b = gillespie_simulate(net, (0,), 50.0, seed=42)
        c = gillespie_simulate(net, (0,), 50.0, seed=43)
        assert a == b
        assert c.states != a.states or c.times != a.times

    def test_first_jump_from_empty_is_a_birth(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 10.0, seed=0)
        assert traj.states[0] == (0,)
        assert traj.states[1] == (1,)

    def test_absorbing_state_stops(self):
        net = parse_network("S -> 0 ; 1\n")
        traj = gillespie_simulate(net, (0,), 10.0, seed=1)
        assert traj.states == ((0,),)
        assert traj.times == (0.0,)

    def test_max_steps_cap(self, bd_text):
        traj = gillespie_simulate(
            parse_network(bd_text), (0,), 1e9, seed=5, max_steps=100
        )
        assert len(traj.states) == 101

    def test_jump_sizes_match_stoichiometry(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 200.0, seed=3)
        for prev, nxt in zip(traj.states, traj.states[1:]):
            assert abs(nxt[0] - prev[0]) == 1
            assert nxt[0] >= 0

    def test_conserved_totals_are_invariant(self, oscillator_text):
        net, cs = oscillator_conserved(oscillator_text)
        x0 = (0, 0, 0, 0, 0, 1, 0, 1, 0)
        traj = gillespie_simulate(net, x0, 30.0, seed=11)
        for state in traj.states:
            for gamma, total in zip(cs.gammas, cs.totals):
                assert sum(g * x for g, x in zip(gamma, state)) == total


class TestTimeAverages:
    def test_constant_function(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 25.0, seed=2)
        assert time_average(traj, lambda s: 1.0) == pytest.approx(1.0)

    def test_hand_built_trajectory(self):
        traj = Trajectory(
            times=(0.0, 0.4),
            states=((0,), (2,)),
            initial_state=(0,),
            seed=0,
            t_end=1.0,
        )
        assert time_average(traj, lambda s: s[0]) == pytest.approx(1.2)

    def test_batch_means_partition_the_average(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 400.0, seed=7)
        f = lambda s: s[0]
        means, se = batch_means(traj, f)
        assert len(means) == 20
        assert means.mean() == pytest.approx(time_average(traj, f), abs=1e-9)
        assert se > 0

    def test_batch_means_constant_trajectory(self):
        traj = Trajectory(
            times=(0.0,), states=((3,),), initial_state=(3,), seed=0, t_end=10.0
        )
        means, se = batch_means(traj, lambda s: s[0])
        assert all(m == pytest.approx(3.0) for m in means)
        assert se == pytest.approx(0.0)

    def test_long_run_matches_poisson_mean(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 20000.0, seed=9)
        mean = time_average(traj, lambda s: s[0])
        _, se = batch_means(traj, lambda s: s[0])
        assert abs(mean - 1.0) <= max(3 * se, 0.05)


class TestTruncatedStationary:
    def test_birth_death_is_poisson(self, bd_text):
        est = truncated_cme_stationary(parse_network(bd_text), (50,))
        assert tv_to_poisson(est, 1.0) <= 1e-8
        assert not est.truncation_flagged
        assert est.mean(0) == pytest.approx(1.0, abs=1e-9)

    def test_rate_ratio_sets_the_mean(self):
        net = parse_network("0 -> S ; 3\nS -> 0 ; 2\n")
        est = truncated_cme_stationary(net, (60,))
        assert tv_to_poisson(est, 1.5) <= 1e-8

    def test_single_state_box(self):
        est = truncated_cme_stationary(parse_network("S -> 0 ; 1\n"), (0,))
        assert est.states == ((0,),)
        assert est.probabilities == (1.0,)

    def test_undersized_box_is_flagged(self, bd_text):
        est = truncated_cme_stationary(parse_network(bd_text), (2,))
        assert est.truncation_flagged
        assert est.boundary_mass > 1e-2

    def test_state_bound_enforced(self, bd_text):
        with pytest.raises(StateSpaceTooLarge):
            truncated_cme_stationary(parse_network(bd_text), (50,), max_states=10)

    def test_box_bound_checked_before_states_are_built(self):
        net = parse_network("0 -> A ; 1\nA -> B ; 1\nB -> 0 ; 1\n")
        start = time.perf_counter()
        with pytest.raises(StateSpaceTooLarge):
            empirical_irreducibility_probe(net, (10**4, 10**4))
        with pytest.raises(StateSpaceTooLarge):
            truncated_cme_stationary(net, (10**4, 10**4))
        assert time.perf_counter() - start < 1.0

    def test_singular_float_solve_raises(self):
        # 0 and 1 are both absorbing: the truncated generator is singular
        net = parse_network("2*S -> 0 ; 1\n")
        with pytest.raises(StateSpaceTooLarge, match="singular"):
            truncated_cme_stationary(net, (2500,))

    def test_failed_float_factorization_raises(self, bd_text, monkeypatch):
        # SuperLU raises instead of returning NaN on some singular systems
        # (seen on a four-species network with a 14^4 box)
        def fail(*args, **kwargs):
            raise RuntimeError("failed to factorize matrix")

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", fail)
        with pytest.raises(StateSpaceTooLarge, match="singular"):
            truncated_cme_stationary(parse_network(bd_text), (2500,))

    def test_sparse_path_agrees_with_exact(self, bd_text):
        net = parse_network(bd_text)
        exact = truncated_cme_stationary(net, (30,))
        # force the floating solver by shrinking the exact-solve window
        import ergocheck.oracle as oracle_mod

        old = oracle_mod.EXACT_SOLVE_LIMIT
        oracle_mod.EXACT_SOLVE_LIMIT = 1
        try:
            sparse = truncated_cme_stationary(net, (30,))
        finally:
            oracle_mod.EXACT_SOLVE_LIMIT = old
        for p, q in zip(exact.probabilities, sparse.probabilities):
            assert p == pytest.approx(q, abs=1e-10)
        assert sparse.residual <= 1e-10

    def test_conserved_product_space(self, oscillator_text):
        net, cs = oscillator_conserved(oscillator_text)
        est = truncated_cme_stationary(net, (3, 3, 3, 3, 3), cs=cs)
        assert len(est.states) == (4**5) * 4
        assert sum(est.probabilities) == pytest.approx(1.0)
        for s, p in zip(est.states, est.probabilities):
            assert s[5] + s[6] == 1 and s[7] + s[8] == 1


class TestIrreducibilityProbe:
    def test_birth_death_interior_connected(self, bd_text):
        connected, size = empirical_irreducibility_probe(
            parse_network(bd_text), (30,)
        )
        assert connected
        assert size == 30  # the top state leaks out of the box

    def test_pure_birth_not_connected(self, pb_text):
        connected, size = empirical_irreducibility_probe(
            parse_network(pb_text), (30,)
        )
        assert not connected
        assert size == 30

    def test_oscillator_consistent_with_proof(self, oscillator_text):
        net, cs = oscillator_conserved(oscillator_text)
        connected, size = empirical_irreducibility_probe(
            net, (6, 6, 6, 6, 6), cs=cs
        )
        assert connected
        assert size > 0
