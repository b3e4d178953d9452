import gc
import math
import random
import re
import time

import numpy as np
import pytest
import scipy.sparse.linalg

import ergocheck.oracle as oracle_mod
from ergocheck import (
    ErgocheckError,
    PropensityOverflow,
    StateSpaceTooLarge,
    Trajectory,
    analyze,
    batch_means,
    empirical_irreducibility_probe,
    enumerate_conserved_states,
    find_conservation_relations,
    gillespie_simulate,
    parse_network,
    propensity,
    reorder_conserved_last,
    stoichiometry_matrix,
    time_average,
    truncated_cme_stationary,
)
from ergocheck.network import DEFAULT_MAX_STATES
from ergocheck.oracle import CME_STATES_HIGH_DIM, SSA_T_END
from conftest import load
from helpers import (
    ReferenceTrajectory,
    assert_in_key_order,
    batch_means_reference,
    box_states,
    cascade_text,
    box_transitions,
    exact_stationary,
    gillespie_reference,
    random_network_text,
    rings_text,
    time_average_reference,
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


def fields(traj):
    """A trajectory's fields as plain Python values, for comparison."""
    return traj.times.tolist(), traj.states.tolist(), traj.seed, traj.t_end


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
        assert fields(a) == fields(b)
        assert fields(c)[:2] != fields(a)[:2]

    def test_first_jump_from_empty_is_a_birth(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 10.0, seed=0)
        assert traj.states[:2].tolist() == [[0], [1]]

    def test_absorbing_state_stops(self):
        net = parse_network("S -> 0 ; 1\n")
        traj = gillespie_simulate(net, (0,), 10.0, seed=1)
        assert traj.states.tolist() == [[0]]
        assert traj.states.dtype == np.int64
        assert traj.times.tolist() == [0.0]

    def test_jump_budget_counts_the_species(self, bd_text):
        # a trajectory holds (jumps + 1) x d counts: 100 states buy 100
        # jumps of one species, and 50 once an inert second one is added
        for text, budget in ((bd_text, 100), ("species: S C\n" + bd_text, 50)):
            net = parse_network(text)
            message = f"bound of {budget} jumps before t = 1e+09"
            with pytest.raises(StateSpaceTooLarge, match=re.escape(message)):
                gillespie_simulate(
                    net, (0,) * net.num_species, 1e9, seed=5, max_states=100
                )

    def test_jump_sizes_match_stoichiometry(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 200.0, seed=3)
        assert (np.abs(np.diff(traj.states[:, 0])) == 1).all()
        assert (traj.states >= 0).all()

    def test_jump_count_and_holding_times_of_a_poisson_process(self):
        # births at rate 2 to t = 5000: the jump count is Poisson(10**4) and
        # the holding times are exponential with mean 1/2 and variance 1/4;
        # each is held within 5 standard errors
        traj = gillespie_simulate(parse_network("0 -> S ; 2\n"), (0,), 5000.0, seed=0)
        n = len(traj.states) - 1
        assert abs(n - 10**4) <= 5 * 100
        held = np.diff(traj.times)
        assert abs(held.mean() - 1 / 2) <= 5 * math.sqrt(1 / 4 / n)
        # the sample variance of an exponential with rate 2 has variance
        # (mu_4 - sigma^4) / n = (9 - 1) / 2**4 / n
        assert abs(held.var(ddof=1) - 1 / 4) <= 5 * math.sqrt(8 / 16 / n)

    def test_conserved_totals_are_invariant(self, oscillator_text):
        net, cs = oscillator_conserved(oscillator_text)
        x0 = (0, 0, 0, 0, 0, 1, 0, 1, 0)
        traj = gillespie_simulate(net, x0, 30.0, seed=11)
        for gamma, total in zip(cs.gammas, cs.totals):
            assert (traj.states @ np.array(gamma) == total).all()


class TestTimeAverages:
    def test_constant_function(self):
        # C takes part in no reaction: its average is its count
        net = parse_network("species: S C\n0 -> S ; 1\nS -> 0 ; 1\n")
        traj = gillespie_simulate(net, (0, 4), 25.0, seed=2)
        assert len(traj.states) > 2
        assert time_average(traj)[1] == pytest.approx(4.0)

    def test_hand_built_trajectory(self):
        traj = Trajectory(
            times=np.array([0.0, 0.4]), states=np.array([[0], [2]]), seed=0, t_end=1.0
        )
        assert time_average(traj) == pytest.approx([1.2])

    def test_batch_means_partition_the_average(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 400.0, seed=7)
        means, se = batch_means(traj, 0)
        assert len(means) == 20
        assert means.mean() == pytest.approx(time_average(traj)[0], abs=1e-9)
        assert se > 0

    def test_batch_means_constant_trajectory(self):
        traj = Trajectory(
            times=np.array([0.0]), states=np.array([[3]]), seed=0, t_end=10.0
        )
        means, se = batch_means(traj, 0)
        assert all(m == pytest.approx(3.0) for m in means)
        assert se == pytest.approx(0.0)

    def test_long_run_matches_poisson_mean(self, bd_text):
        traj = gillespie_simulate(parse_network(bd_text), (0,), 20000.0, seed=9)
        mean = time_average(traj)[0]
        _, se = batch_means(traj, 0)
        assert abs(mean - 1.0) <= max(3 * se, 0.05)


class TestFloatRange:
    """A count beyond the float range that no propensity reads still meets
    a float in the averages and the CME means: PropensityOverflow, not a
    bare OverflowError.  The propensities' own cases run through the CLI."""

    BIG = 10**400
    MESSAGE = "a species count exceeds the float range"
    IDLE = "species: S C\n0 -> S ; 1\nS -> 0 ; 1\n"

    def test_ssa_averages(self):
        traj = gillespie_simulate(parse_network(self.IDLE), (0, self.BIG), 5.0, seed=2)
        assert traj.states.dtype == object
        assert traj.states[-1, 1] == self.BIG
        with pytest.raises(PropensityOverflow, match=self.MESSAGE):
            time_average(traj)
        with pytest.raises(PropensityOverflow, match=self.MESSAGE):
            batch_means(traj, 1)
        assert len(batch_means(traj, 0)[0]) == 20  # S alone still fits

    def test_cme_means(self):
        net = parse_network(self.IDLE)
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        net, cs = reorder_conserved_last(net, gammas)
        cs = enumerate_conserved_states(cs, (self.BIG,))
        est = truncated_cme_stationary(net, [4], cs)
        assert est.mean(0) > 0
        with pytest.raises(PropensityOverflow, match=self.MESSAGE):
            est.mean(1)


def ssa_cases(seed, count):
    """(net, x0, t_end, seed, max_steps) on seeded random networks (some
    with conservation relations, second-order reactions and fractional
    rates), plus hand-picked edge cases; max_steps is the jump budget, or
    None for the default one."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        net = parse_network(random_network_text(rng))
        x0 = tuple(rng.randint(0, 4) for _ in net.species)
        cases.append((net, x0, 20.0, rng.randrange(2**31), rng.choice([40, 2000])))
    bd = "0 -> S ; 1\nS -> 0 ; 1\n"
    death = "S -> 0 ; 1\n"
    dimer = "0 -> S ; 1\n2*S -> 0 ; 1/3\n"
    pair = "0 -> A ; 1/2\n0 -> B ; 1/5\nA + B -> C ; 1\nC -> 0 ; 1\n"
    for text, x0, t_end, sim_seed, max_steps in [
        (bd, (0,), 200.0, 1, None),  # cut at t_end
        (bd, (0,), 1e9, 2, 100),  # over the budget
        (death, (0,), 10.0, 3, None),  # absorbing start
        (death, (6,), 1e3, 4, None),  # absorbed on the way
        ("A + B -> 0 ; 1\n", (1, 0), 10.0, 5, None),
        ("0 -> S ; 1/4\n2*S -> 0 ; 1/2\n2*S -> S ; 3\n", (9,), 50.0, 6, None),
        # rates that are not dyadic: the order of the running sum shows
        (
            "0 -> S ; 0.7\n0 -> 2*S ; 0.1\nS -> 0 ; 0.3\n2*S -> S ; 1/7\nS -> 0 ; 1/3\n",
            (4,), 50.0, 9, None,
        ),
        # states beyond int64: the visited states are summed over Python ints
        (f"0 -> X ; 1\nX -> 0 ; 1\nA -> {10**19}*B ; 1\n", (0, 5, 0), 20.0, 7, None),
        (death, (2**70,), 1.0, 8, None),  # rate guard
        # no jump, but a displacement beyond int64
        (f"A -> {10**20}*B ; 1\n", (0, 0), 10.0, 10, None),
        # 2*S from 0 (the product is -0.0) and from 1
        (dimer, (0,), 50.0, 11, None),
        (dimer, (1,), 50.0, 12, None),
        # A + B with A = 0 (the early return) and with B = 0
        (pair, (0, 4, 0), 50.0, 13, None),
        (pair, (4, 0, 0), 50.0, 14, None),
        # shapes of the general loop
        ("0 -> S ; 2\n3*S -> S ; 1/7\n", (6,), 50.0, 15, None),
        ("0 -> A ; 1\n0 -> B ; 1/2\n2*A + B -> A ; 1/3\nA -> 0 ; 1/4\n",
         (1, 2), 50.0, 16, None),
        # one reaction listed twice
        ("0 -> S ; 1\nS -> 0 ; 1/3\nS -> 0 ; 1/3\n", (2,), 50.0, 17, None),
        # uniforms come in blocks of 1,024, two a jump: a run across four
        # blocks, a last jump on a block's last uniform, and one jump more
        (bd, (0,), 1e9, 18, 1600),
        (bd, (0,), 1e9, 19, 512),
        (bd, (0,), 1e9, 20, 513),
        # a total rate beyond the guard first at the tenth state, (11,)
        ("S -> 2*S ; 1e14\n", (2,), 50.0, 21, None),
    ]:
        cases.append((parse_network(text), x0, t_end, sim_seed, max_steps))
    return cases


class TestReferenceSsa:
    """The dependency-graph SSA and the array time averages against the
    full-sweep loops in `helpers`: equal trajectories and equal floats."""

    CASES = ssa_cases(17, 150)

    def compare_every_case(self):
        """Checks each case against the reference and returns how many
        cases showed each property."""
        capped = absorbed = conserved = huge = guarded = late_guard = blocks = 0
        for net, x0, t_end, seed, max_steps in self.CASES:
            d = net.num_species
            bound = {} if max_steps is None else {"max_states": max_steps * d}
            over = None if max_steps is None else max_steps + 1
            try:
                ref = gillespie_reference(net, x0, t_end, seed, over)
            except PropensityOverflow:
                with pytest.raises(PropensityOverflow):
                    gillespie_simulate(net, x0, t_end, seed, **bound)
                guarded += 1
                try:  # does the initial state pass the guard?
                    gillespie_reference(net, x0, 0.0, seed)
                except PropensityOverflow:
                    continue
                late_guard += 1
                continue
            if len(ref.states) - 1 == over:
                # one jump past the budget raises; cut midway between the
                # last jump within it and that one, the run is kept whole
                message = f"bound of {max_steps} jumps before t = {t_end:g}"
                with pytest.raises(StateSpaceTooLarge, match=re.escape(message)):
                    gillespie_simulate(net, x0, t_end, seed, **bound)
                t_end = (ref.times[max_steps] + ref.times[over]) / 2
                ref = gillespie_reference(net, x0, t_end, seed)
                assert len(ref.states) - 1 == max_steps
                capped += 1
            traj = gillespie_simulate(net, x0, t_end, seed, **bound)
            assert traj.times.tolist() == list(ref.times)
            assert traj.states.tolist() == [list(s) for s in ref.states]
            assert (traj.seed, traj.t_end) == (ref.seed, ref.t_end)
            # repr tells every float apart, -0.0 from 0.0 included
            averages = time_average(traj)
            assert len(averages) == net.num_species
            for c in range(net.num_species):
                f = lambda s, c=c: s[c]
                assert repr(averages[c]) == repr(time_average_reference(ref, f))
                means, se = batch_means(traj, c)
                ref_means, ref_se = batch_means_reference(ref, f)
                assert repr((means.tolist(), se)) == repr((ref_means.tolist(), ref_se))
            absorbed += len(traj.states) == 1
            try:
                conserved += bool(find_conservation_relations(stoichiometry_matrix(net)))
            except ErgocheckError:  # relations exist but overlap
                conserved += 1
            huge += traj.states.dtype == object and traj.states.max() >= 2**63
            # two uniforms a jump: more jumps than a block has uniforms need a third
            blocks += len(traj.states) - 1 > oracle_mod.UNIFORM_BLOCK
        return capped, absorbed, conserved, huge, guarded, late_guard, blocks

    def test_trajectories_and_averages_are_identical(self):
        assert all(self.compare_every_case())

    def test_one_row_table_gives_the_same_trajectories(self, monkeypatch):
        # the table keeps max(1, slots // K) visited states: with one row
        # only the initial state is stored, every other state is built
        # again on each visit, and a guard first exceeded at a later state
        # is met after the table is full
        monkeypatch.setattr(oracle_mod, "SSA_TABLE_SLOTS", 1)
        assert all(self.compare_every_case())

    def test_no_reference_cycle_is_left(self):
        # rows of the table name each other by index: a table linked by
        # reference would leave cycles for the collector to free
        net = parse_network(load("switch"))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            traj = gillespie_simulate(net, (0, 5, 0), SSA_T_END, seed=3)
            assert len(traj.states) > 1000
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_repeated_times_and_times_on_window_edges(self):
        # a zero holding interval (t + dt == t in floats) and jumps that land
        # exactly on window edges (0.5, 1.0, 9.5 with 20 windows on [0, 10])
        ref = ReferenceTrajectory(
            times=(0.0, 0.5, 0.5, 0.7, 1.0, 3.3, 9.5, 9.9),
            states=((1,), (4,), (2,), (7,), (3,), (0,), (5,), (6,)),
            seed=0,
            t_end=10.0,
        )
        traj = Trajectory(
            np.array(ref.times), np.array(ref.states), ref.seed, ref.t_end
        )
        f = lambda s: s[0]
        assert repr(time_average(traj)) == repr([time_average_reference(ref, f)])
        means, se = batch_means(traj, 0)
        ref_means, ref_se = batch_means_reference(ref, f)
        assert repr((means.tolist(), se)) == repr((ref_means.tolist(), ref_se))

    def test_jump_budget_raises_quickly(self):
        # jumps grow with the rate: 0 -> S at 1000 makes about 10**6 jumps
        # by t = 500, and ten times the rate would exhaust memory; a
        # trajectory holds (jumps + 1) x d counts, so the 20-species cascade
        # may make 10**4 // 20 jumps
        for text, budget in (
            ("0 -> S ; 1000\nS -> 0 ; 1\n", 10**4),
            (cascade_text(20), 500),
        ):
            start = time.perf_counter()
            report = analyze(text, oracle="ssa", max_states=10**4)
            assert time.perf_counter() - start < 1.0
            assert report.verdict == "PROVEN_ERGODIC"
            assert report.oracle == {
                "mode": "ssa",
                "error": f"SSA trajectory exceeded the bound of {budget} jumps "
                "before t = 500",
            }
        # from (3,) three deaths absorb the chain: a run that ends exactly
        # at the budget is kept
        report = analyze("S -> 0 ; 1\n", oracle="ssa", max_states=3)
        assert [run["jumps"] for run in report.oracle["runs"]] == [0, 3]
        report = analyze("S -> 0 ; 1\n", oracle="ssa", max_states=2)
        assert report.oracle == {
            "mode": "ssa",
            "error": "SSA trajectory exceeded the bound of 2 jumps before t = 500",
        }

    def test_conservation_is_checked_exactly_beyond_int64(self):
        # the relation (2**64, 2**48, 2**32, 2**16, 1) leaves int64 while
        # every displacement and state fits; the chain stays at 0
        text = "".join(f"A{i} -> 65536*A{i + 1} ; 1\n" for i in range(4))
        report = analyze(text, totals=(0,), oracle="ssa")
        assert report.conserved.gammas == ((2**64, 2**48, 2**32, 2**16, 1),)
        assert [run["jumps"] for run in report.oracle["runs"]] == [0, 0]
        assert report.oracle["conservation_constant"]

    def test_zero_length_trajectory_has_no_time_average(self, bd_text):
        args = (parse_network(bd_text), (2,), 0.0, 1)
        with pytest.raises(ZeroDivisionError):
            time_average_reference(gillespie_reference(*args), lambda s: s[0])
        with pytest.raises(ZeroDivisionError):
            time_average(gillespie_simulate(*args))


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
        assert est.states.tolist() == [[0]]
        assert est.probabilities.tolist() == [1.0]

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
        for box in ((60,), (2500,)):
            with pytest.raises(StateSpaceTooLarge, match="singular"):
                truncated_cme_stationary(net, box)

    @pytest.mark.parametrize("box", [(60,), (2500,)])
    def test_two_closed_classes_raise(self, box):
        # births and deaths in pairs keep the parity: the even and the odd
        # states are two closed classes, so the stationary law is not unique
        net = parse_network("0 -> 2*S ; 1\n2*S -> 0 ; 1\n")
        with pytest.raises(StateSpaceTooLarge, match="singular"):
            truncated_cme_stationary(net, box)

    def test_failed_float_factorization_raises(self, bd_text, monkeypatch):
        # SuperLU raises instead of returning NaN on some singular systems
        # (seen on a four-species network with a 14^4 box)
        def fail(*args, **kwargs):
            raise RuntimeError("failed to factorize matrix")

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", fail)
        with pytest.raises(StateSpaceTooLarge, match="singular"):
            truncated_cme_stationary(parse_network(bd_text), (2500,))

    def test_conserved_product_space(self, oscillator_text):
        net, cs = oscillator_conserved(oscillator_text)
        est = truncated_cme_stationary(net, (3, 3, 3, 3, 3), cs=cs)
        assert len(est.states) == (4**5) * 4
        assert sum(est.probabilities) == pytest.approx(1.0)
        assert (est.states[:, 5] + est.states[:, 6] == 1).all()
        assert (est.states[:, 7] + est.states[:, 8] == 1).all()


class TestOracleBox:
    def test_high_dimensional_box_is_small(self, oscillator_text):
        # five unconserved dimensions: a 50,000-state budget gave 31,104
        # states and a sparse LU that ran for minutes at 2.6 GB
        start = time.perf_counter()
        report = analyze(oscillator_text, totals=(1, 1), oracle="cme")
        assert time.perf_counter() - start < 5.0
        box = report.oracle["box"]
        assert box == [3] * 5
        states = math.prod(b + 1 for b in box) * report.conserved.n_c
        assert states <= CME_STATES_HIGH_DIM

    def test_conserved_dimensions_count_towards_the_budget(self):
        # rings_text(5) has one unconserved species, but its chain has nine
        # dimensions (ten conserved species, two relations): the 50,000-state
        # budget gave a box of 60 on 525 conserved states, 17.7 s and 826 MB
        start = time.perf_counter()
        report = analyze(rings_text(5), totals=(2, 3), oracle="cme")
        assert time.perf_counter() - start < 5.0
        assert report.oracle["box"] == [6]
        assert report.oracle["truncation_flagged"]
        # the switch's chain has two dimensions and keeps the larger budget
        report = analyze(load("switch"), totals=(40,), oracle="cme")
        assert report.oracle["box"] == [60]


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


def random_chain_cases(seed, count):
    """(net, bounds, cs) for seeded random networks on small boxes; totals
    are drawn for every network with conservation relations."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        net = parse_network(random_network_text(rng))
        try:
            gammas = find_conservation_relations(stoichiometry_matrix(net))
        except ErgocheckError:  # relations outside the method's scope
            continue
        net, cs = reorder_conserved_last(net, gammas)
        if cs.d_c:
            cs = enumerate_conserved_states(
                cs, tuple(rng.randint(0, 3) for _ in cs.gammas)
            )
            if not cs.n_c:
                continue
        else:
            cs = None
        d_u = cs.d_u if cs is not None else net.num_species
        n_c = cs.n_c if cs is not None else 1
        bounds = tuple(rng.randint(0, 4) for _ in range(d_u))
        if math.prod(b + 1 for b in bounds) * n_c <= 120:
            cases.append((net, bounds, cs))
    return cases


def big_weight_case():
    # the relation 10**20 A + B: conserved coordinates far beyond int64
    big = 10**20
    net = parse_network(f"0 -> X ; 1\nX -> 0 ; 1\nA -> {big}*B ; 1\n")
    gammas = find_conservation_relations(stoichiometry_matrix(net))
    net, cs = reorder_conserved_last(net, gammas)
    return net, (3,), enumerate_conserved_states(cs, (2 * big,))


class TestChainBuilder:
    """The array-built chain against the state-by-state reference walk and
    an exact rational stationary solve."""

    CASES = random_chain_cases(31, 60) + [big_weight_case()]

    def test_matches_reference_walk(self):
        for net, bounds, cs in self.CASES:
            states = box_states(net, bounds, cs)
            chain = oracle_mod._build_chain(net, bounds, cs, DEFAULT_MAX_STATES)
            assert [tuple(s) for s in chain.states.tolist()] == states
            assert_in_key_order(chain.states)  # as StateIndex searches them
            got = [
                (i, k, j if j >= 0 else None)
                for i, k, j in zip(
                    chain.src.tolist(), chain.reaction.tolist(), chain.dst.tolist()
                )
            ]
            # the reference lists by (i, k), which is unique; j may be None
            assert sorted(got, key=lambda t: t[:2]) == box_transitions(net, states)
            for i, k, rate in zip(chain.src, chain.reaction, chain.rate):
                expected = float(propensity(net, int(k), states[i]))
                assert abs(rate - expected) <= 1e-15 * expected

    def test_stationary_matches_exact_solve(self):
        singular = []
        for net, bounds, cs in self.CASES:
            states = box_states(net, bounds, cs)
            exact = exact_stationary(net, states)
            singular.append(exact is None)
            if exact is None:  # other than one closed class
                with pytest.raises(StateSpaceTooLarge, match="singular"):
                    truncated_cme_stationary(net, bounds, cs)
                continue
            est = truncated_cme_stationary(net, bounds, cs)
            assert [tuple(s) for s in est.states.tolist()] == states
            for p, q in zip(est.probabilities, exact):
                assert abs(p - q) <= 1e-10
            probe = empirical_irreducibility_probe(net, bounds, cs)
            assert (est.interior_strongly_connected, est.interior_size) == probe
        assert any(singular) and not all(singular)
        assert any(cs is not None for _, _, cs in self.CASES)
        assert any(cs is None for _, _, cs in self.CASES)

    def test_analyze_builds_the_chain_once(self, bd_text, monkeypatch):
        calls = []
        build = oracle_mod._build_chain

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(oracle_mod, "_build_chain", counting)
        report = analyze(bd_text, oracle="cme")
        assert len(calls) == 1
        assert report.oracle["interior_strongly_connected"]
