import random
import time

import numpy as np
import pytest

from ergocheck import (
    analyze,
    check_irreducibility,
    conserved_class_analysis,
    enumerate_conserved_states,
    find_conservation_relations,
    fireable_reactions,
    inverse_network,
    level_decomposition,
    parse_network,
    reorder_conserved_last,
    stoichiometry_matrix,
)
from ergocheck.irreducibility import (
    INCONCLUSIVE,
    IRREDUCIBLE_PROVEN,
    NECESSARY_CONDITION_FAILED,
    reachability_closure,
)
from ergocheck.errors import InternalCheckFailed, OverlappingConservation
from ergocheck.network import StateIndex
from helpers import bfs_reachability, random_network_text


SWITCH = "0 -> X ; 1\nX -> 0 ; 1\nA + X -> B + X ; 1\nB -> A ; 1\n"


def conserved_setup(text, totals):
    net = parse_network(text)
    gammas = find_conservation_relations(stoichiometry_matrix(net))
    net, cs = reorder_conserved_last(net, gammas)
    cs = enumerate_conserved_states(cs, totals)
    return net, cs


class TestFireable:
    def test_unconserved_only(self, bd_text):
        net = parse_network(bd_text)
        assert fireable_reactions(net, frozenset()) == {0}
        assert fireable_reactions(net, frozenset({0})) == {0, 1}

    def test_conserved_demand(self, oscillator_text):
        net, cs = conserved_setup(oscillator_text, (1, 1))
        # nothing available, complexes bound: the two release reactions
        # plus transcription off each bound promoter
        assert fireable_reactions(net, frozenset(), cs, (0, 1, 0, 1)) == {1, 3, 4, 9}
        # nothing available, complexes free: the four leak transcriptions
        assert fireable_reactions(net, frozenset(), cs, (1, 0, 1, 0)) == {5, 10}


class TestReachabilityClosure:
    def test_matches_bfs_on_random_digraphs(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(1, 12)
            z = [
                [1 if rng.random() < 0.25 else 0 for _ in range(n)]
                for _ in range(n)
            ]
            got = reachability_closure(z)
            expected = bfs_reachability(z)
            assert [[int(v) for v in row] for row in got] == expected

    @pytest.mark.parametrize("n", [255, 256, 257, 300])
    def test_matches_bfs_past_256_nodes(self, n):
        # path counts of 256 and more once wrapped to 0 in a uint8 product
        rng = random.Random(n)
        for p in (0.003, 0.01, 0.05):
            z = [[1 if rng.random() < p else 0 for _ in range(n)] for _ in range(n)]
            got = reachability_closure(z)
            assert [[int(v) for v in row] for row in got] == bfs_reachability(z)

    @pytest.mark.parametrize("n", [256, 300])
    def test_complete_digraph(self, n):
        z = [[1] * n for _ in range(n)]
        got = reachability_closure(z)
        assert got.all()
        assert [[int(v) for v in row] for row in got] == bfs_reachability(z)


class TestConservedClasses:
    def test_oscillator_nothing_available(self, oscillator_text):
        net, cs = conserved_setup(oscillator_text, (1, 1))
        analysis = conserved_class_analysis(net, cs, frozenset())
        # both complexes decay irreversibly without S2: the single closed
        # class is the fully-unbound state
        closed = [
            c for c, flag in zip(analysis.classes, analysis.closed_flags) if flag
        ]
        assert len(closed) == 1
        (members,) = closed
        assert {tuple(cs.conserved_states[i].tolist()) for i in members} == {
            (1, 0, 1, 0)
        }
        assert analysis.num_classes > 1

    def test_oscillator_with_repressor_available(self, oscillator_text):
        net, cs = conserved_setup(oscillator_text, (1, 1))
        analysis = conserved_class_analysis(net, cs, frozenset({1}))
        # binding and unbinding both fire: everything communicates
        assert analysis.num_classes == 1
        assert analysis.eta == 1
        assert analysis.classes[0] == frozenset(range(cs.n_c))

    def test_one_way_binding_gives_open_class(self):
        # A + B -> C with no release: (1) -> (0) on the complex chain
        net, cs = conserved_setup(
            "species: A B C\nA + B -> C ; 1\n0 -> A ; 1\n", (1,)
        )
        analysis = conserved_class_analysis(net, cs, frozenset(range(cs.d_u)))
        assert analysis.num_classes == 2
        assert analysis.eta == 1


def reference_classes(net, cs, available):
    """Classes, closed flags and the reactions fireable in each closed
    class, from a dense Z(A) built state by state with fireable_reactions,
    and BFS."""
    states = [tuple(e) for e in cs.conserved_states.tolist()]
    index = {e: i for i, e in enumerate(states)}
    n = len(states)
    z = [[0] * n for _ in range(n)]
    fireable = [fireable_reactions(net, available, cs, e) for e in states]
    for i, e in enumerate(states):
        for k in fireable[i]:
            r = net.reactions[k]
            target = tuple(
                ei - h + hp
                for ei, h, hp in zip(e, r.reactants[cs.d_u:], r.products[cs.d_u:])
            )
            z[i][index[target]] = 1
    reach = bfs_reachability(z)
    classes = []
    for i in range(n):
        if not any(i in c for c in classes):
            classes.append(
                frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
            )
    closed = tuple(
        all(j in c for i in c for j in range(n) if z[i][j]) for c in classes
    )
    closed_fireable = tuple(
        frozenset().union(*(fireable[i] for i in c))
        for c, flag in zip(classes, closed)
        if flag
    )
    return tuple(classes), closed, closed_fireable


# Conversions inside a pool of A, B, C: the first set conserves A + B + C,
# the second A + B + 2C.  Catalysts X and Y are birth-death species.
POOL_MOVES = (
    (("A", "B"), ("B", "A"), ("B", "C"), ("C", "A"), ("A", "C"), ("C", "B")),
    (
        ("A + B", "C"), ("C", "A + B"), ("2*A", "C"),
        ("C", "2*B"), ("A", "B"), ("B", "A"),
    ),
)


def random_pool_chain(rng, two_pools):
    lines = ["0 -> X ; 1", "X -> 0 ; 1", "0 -> Y ; 1", "Y -> 0 ; 1"]
    moves = POOL_MOVES[rng.randrange(2)] if not two_pools else POOL_MOVES[0][:2]
    for lhs, rhs in rng.sample(moves, rng.randint(2, len(moves))):
        cat = rng.choice(["", " + X", " + Y"])
        lines.append(f"{lhs}{cat} -> {rhs}{cat} ; 1")
    if two_pools:
        for lhs, rhs in (("D", "E"), ("E", "D")):
            cat = rng.choice(["", " + X", " + Y"])
            lines.append(f"{lhs}{cat} -> {rhs}{cat} ; 1")
    return "\n".join(lines) + "\n"


def reference_levels(net, cs=None):
    """Levels taken one at a time from the dense references: the products
    of `fireable_reactions` without conservation, and of each closed class
    of `reference_classes` with it.  Returns (levels, uncovered)."""
    d_u = cs.d_u if cs is not None else net.num_species
    h, levels = frozenset(), []
    while len(h) < d_u:
        if cs is None:
            per_class = [fireable_reactions(net, h)]
        else:
            per_class = reference_classes(net, cs, h)[2]
        made = [
            {i for k in ks for i in range(d_u) if net.reactions[k].products[i]}
            for ks in per_class
        ]
        g = (set.intersection(*made) if made else set()) - h
        if not g:
            break
        levels.append(frozenset(g))
        h |= g
    return tuple(levels), frozenset(range(d_u)) - h


def random_gated_chain(rng):
    """A pool of A, B, C with random moves, catalysed or not by X and Y,
    where pool species make X or Y: the closed classes of the conserved
    chain can differ in what they make."""
    lines = ["X -> 0 ; 1", "Y -> 0 ; 1"]
    lines += [f"0 -> {u} ; 1" for u in "XY" if rng.random() < 0.4]
    for lhs, rhs in rng.sample(POOL_MOVES[0], rng.randint(1, 4)):
        cat = rng.choice(["", " + X", " + Y"])
        lines.append(f"{lhs}{cat} -> {rhs}{cat} ; 1")
    for _ in range(rng.randint(1, 3)):
        pool, made = rng.choice("ABC"), rng.choice("XY")
        cat = rng.choice(["", " + " + ("Y" if made == "X" else "X")])
        lines.append(f"{pool}{cat} -> {pool}{cat} + {made} ; 1")
    return "\n".join(lines) + "\n"


class TestSparseClassAnalysis:
    def test_matches_bfs_on_random_chains_past_256_states(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 12:
            text = random_pool_chain(rng, two_pools=checked % 3 == 2)
            net = parse_network(text)
            gammas = find_conservation_relations(stoichiometry_matrix(net))
            net, cs0 = reorder_conserved_last(net, gammas)
            if cs0.num_relations == 1:
                totals = (rng.randint(22, 34),)
            elif cs0.num_relations == 2:
                totals = (rng.randint(16, 22), rng.randint(16, 22))
            else:
                continue
            cs = enumerate_conserved_states(cs0, totals)
            if not 256 < cs.n_c <= 700:
                continue
            available = frozenset(rng.sample(range(cs.d_u), rng.randint(0, cs.d_u)))
            analysis = conserved_class_analysis(net, cs, available)
            classes, closed, fireable = reference_classes(net, cs, available)
            assert analysis.classes == classes
            assert analysis.closed_flags == closed
            assert analysis.closed_fireable == fireable
            checked += 1

    @pytest.mark.parametrize("reverse", [True, False])
    def test_coordinates_beyond_int64_stay_exact(self, reverse):
        # weights (10**20, 1): three states whose keys leave int64
        big = 10**20
        text = f"A -> {big}*B ; 1\n" + (f"{big}*B -> A ; 1\n" if reverse else "")
        net, cs = conserved_setup(text, (2 * big,))
        assert cs.n_c == 3
        assert cs.conserved_states.dtype == object
        assert cs.index.states.dtype == object
        analysis = conserved_class_analysis(net, cs, frozenset())
        classes, closed, fireable = reference_classes(net, cs, frozenset())
        assert analysis.classes == classes
        assert analysis.closed_flags == closed
        assert analysis.closed_fireable == fireable
        assert analysis.num_classes == (1 if reverse else 3)


class TestStateIndex:
    def test_meets_matches_a_row_scan(self):
        rng = random.Random(5)
        for _ in range(50):
            # the index needs rows in lexicographic order, each once
            states = np.unique(
                [[rng.randint(0, 4) for _ in range(3)] for _ in range(rng.randint(1, 30))],
                axis=0,
            )
            demand = [rng.randint(0, 5) for _ in range(3)]
            mask = StateIndex(states).meets(demand)
            assert mask.tolist() == [
                all(x >= h for x, h in zip(row, demand)) for row in states.tolist()
            ]

    @pytest.mark.parametrize(
        "rows,dtype",
        [
            ([[0, 1], [0, 0]], np.int64),
            ([[1, 0], [0, 3]], np.int64),
            ([[0, 2], [0, 2]], np.int64),
            ([[0, 0], [1, 2], [1, 1]], np.int64),
            ([[2**63, 1], [0, 5]], object),
            ([[1, 2**64], [1, 2**64]], object),
        ],
    )
    def test_rows_out_of_order_or_repeated_raise(self, rows, dtype):
        # raised, not asserted, so the check holds under python -O too
        with pytest.raises(InternalCheckFailed, match="not distinct and in order"):
            StateIndex(np.array(rows, dtype=dtype))

    @pytest.mark.parametrize("oracle,built", [("off", 1), ("cme", 2)])
    def test_analyze_indexes_the_conserved_states_once(
        self, oscillator_text, monkeypatch, oracle, built
    ):
        # the class check and every forward and inverse level share one
        # index; the CME chain adds one for its box
        calls = []
        init = StateIndex.__init__

        def counting(self, states):
            calls.append(len(states))
            init(self, states)

        monkeypatch.setattr(StateIndex, "__init__", counting)
        report = analyze(oscillator_text, totals=(1, 1), oracle=oracle)
        assert report.verdict == "PROVEN_ERGODIC"
        irr = report.irreducibility
        # one class analysis for the check and one per level: six in all
        assert len(irr.forward_levels.levels) + len(irr.inverse_levels.levels) == 5
        assert len(calls) == built
        assert calls[0] == report.conserved.n_c == 4


class TestLevels:
    def test_birth_death(self, bd_text):
        dec = level_decomposition(parse_network(bd_text))
        assert dec.levels == (frozenset({0}),)
        assert dec.exhaustive

    def test_open_cascade_autocatalysis_uncovered(self, cascade_open_text):
        dec = level_decomposition(parse_network(cascade_open_text))
        assert dec.levels == (frozenset({0}),)  # A is producible
        assert not dec.exhaustive
        assert dec.uncovered == frozenset({1})  # B never starts

    def test_chain_orders_levels(self):
        net = parse_network("0 -> A ; 1\nA -> A + B ; 1\nB -> B + C ; 1\n")
        dec = level_decomposition(net)
        assert dec.levels == (frozenset({0}), frozenset({1}), frozenset({2}))
        assert frozenset().union(*dec.levels) == frozenset({0, 1, 2})

    def test_oscillator_forward(self, oscillator_text):
        net, cs = conserved_setup(oscillator_text, (1, 1))
        dec = level_decomposition(net, cs)
        assert dec.levels == (
            frozenset({0, 2}),
            frozenset({1, 3}),
            frozenset({4}),
        )
        assert dec.exhaustive

    def test_oscillator_inverse(self, oscillator_text):
        net, cs = conserved_setup(oscillator_text, (1, 1))
        dec = level_decomposition(inverse_network(net), cs)
        assert dec.levels == (frozenset({0, 1, 2, 3}), frozenset({4}))
        assert dec.exhaustive

    def test_oscillator_without_leak_transcription_stalls(self, oscillator_text):
        # drop the S6 -> S6 + S1 and S8 -> S8 + S3 leak reactions: from
        # the unbound closed class nothing is producible any more
        lines = [
            l
            for l in oscillator_text.splitlines()
            if l not in ("S6 -> S6 + S1 ; 1", "S8 -> S8 + S3 ; 1")
        ]
        net, cs = conserved_setup("\n".join(lines) + "\n", (1, 1))
        dec = level_decomposition(net, cs)
        assert dec.levels == ()
        assert not dec.exhaustive
        assert dec.uncovered == frozenset(range(5))

    def test_matches_the_reference_on_random_networks(self):
        # forward and inverse levels, with and without conservation, at
        # totals up to 3
        rng = random.Random(1312)
        cases = {False: 0, True: 0}
        shapes, split = set(), 0
        while min(cases.values()) < 250:
            pick = rng.random()
            if pick < 0.15:
                text = random_pool_chain(rng, two_pools=rng.random() < 0.3)
            elif pick < 0.35:
                text = random_gated_chain(rng)
            else:
                text = random_network_text(rng, max_species=5, max_reactions=7)
            net = parse_network(text)
            try:
                gammas = find_conservation_relations(stoichiometry_matrix(net))
            except OverlappingConservation:
                continue
            cs = None
            if gammas:
                net, cs = reorder_conserved_last(net, gammas)
                products = [r.products for r in net.reactions]
                totals = tuple(rng.randint(0, 3) for _ in gammas)
                cs = enumerate_conserved_states(cs, totals)
                if not cs.n_c:  # check_irreducibility stops before the levels
                    continue
                made = {
                    frozenset(i for k in ks for i in range(cs.d_u) if products[k][i])
                    for ks in reference_classes(net, cs, frozenset())[2]
                }
                split += len(made) > 1
            for network in (net, inverse_network(net)):
                dec = level_decomposition(network, cs)
                levels, uncovered = reference_levels(network, cs)
                assert dec.levels == levels
                assert dec.uncovered == uncovered
                assert dec.exhaustive == (not uncovered)
                shapes.add((cs is not None, len(levels) > 1, not uncovered))
            cases[cs is not None] += 1
        # several levels and stalls, exhaustive runs, in both candidate
        # spaces; and closed classes that make different species
        assert len(shapes) == 8
        assert split >= 20


class TestVerdicts:
    def test_birth_death_proven(self, bd_text):
        v = check_irreducibility(parse_network(bd_text))
        assert v.status == IRREDUCIBLE_PROVEN
        assert v.rank_value == v.rank_required == 1
        assert v.lattice_ok
        assert v.forward_levels.exhaustive and v.inverse_levels.exhaustive

    def test_pure_birth_fails_flux(self, pb_text):
        v = check_irreducibility(parse_network(pb_text))
        assert v.status == NECESSARY_CONDITION_FAILED
        assert v.failed_condition == "lfp"
        assert v.lfp_outcome.status == "infeasible"

    def test_rank_deficiency_detected(self):
        v = check_irreducibility(parse_network("0 -> A + B ; 1\nA + B -> 0 ; 1\n"))
        assert v.status == NECESSARY_CONDITION_FAILED
        assert v.failed_condition == "rank"
        assert (v.rank_value, v.rank_required) == (1, 2)
        # the rank comes from the HNF, but a rank failure reports no lattice
        assert v.hnf_pivots == ()
        assert v.lattice_ok is False

    def test_proper_sublattice_detected(self):
        v = check_irreducibility(parse_network("0 -> 2*A ; 1\n2*A -> 0 ; 1\n"))
        assert v.status == NECESSARY_CONDITION_FAILED
        assert v.failed_condition == "lattice"
        assert v.hnf_pivots == (2,)

    def test_open_cascade_inconclusive(self, cascade_open_text):
        v = check_irreducibility(parse_network(cascade_open_text))
        assert v.status == INCONCLUSIVE
        assert v.failed_condition == "forward-exhaustive"

    def test_oscillator_proven(self, oscillator_text):
        net, cs = conserved_setup(oscillator_text, (1, 1))
        v = check_irreducibility(net, cs)
        assert v.status == IRREDUCIBLE_PROVEN
        assert v.rank_value == v.rank_required == 5
        assert v.class_analysis.eta == 1
        assert v.lfp_outcome.status == "feasible"

    def test_empty_conserved_space(self):
        net, cs = conserved_setup("2*B -> 3*A ; 1\n3*A -> 2*B ; 1\n", (1,))
        v = check_irreducibility(net, cs)
        assert v.status == NECESSARY_CONDITION_FAILED
        assert v.failed_condition == "eta"
        assert "EmptyConservedSpace" in v.diagnostic

    def test_switch_past_256_states_is_proven(self):
        # total 513 (n_c 514) was once disproven by a uint8 wrap
        v = check_irreducibility(*conserved_setup(SWITCH, (513,)))
        assert v.status == IRREDUCIBLE_PROVEN
        assert v.class_analysis.num_classes == 1
        assert analyze(SWITCH, totals=(513,)).verdict == "PROVEN_ERGODIC"

    def test_switch_of_a_hundred_thousand_states_is_fast(self):
        start = time.perf_counter()
        report = analyze(SWITCH, totals=(10**5,))
        elapsed = time.perf_counter() - start
        assert report.verdict == "PROVEN_ERGODIC"
        assert elapsed < 10.0, f"{elapsed:.1f}s"

    def test_total_beyond_int64_is_inconclusive(self):
        report = analyze("0 -> X ; 1\nX -> 0 ; 1\nE + X -> E ; 1\n", totals=(10**30,))
        assert report.verdict == "INCONCLUSIVE"

    def test_trapped_complex_fails_eta(self):
        # complex formation is irreversible, so the conserved chain has a
        # second, non-closed class and the closed one excludes total-freedom
        net, cs = conserved_setup(
            "species: A B C\n0 -> A ; 1\nA -> 0 ; 1\nA + B -> C ; 1\n", (1,)
        )
        v = check_irreducibility(net, cs)
        assert v.status == NECESSARY_CONDITION_FAILED
        assert v.failed_condition == "eta"
