import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocheck import (
    DuplicateSpecies,
    MissingTotals,
    NonPositiveRate,
    OverlappingConservation,
    ParseError,
    StateSpaceTooLarge,
    enumerate_conserved_states,
    find_conservation_relations,
    inverse_network,
    network_to_text,
    parse_network,
    propensity,
    reorder_conserved_last,
    stoichiometry_matrix,
)
from ergocheck import network as network_mod
from ergocheck.errors import InputError
from ergocheck.network import ConservedStructure
from helpers import (
    assert_in_key_order,
    conservation_relations_reference,
    conserved_states_reference,
    random_network_text,
    rings_text,
)


def relations_or_overlap(find, m):
    try:
        return find(m)
    except OverlappingConservation:
        return "overlap"


class TestParsing:
    def test_birth_death(self, bd_text):
        net = parse_network(bd_text)
        assert net.species == ("S",)
        assert net.num_reactions == 2
        assert net.reactions[0].reactants == (0,)
        assert net.reactions[0].products == (1,)
        assert net.reactions[1].reactants == (1,)
        assert net.reactions[1].products == (0,)
        assert all(r.rate == 1 for r in net.reactions)

    def test_species_header_fixes_order(self, oscillator_text):
        net = parse_network(oscillator_text)
        assert net.species == tuple(f"S{i}" for i in range(1, 10))
        assert net.num_reactions == 16
        # S6 + S2 -> S7
        r = net.reactions[0]
        assert r.reactants[5] == 1 and r.reactants[1] == 1
        assert r.products[6] == 1
        assert r.order == 2

    def test_without_header_first_appearance_order(self):
        net = parse_network("B -> A ; 1\nA -> 0 ; 2\n")
        assert net.species == ("B", "A")
        assert net.reactions[1].rate == 2

    def test_coefficients(self):
        net = parse_network("2*A -> 3*A ; 1/2\n")
        assert net.reactions[0].reactants == (2,)
        assert net.reactions[0].products == (3,)
        assert net.reactions[0].rate == Fraction(1, 2)

    def test_repeated_species_on_one_side_rejected(self):
        with pytest.raises(ParseError):
            parse_network("A + A -> 0 ; 1\n")

    def test_decimal_rate_is_exact(self):
        net = parse_network("0 -> A ; 0.25\n")
        assert net.reactions[0].rate == Fraction(1, 4)

    def test_comments_and_blank_lines(self):
        net = parse_network("# c\n\n0 -> A ; 1  # trailing\n")
        assert net.num_reactions == 1

    @pytest.mark.parametrize(
        "text",
        [
            "A -> \n",
            "A => B ; 1\n",
            "A -> B\n",
            "A -> B ; \n",
            "-> B ; 1\n",
            "0*A -> B ; 1\n",
            "species: A B\nC -> A ; 1\n",
            "A + -> B ; 1\n",
            "x*A -> B ; 1\n",
            "A -> 1B ; 1\n",
            "0 -> A ; 1\nspecies: A\n",
            "species: 1A\n",
        ],
    )
    def test_malformed_lines_raise_with_location(self, text):
        with pytest.raises(ParseError) as exc:
            parse_network(text)
        assert "line" in str(exc.value)

    def test_comment_only_text_has_no_reactions(self):
        with pytest.raises(ParseError) as exc:
            parse_network("# a comment\n\n")
        assert str(exc.value) == "no reactions found"
        assert exc.value.line is None

    def test_duplicate_species_header(self):
        with pytest.raises(DuplicateSpecies):
            parse_network("species: A A\nA -> 0 ; 1\n")

    def test_nonpositive_rate(self):
        with pytest.raises(NonPositiveRate):
            parse_network("A -> 0 ; 0\n")
        with pytest.raises(NonPositiveRate):
            parse_network("A -> 0 ; -2\n")

    def test_identity_reaction_is_reported(self):
        net = parse_network("A -> A ; 1\nA -> 0 ; 1\n")
        assert net.identity_reactions() == (0,)

    def test_round_trip(self, oscillator_text):
        net = parse_network(oscillator_text)
        again = parse_network(network_to_text(net))
        assert again == net

    def test_round_trip_with_coefficients(self):
        net = parse_network("2*A -> 3*B + C ; 1/2\n0 -> 2*C ; 1\n")
        text = network_to_text(net)
        assert text == "species: A B C\n2*A -> 3*B + C ; 1/2\n0 -> 2*C ; 1\n"
        assert parse_network(text) == net

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_random(self, seed):
        text = random_network_text(random.Random(seed))
        net = parse_network(text)
        assert parse_network(network_to_text(net)) == net


class TestPropensity:
    def test_matches_falling_factorial_formula(self):
        net = parse_network("2*A + B -> A ; 3\n")
        for a in range(6):
            for b in range(4):
                expected = (
                    Fraction(3)
                    * Fraction(math.factorial(a), math.factorial(max(a - 2, 0)))
                    / 2
                    * b
                    if a >= 2
                    else 0
                )
                assert propensity(net, 0, (a, b)) == expected

    def test_positive_iff_reactants_present(self, oscillator_text):
        net = parse_network(oscillator_text)
        state = tuple([1, 0, 2, 1, 0, 1, 0, 0, 1])
        for k, r in enumerate(net.reactions):
            enabled = all(x >= c for x, c in zip(state, r.reactants))
            assert (propensity(net, k, state) > 0) == enabled

    def test_source_reaction_is_constant(self, pb_text):
        net = parse_network(pb_text)
        assert propensity(net, 0, (7,)) == 1


class TestConservation:
    def test_open_networks_have_none(self, bd_text, pb_text):
        for text in (bd_text, pb_text):
            m = stoichiometry_matrix(parse_network(text))
            assert find_conservation_relations(m) == ()

    def test_oscillator_pairs(self, oscillator_text):
        net = parse_network(oscillator_text)
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        supports = sorted(
            tuple(i for i, v in enumerate(g) if v) for g in gammas
        )
        assert supports == [(5, 6), (7, 8)]
        for g in gammas:
            assert all(v in (0, 1) for v in g)

    def test_gamma_annihilates_stoichiometry(self, oscillator_text):
        net = parse_network(oscillator_text)
        m = stoichiometry_matrix(net)
        for g in find_conservation_relations(m):
            for col in m.columns():
                assert sum(g[i] * v for i, v in col.items()) == 0

    def test_weighted_relation(self):
        # 2 X1 + X2 is invariant under X1 <-> 2 X2 exchange
        net = parse_network("A -> 2*B ; 1\n2*B -> A ; 1\n")
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        assert gammas == ((2, 1),)

    def test_joint_production_is_not_conserved(self):
        net = parse_network("0 -> A + B ; 1\n")
        assert find_conservation_relations(stoichiometry_matrix(net)) == ()

    def test_overlapping_supports_rejected(self):
        # A + B and B + C are both invariant; supports share B
        net = parse_network("A + C -> 2*B ; 1\n2*B -> A + C ; 1\n")
        with pytest.raises(OverlappingConservation):
            find_conservation_relations(stoichiometry_matrix(net))

    def test_matches_pairwise_closures_on_3000_random_networks(self):
        rng = random.Random(2026)
        outcomes = []
        for species, reactions, count in ((4, 5, 2000), (6, 8, 500), (10, 12, 500)):
            for _ in range(count):
                text = random_network_text(rng, species, reactions)
                m = stoichiometry_matrix(parse_network(text))
                got = relations_or_overlap(find_conservation_relations, m)
                want = relations_or_overlap(conservation_relations_reference, m)
                assert got == want, text
                outcomes.append(got if got == "overlap" else len(got))
        # both outcomes, and several relations at once, are exercised
        assert outcomes.count("overlap") >= 50
        assert sum(n != "overlap" and n >= 2 for n in outcomes) >= 500

    def test_at_most_one_lfp_beyond_the_relations(self, oscillator_text, monkeypatch):
        calls = []
        solve = network_mod.solve_lfp
        monkeypatch.setattr(
            network_mod, "solve_lfp", lambda p: calls.append(p) or solve(p)
        )
        for text in (oscillator_text, rings_text(60)):
            calls.clear()
            m = stoichiometry_matrix(parse_network(text))
            assert len(find_conservation_relations(m)) == 2
            assert 1 <= len(calls) <= 3

    def test_two_60_species_rings(self):
        m = stoichiometry_matrix(parse_network(rings_text(60)))
        start = time.perf_counter()
        gammas = find_conservation_relations(m)
        assert time.perf_counter() - start < 2
        # species order: X, then A1..A60, then B1..B60
        assert gammas == ((0,) + (1,) * 60 + (0,) * 60, (0,) * 61 + (1,) * 60)

    def test_reorder_moves_conserved_last(self):
        net = parse_network("species: A B C\nA -> B ; 1\nB -> A ; 1\n0 -> C ; 1\n")
        m = stoichiometry_matrix(net)
        gammas = find_conservation_relations(m)
        reordered, cs = reorder_conserved_last(net, gammas)
        assert cs.d_u == 1 and cs.d_c == 2
        assert reordered.species == ("C", "A", "B")
        assert cs.permutation == (2, 0, 1)
        # gamma support is a contiguous trailing block
        assert cs.gammas == ((0, 1, 1),)

    def test_reorder_oscillator_is_identity(self, oscillator_text):
        net = parse_network(oscillator_text)
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        reordered, cs = reorder_conserved_last(net, gammas)
        assert reordered == net
        assert cs.permutation == tuple(range(9))
        assert cs.d_u == 5


class TestConservedStates:
    def _cs(self, text):
        net = parse_network(text)
        gammas = find_conservation_relations(stoichiometry_matrix(net))
        return reorder_conserved_last(net, gammas)[1]

    def test_pair_total_one(self):
        cs = self._cs("A -> B ; 1\nB -> A ; 1\n")
        cs = enumerate_conserved_states(cs, (1,))
        assert cs.conserved_states.tolist() == [[0, 1], [1, 0]]
        assert cs.conserved_states.dtype == np.int64
        assert cs.n_c == 2

    def test_product_over_relations(self, oscillator_text):
        cs = self._cs(oscillator_text)
        cs = enumerate_conserved_states(cs, (1, 1))
        assert cs.n_c == 4
        assert set(map(tuple, cs.conserved_states.tolist())) == {
            (a, 1 - a, b, 1 - b) for a in (0, 1) for b in (0, 1)
        }

    def test_weighted_enumeration_matches_brute_force(self):
        cs = self._cs("A -> 2*B ; 1\n2*B -> A ; 1\n")
        for total in range(7):
            states = enumerate_conserved_states(cs, (total,)).conserved_states
            got = set(map(tuple, states.tolist()))
            brute = {
                (a, b)
                for a in range(total + 1)
                for b in range(total + 1)
                if 2 * a + b == total
            }
            assert got == brute

    def test_empty_when_totals_unreachable(self):
        # weights (2, 3): total 1 has no nonnegative solution
        cs = self._cs("2*B -> 3*A ; 1\n3*A -> 2*B ; 1\n")
        assert sorted(cs.gammas[0]) in ([2, 3],)
        states = enumerate_conserved_states(cs, (1,)).conserved_states
        assert states.shape == (0, 2)

    def test_totals_count_checked(self, oscillator_text):
        cs = self._cs(oscillator_text)
        with pytest.raises(MissingTotals):
            enumerate_conserved_states(cs, (1,))

    def test_state_space_bound(self, oscillator_text):
        cs = self._cs(oscillator_text)
        with pytest.raises(StateSpaceTooLarge):
            enumerate_conserved_states(cs, (500, 500), max_states=1000)

    def test_negative_total_rejected(self):
        cs = self._cs("A -> B ; 1\nB -> A ; 1\n")
        with pytest.raises(InputError):
            enumerate_conserved_states(cs, (-1,))

    def test_bound_checked_before_states_are_built(self):
        cs = self._cs("A -> B ; 1\nB -> A ; 1\n")
        start = time.perf_counter()
        with pytest.raises(StateSpaceTooLarge):
            enumerate_conserved_states(cs, (3_000_000,))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "text",
        [
            "A -> B ; 1\nB -> A ; 1\n",
            "A -> 2*B ; 1\n2*B -> A ; 1\n",
            "2*B -> 3*A ; 1\n3*A -> 2*B ; 1\n",
            "A -> B ; 1\nB -> C ; 1\nC -> A ; 1\n",
            "A -> 2*B ; 1\nB -> C ; 1\nC -> B ; 1\n2*B -> A ; 1\n",
        ],
    )
    def test_bound_is_exact(self, text):
        cs = self._cs(text)
        for total in range(13):
            n_c = enumerate_conserved_states(cs, (total,)).n_c
            if n_c:
                at_bound = enumerate_conserved_states(cs, (total,), max_states=n_c)
                assert at_bound.n_c == n_c
                with pytest.raises(StateSpaceTooLarge):
                    enumerate_conserved_states(cs, (total,), max_states=n_c - 1)

    def test_relation_of_1100_species_is_counted_without_recursion(self):
        # one state per species; counting once recursed per weight
        n = 1100
        cs = ConservedStructure(
            gammas=((1,) * n,),
            d_u=0,
            d_c=n,
            permutation=tuple(range(n)),
        )
        cs = enumerate_conserved_states(cs, (1,))
        assert cs.n_c == n
        assert (cs.conserved_states.sum(axis=1) == 1).all()


def random_relations(rng):
    """A conserved structure of 1-3 relations, each over 1-4 species with
    weights 1-5, after one unconserved species."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    d_c = sum(sizes)
    gammas, start = [], 0
    for size in sizes:
        gamma = [0] * (1 + d_c)
        for c in range(start, start + size):
            gamma[1 + c] = rng.randint(1, 5)
        gammas.append(tuple(gamma))
        start += size
    return ConservedStructure(
        gammas=tuple(gammas),
        d_u=1,
        d_c=d_c,
        permutation=tuple(range(1 + d_c)),
    )


def random_total(rng, weights):
    """0, a small total, or for a one-species relation a total at or
    above 2^63, which may or may not be a multiple of the weight."""
    kind = rng.random()
    if kind < 0.15:
        return 0
    if len(weights) == 1 and kind < 0.4:
        return weights[0] * 2**63 + rng.choice([0, 0, 1])
    return rng.randint(1, 9)


class TestArrayEnumeration:
    """The array enumeration against the tuple recursion it replaced:
    same rows in the same order, the order whose keys StateIndex searches
    as they stand."""

    def test_matches_tuple_enumeration(self):
        rng = random.Random(6)
        seen = {"empty": 0, "zero": 0, "object": 0, "int64": 0, "prefix": 0}
        checked = 0
        while checked < 400:
            cs = random_relations(rng)
            weights = [[v for v in g if v] for g in cs.gammas]
            totals = tuple(random_total(rng, w) for w in weights)
            # at most comb(t + n - 1, n - 1) solutions over n species
            bound = math.prod(
                math.comb(t + len(w) - 1, len(w) - 1) if t < 2**63 else 1
                for w, t in zip(weights, totals)
            )
            if bound > 20000:
                continue  # keep the tuple reference fast
            expected = conserved_states_reference(cs, totals)
            states = enumerate_conserved_states(cs, totals).conserved_states
            assert [tuple(row) for row in states.tolist()] == list(expected)
            assert_in_key_order(states)
            assert states.shape == (len(expected), cs.d_c)
            big = max(totals) >= 2**63
            assert states.dtype == (object if big else np.int64)
            seen["empty"] += not expected
            seen["zero"] += 0 in totals
            seen["object"] += big and bool(expected)
            seen["int64"] += not big and bool(expected)
            seen["prefix"] += any(len(w) > 2 for w in weights) and bool(expected)
            checked += 1
        assert all(count >= 10 for count in seen.values()), seen


def test_inverse_network_is_an_involution(oscillator_text):
    net = parse_network(oscillator_text)
    inverse = inverse_network(net)
    assert inverse_network(inverse) == net
    assert inverse.species == net.species
    for r, flipped in zip(net.reactions, inverse.reactions):
        assert (flipped.reactants, flipped.products) == (r.products, r.reactants)
        assert flipped.rate == r.rate
