"""Reaction network model: parsing, stoichiometry, mass-action propensities,
conservation relations and species reordering.

Network text grammar (one reaction per line)::

    # comment
    species: S1 S2 ...          (optional header fixing index order)
    <side> -> <side> ; <rate>

where a side is ``0`` (empty) or ``+``-separated terms ``[<int>*]<name>``.
Rates are parsed as exact rationals; ``0.5`` becomes 1/2 exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import (
    DuplicateSpecies,
    IndexOutOfRange,
    InputError,
    InternalCheckFailed,
    MissingTotals,
    NonPositiveRate,
    OverlappingConservation,
    ParseError,
    StateSpaceTooLarge,
)
from .lfp import LfpProblem, solve_lfp
from .linalg import RationalMatrix, left_null_space

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

DEFAULT_MAX_STATES = 10**6


@dataclass(frozen=True)
class Reaction:
    """One reaction: reactant/product counts per species plus a rate."""

    reactants: tuple
    products: tuple
    rate: Fraction

    @property
    def displacement(self):
        return tuple(p - r for r, p in zip(self.reactants, self.products))

    @property
    def order(self):
        return sum(self.reactants)

    @property
    def is_identity(self):
        return self.reactants == self.products


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple
    reactions: tuple

    @property
    def num_species(self):
        return len(self.species)

    @property
    def num_reactions(self):
        return len(self.reactions)

    def identity_reactions(self):
        """Indices of reactions that never change the state (flagged, legal)."""
        return tuple(
            k for k, r in enumerate(self.reactions) if r.is_identity
        )


@dataclass(frozen=True)
class ConservedStructure:
    """Disjoint-support conservation relations after species reordering.

    `gammas` (at least one) are nonnegative coprime integer vectors (length
    d, reordered coordinates) whose supports are the trailing `d_c`
    species, one contiguous block per relation, in relation order.
    `permutation[new_index] = old_index`.

    `conserved_states` is E_c for the `totals`: n_c x d_c, rows in
    lexicographic order, int64 unless int64 could wrap (a total of 2^63 or
    more; then dtype object).  The totals fix it, so == and hash skip it.
    `index`, its StateIndex, is built once and shared by every analysis.
    """

    gammas: tuple
    d_u: int
    d_c: int
    permutation: tuple
    totals: tuple | None = None
    conserved_states: np.ndarray | None = field(default=None, compare=False)

    @property
    def num_relations(self):
        return len(self.gammas)

    @property
    def n_c(self):
        return 0 if self.conserved_states is None else len(self.conserved_states)

    @functools.cached_property
    def index(self):
        return StateIndex(self.conserved_states)


class StateIndex:
    """Rows of a 2-D integer state array, found by mixed-radix key.

    The rows must be distinct and in lexicographic order, as both state
    builders emit them (else InternalCheckFailed); on the box [0, top_c]
    spanned by the column maxima, which holds every state, their keys then
    strictly increase and are searched as they stand.  The arrays are int64
    when every key fits and Python ints (dtype object) otherwise, so no
    coordinate or key ever wraps.
    """

    def __init__(self, states):
        top = [int(t) for t in states.max(axis=0, initial=0)]
        place = [1] * len(top)
        for c in range(len(top) - 2, -1, -1):
            place[c] = place[c + 1] * (top[c + 1] + 1)
        dtype = np.int64 if math.prod(t + 1 for t in top) < 2**62 else object
        self.states = states.astype(dtype, copy=False)
        self.top = top
        self.place = place
        self.keys = self.states @ np.array(place, dtype=dtype)
        if not (self.keys[1:] > self.keys[:-1]).all():
            raise InternalCheckFailed("state rows are not distinct and in order")

    def meets(self, demand):
        """Mask of the states at or above `demand` in every coordinate,
        where reactants `demand` can fire (none when it exceeds the box)."""
        mask = np.ones(len(self.states), dtype=bool)
        for c, h in enumerate(demand):
            if h:
                mask &= self.states[:, c] >= h
        return mask

    def targets(self, mask, delta):
        """(i, j, found): the rows i where `mask` holds, and whether the
        state i + delta is in the array, as row j when it is.

        The caller guarantees i + delta >= 0 (a reaction that fires at i).
        A target with a coordinate above its top is not found, even when
        its key equals another state's key.
        """
        i = np.flatnonzero(mask)
        if not len(i) or any(abs(dc) > t for dc, t in zip(delta, self.top)):
            return i, i, np.zeros(len(i), dtype=bool)  # no target in the box
        target = self.keys[i] + sum(dc * p for dc, p in zip(delta, self.place))
        j = np.minimum(np.searchsorted(self.keys, target), len(self.keys) - 1)
        found = self.keys[j] == target
        for c, dc in enumerate(delta):
            if dc > 0:
                found &= self.states[i, c] <= self.top[c] - dc
        return i, j, found


def cross_rows(left, right):
    """Each row of `left` joined to each row of `right`, left slowest."""
    return np.hstack(
        [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))]
    )


def _parse_side(text, lineno, line):
    text = text.strip()
    if text == "0":
        return []
    if not text:
        raise ParseError("empty reaction side", lineno, line.find("->"))
    terms = []
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError("dangling '+' in reaction side", lineno)
        coeff = 1
        if "*" in term:
            cstr, _, name = term.partition("*")
            try:
                coeff = int(cstr.strip())
            except ValueError:
                raise ParseError(
                    f"bad stoichiometric coefficient {cstr.strip()!r}", lineno
                ) from None
            if coeff <= 0:
                raise ParseError("stoichiometric coefficient must be >= 1", lineno)
            term = name.strip()
        if not _NAME_RE.match(term):
            raise ParseError(f"bad species name {term!r}", lineno, line.find(term))
        terms.append((term, coeff))
    return terms


def parse_network(text):
    """Parse network text into a ReactionNetwork.

    Species are indexed in first-appearance order unless a ``species:``
    header fixes the order (in which case every species used must be
    declared).
    """
    species = []
    index = {}
    header = False
    raw = []  # (lineno, reactant terms, product terms, rate)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("species:"):
            if header or raw:
                raise ParseError("species: header must be the first statement", lineno)
            header = True
            for name in stripped[len("species:"):].split():
                if not _NAME_RE.match(name):
                    raise ParseError(f"bad species name {name!r}", lineno)
                if name in index:
                    raise DuplicateSpecies(f"duplicate species {name!r}", lineno)
                index[name] = len(species)
                species.append(name)
            continue
        if "->" not in stripped:
            raise ParseError("expected '<side> -> <side> ; <rate>'", lineno)
        lhs, _, rest = stripped.partition("->")
        if ";" not in rest:
            raise ParseError("missing '; <rate>'", lineno, len(line))
        rhs, _, rate_str = rest.partition(";")
        reactants = _parse_side(lhs, lineno, line)
        products = _parse_side(rhs, lineno, line)
        try:
            rate = Fraction(rate_str.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rate {rate_str.strip()!r}", lineno) from None
        if rate <= 0:
            raise NonPositiveRate(f"rate must be > 0, got {rate}", lineno)
        for name, _ in itertools.chain(reactants, products):
            if name not in index:
                if header:
                    raise ParseError(
                        f"species {name!r} not declared in species: header", lineno
                    )
                index[name] = len(species)
                species.append(name)
        raw.append((lineno, reactants, products, rate))
    if not raw:
        raise ParseError("no reactions found", None)

    d = len(species)

    def counts(terms, lineno):
        vec = [0] * d
        for name, coeff in terms:
            if vec[index[name]]:
                raise ParseError(f"species {name!r} repeated on one side", lineno)
            vec[index[name]] = coeff
        return tuple(vec)

    reactions = tuple(
        Reaction(
            reactants=counts(r, lineno), products=counts(p, lineno), rate=rate
        )
        for lineno, r, p, rate in raw
    )
    return ReactionNetwork(species=tuple(species), reactions=reactions)


def format_terms(vec, names):
    """The terms `2*A`, `B`, ... of a count vector, one per nonzero count."""
    return [f"{c}*{name}" if c > 1 else name for c, name in zip(vec, names) if c]


def network_to_text(net):
    """Serialize a network in the input grammar (round-trip safe)."""

    def side(vec):
        return " + ".join(format_terms(vec, net.species)) or "0"

    lines = ["species: " + " ".join(net.species)]
    for r in net.reactions:
        lines.append(f"{side(r.reactants)} -> {side(r.products)} ; {r.rate}")
    return "\n".join(lines) + "\n"


def stoichiometry_matrix(net):
    """d x K integer matrix whose k-th column is nu'_k - nu_k."""
    rows = [{} for _ in range(net.num_species)]
    for k, r in enumerate(net.reactions):
        for i, z in enumerate(r.displacement):
            if z:
                rows[i][k] = z
    return RationalMatrix(net.num_species, net.num_reactions, rows)


def propensity(net, k, x):
    """Mass-action propensity of reaction k at state x (exact rational).

    Zero exactly when x >= nu_k fails component-wise.
    """
    if not 0 <= k < net.num_reactions:
        raise IndexOutOfRange(f"reaction index {k} out of range")
    r = net.reactions[k]
    num = 1
    den = 1
    for xi, vi in zip(x, r.reactants):
        for step in range(vi):
            num *= xi - step
        if vi > 1:
            for step in range(2, vi + 1):
                den *= step
        if num == 0:
            break
    value = r.rate * Fraction(max(num, 0), den)
    if (value > 0) != all(xi >= vi for xi, vi in zip(x, r.reactants)):
        raise InternalCheckFailed(f"propensity of reaction {k} has the wrong sign")
    return value


def _normalize_gamma(vec):
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def find_conservation_relations(m):
    """Nonnegative, disjoint-support, coprime conservation vectors of M:
    the extreme semi-positive conservation relations (Schuster & Hoefer
    1991) when their supports do not overlap.

    One LFP over the coordinates c of a left null-space basis B, y = B^T c
    >= 0 with at least 1 in total on the species not yet seen, is repeated
    until it is infeasible; the species its witnesses hold are the carried
    ones.  With m disjoint relations that is at most m + 1 LFPs.  The
    witnesses add up to a vector positive on every carried species, so the
    nonnegative null vectors span the null space of M's carried rows, and
    their cone is generated by disjoint rays exactly when the canonical
    basis of that null space is nonnegative with disjoint supports (each
    ray holds one free column).  That basis is then the relations;
    otherwise OverlappingConservation is raised.
    """
    d = m.nrows
    basis = left_null_space(m)
    # row i of the LFP reads -y_i <= 0 in the coordinates c
    cone = {
        i: {t: -vec[i] for t, vec in enumerate(basis) if vec[i]}
        for i in range(d)
        if any(vec[i] for vec in basis)
    }
    unseen, carried = set(cone), []
    while unseen:
        reach = {}
        for i in unseen:
            for t, v in cone[i].items():
                reach[t] = reach.get(t, 0) + v
        rows, b = list(cone.values()) + [reach], [0] * len(cone) + [-1]
        out = solve_lfp(LfpProblem.build(rows, b, [], [], len(basis)))
        if not out.feasible:
            break
        c = out.witness
        held = {i for i in unseen if sum(v * c[t] for t, v in cone[i].items())}
        carried += held
        unseen -= held
    carried.sort()
    # when every species the basis touches is carried, the basis read on the
    # carried species is already one of their left null space
    if len(carried) == len(cone):
        relations = [[vec[i] for i in carried] for vec in basis]
    else:
        sub = RationalMatrix(len(carried), m.ncols, [m.rows[i] for i in carried])
        relations = left_null_space(sub)
    gammas, seen = [], set()
    for vec in relations:
        support = {i for i, v in zip(carried, vec) if v}
        if any(v < 0 for v in vec) or support & seen:
            raise OverlappingConservation(
                f"nonnegative conservation relations on species {carried} overlap"
            )
        seen |= support
        gamma = [0] * d
        for i, v in zip(carried, vec):
            gamma[i] = v
        gammas.append(_normalize_gamma(gamma))
    return tuple(sorted(gammas, key=lambda g: min(i for i, v in enumerate(g) if v)))


def reorder_conserved_last(net, gammas):
    """Permute species so conserved species occupy the trailing indices.

    Conserved species are grouped per relation, relations ordered by their
    smallest original species index.  Returns the permuted network plus a
    ConservedStructure (totals not yet set).
    """
    d = net.num_species
    gammas = sorted(
        gammas, key=lambda g: min(i for i, v in enumerate(g) if v)
    )
    conserved = [i for g in gammas for i, v in enumerate(g) if v]
    unconserved = sorted(set(range(d)) - set(conserved))
    perm = tuple(unconserved + conserved)  # perm[new] = old
    d_u = len(unconserved)

    def permute(vec):
        return tuple(vec[old] for old in perm)

    new_net = ReactionNetwork(
        species=permute(net.species),
        reactions=tuple(
            Reaction(
                reactants=permute(r.reactants),
                products=permute(r.products),
                rate=r.rate,
            )
            for r in net.reactions
        ),
    )
    cs = ConservedStructure(
        gammas=tuple(permute(g) for g in gammas),
        d_u=d_u,
        d_c=d - d_u,
        permutation=perm,
    )
    return new_net, cs


def _residue_class(a, b, rest):
    """Solutions of a x + b y = rest (integers or arrays of them) in
    nonnegative integers: x runs over first, first + b / gcd(a, b), ...,
    count values in all (count 0 when there is none)."""
    g = gcd(a, b)
    a, b, q = a // g, b // g, rest // g
    first = q % b * pow(a, -1, b) % b  # least x with b | q - a x
    count = (q // a - first) // b + 1  # 0 when first > q // a
    return first, count * (rest % g == 0)


def _relation_states(weights, total):
    """Nonneg integer solutions of sum w_i x_i = C, one row each, in
    lexicographic order.  Each coordinate runs over one residue class: the
    values whose remainder the gcd of the later weights divides.  The
    arithmetic is in Python ints (dtype object) when int64 could wrap."""
    dtype = np.int64 if max(total, max(weights) ** 2) < 2**63 else object
    rows, rest = np.zeros((1, 0), dtype=dtype), np.array([total], dtype=dtype)
    for i, w in enumerate(weights[:-1]):
        g = gcd(*weights[i + 1 :])
        first, count = _residue_class(w, g, rest)
        count = count.astype(np.int64)
        owner = np.repeat(np.arange(len(count)), count)  # row per value
        k = np.arange(len(owner)) - (np.cumsum(count) - count)[owner]
        x = first[owner] + g // gcd(w, g) * k.astype(dtype)
        rows, rest = np.column_stack([rows[owner], x]), rest[owner] - w * x
    x = rest // weights[-1]
    return np.column_stack([rows, x])[rest % weights[-1] == 0]


def _count_relation_states(weights, total, cap):
    """Number of nonneg integer solutions of sum w_i x_i = C (some number
    above `cap` once it exceeds `cap`), without building any.  The last two
    coordinates are counted in closed form."""
    if len(weights) == 1:
        return int(total % weights[0] == 0)
    if len(weights) == 2:
        return _residue_class(*weights, total)[1]
    # One frame [rest, cap, count, next value] per coordinate before the last
    # two, which a loop walks depth first: no recursion per weight.
    last = len(weights) - 3
    stack = [[total, cap, 0, 0]]
    while True:
        frame = stack[-1]
        rest, frame_cap, count, v = frame
        i = len(stack) - 1
        if v > rest // weights[i] or count > frame_cap:
            stack.pop()
            if not stack:
                return count
            stack[-1][2] += count
            continue
        frame[3] += 1
        if i == last:
            frame[2] += _residue_class(*weights[-2:], rest - v * weights[i])[1]
        else:
            stack.append([rest - v * weights[i], frame_cap - count, 0, 0])


def enumerate_conserved_states(cs, totals, max_states=DEFAULT_MAX_STATES):
    """Attach totals and the enumerated conserved state set E_c.

    E_c is the Cartesian product over relations (lexicographic order) and
    its size, counted before any state is built, is bounded by `max_states`.
    """
    if len(totals) != cs.num_relations:
        raise MissingTotals(
            f"expected {cs.num_relations} conserved totals, got {len(totals)}"
        )
    if any(t < 0 for t in totals):
        raise InputError(f"conserved totals must be nonnegative, got {tuple(totals)}")
    totals = tuple(int(t) for t in totals)
    # each gamma's nonzero entries are its relation's block, in block order
    weights = [[v for v in g if v] for g in cs.gammas]
    size = 1
    for w, total in zip(weights, totals):
        size *= max(_count_relation_states(w, total, max_states), 1)
        if size > max_states:
            raise StateSpaceTooLarge(
                f"conserved state set exceeds bound {max_states}"
            )
    parts = [_relation_states(w, total) for w, total in zip(weights, totals)]
    states = functools.reduce(cross_rows, parts, np.zeros((1, 0), dtype=np.int64))
    return replace(cs, totals=totals, conserved_states=states)


def inverse_network(net):
    """Flip every reaction arrow, keeping the species and the rates."""
    return ReactionNetwork(
        net.species,
        tuple(Reaction(r.products, r.reactants, r.rate) for r in net.reactions),
    )
