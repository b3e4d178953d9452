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

import itertools
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

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

    def structure(self):
        return NetworkStructure(
            pairs=tuple((r.reactants, r.products) for r in self.reactions)
        )

    def identity_reactions(self):
        """Indices of reactions that never change the state (flagged, legal)."""
        return tuple(
            k for k, r in enumerate(self.reactions) if r.is_identity
        )


@dataclass(frozen=True)
class NetworkStructure:
    """Rate-stripped reaction pairs (nu_k, nu'_k)."""

    pairs: tuple

    @property
    def num_reactions(self):
        return len(self.pairs)

    @property
    def num_species(self):
        return len(self.pairs[0][0]) if self.pairs else 0


@dataclass(frozen=True)
class ConservedStructure:
    """Disjoint-support conservation relations after species reordering.

    `gammas` are nonnegative coprime integer vectors (length d, reordered
    coordinates) whose supports are the trailing `d_c` species, one
    contiguous block per relation (`relation_slices`, offsets within the
    conserved block).  `permutation[new_index] = old_index`.
    """

    gammas: tuple
    d_u: int
    d_c: int
    permutation: tuple
    relation_slices: tuple
    totals: tuple | None = None
    conserved_states: tuple | None = None

    @property
    def num_relations(self):
        return len(self.gammas)

    @property
    def n_c(self):
        return len(self.conserved_states) if self.conserved_states else 0


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


def network_to_text(net):
    """Serialize a network in the input grammar (round-trip safe)."""

    def side(vec):
        terms = [
            (f"{c}*{net.species[i]}" if c > 1 else net.species[i])
            for i, c in enumerate(vec)
            if c
        ]
        return " + ".join(terms) if terms else "0"

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
    denom_lcm = 1
    for v in vec:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def _nonneg_null_lfp(basis, support, lower_one, zero_out):
    """LFP over null-space coordinates c: gamma = B^T c, gamma >= 0 on
    `support`, gamma_i >= 1 for i in lower_one, gamma_j = 0 for j in zero_out."""
    r = len(basis)
    ineq, b = [], []
    eq, b_eq = [], []
    for i in support:
        row = {t: -basis[t][i] for t in range(r) if basis[t][i] != 0}
        if i in zero_out:
            eq.append({t: -v for t, v in row.items()})
            b_eq.append(Fraction(0))
        elif i in lower_one:
            ineq.append(row)
            b.append(Fraction(-1))
        else:
            ineq.append(row)
            b.append(Fraction(0))
    return solve_lfp(LfpProblem.build(ineq, b, eq, b_eq, r))


def find_conservation_relations(m):
    """Nonnegative, disjoint-support, coprime conservation vectors of M.

    Computes an exact basis of the left null space, then decides for each
    candidate species which companions *must* co-occur in any nonnegative
    null vector containing it; those closures must partition the candidate
    set, else OverlappingConservation is raised.
    """
    basis = left_null_space(m)
    if not basis:
        return ()
    d = m.nrows
    support = sorted({i for vec in basis for i in range(d) if vec[i] != 0})
    carried = []
    for i in support:
        out = _nonneg_null_lfp(basis, support, {i}, set())
        if out.feasible:
            carried.append(i)
    if not carried:
        return ()
    closures = {}
    for i in carried:
        closure = {i}
        for j in carried:
            if j == i:
                continue
            out = _nonneg_null_lfp(basis, support, {i}, {j})
            if not out.feasible:
                closure.add(j)
        closures[i] = frozenset(closure)
    seen = []
    for i in carried:
        ci = closures[i]
        for cj in seen:
            if ci != cj and ci & cj:
                raise OverlappingConservation(
                    f"conserved species groups {sorted(ci)} and {sorted(cj)} overlap"
                )
        if ci not in seen:
            seen.append(ci)
    gammas = []
    for closure in sorted(seen, key=min):
        out = _nonneg_null_lfp(
            basis, support, {min(closure)}, set(support) - set(closure)
        )
        if not out.feasible:
            raise OverlappingConservation(
                f"no nonnegative conservation vector with support {sorted(closure)}"
            )
        gamma = [Fraction(0)] * d
        for t, c in enumerate(out.witness):
            if c:
                for i in range(d):
                    gamma[i] += c * basis[t][i]
        gammas.append(_normalize_gamma(gamma))
    return tuple(gammas)


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
    conserved = []
    slices = []
    for g in gammas:
        sup = [i for i, v in enumerate(g) if v]
        start = len(conserved)
        conserved.extend(sup)
        slices.append((start, len(conserved)))
    unconserved = [i for i in range(d) if i not in set(conserved)]
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
        relation_slices=tuple(slices),
    )
    return new_net, cs


def _relation_states(weights, total):
    """Lexicographically ordered nonneg integer solutions of sum w_i x_i = C."""
    if len(weights) == 1:
        return [(total // weights[0],)] if total % weights[0] == 0 else []
    return [
        (v,) + rest
        for v in range(total // weights[0] + 1)
        for rest in _relation_states(weights[1:], total - v * weights[0])
    ]


def _count_relation_states(weights, total, cap):
    """Number of nonneg integer solutions of sum w_i x_i = C (some number
    above `cap` once it exceeds `cap`), without building any.  The last two
    coordinates are counted in closed form: x_{n-2} runs over one residue
    class modulo b / gcd(a, b)."""
    if len(weights) == 1:
        return int(total % weights[0] == 0)
    if len(weights) == 2:
        a, b = weights
        g = gcd(a, b)
        if total % g:
            return 0
        a, b, total = a // g, b // g, total // g
        first = total * pow(a, -1, b) % b  # least x with b | total - a x
        return (total // a - first) // b + 1  # 0 when first > total // a
    count = 0
    for v in range(total // weights[0] + 1):
        if count > cap:
            break
        rest = total - v * weights[0]
        count += _count_relation_states(weights[1:], rest, cap - count)
    return count


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
    weights = [
        g[cs.d_u + start : cs.d_u + end]
        for g, (start, end) in zip(cs.gammas, cs.relation_slices)
    ]
    size = 1
    for w, total in zip(weights, totals):
        size *= max(_count_relation_states(w, total, max_states), 1)
        if size > max_states:
            raise StateSpaceTooLarge(
                f"conserved state set exceeds bound {max_states}"
            )
    per_relation = [_relation_states(w, total) for w, total in zip(weights, totals)]
    combined = tuple(sum(parts, ()) for parts in itertools.product(*per_relation))
    return replace(cs, totals=tuple(int(t) for t in totals), conserved_states=combined)


def inverse_structure(s):
    """Flip every reaction arrow: pair k becomes (nu'_k, nu_k)."""
    return NetworkStructure(pairs=tuple((p, r) for r, p in s.pairs))
