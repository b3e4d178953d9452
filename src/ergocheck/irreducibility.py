"""Irreducibility checks for the candidate state space.

One list of conditions for two candidate spaces: without conservation
the full nonnegative integer lattice, with it the product of a lattice
over the unconserved species with the finite enumerated conserved set.
It combines exact rank/lattice/feasibility conditions with the
producibility level construction run forwards and on the arrow-flipped
network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .lfp import LfpOutcome, LfpProblem, solve_lfp
from .linalg import RationalMatrix, hermite_normal_form, lattice_spans_full
from .network import inverse_network, stoichiometry_matrix

IRREDUCIBLE_PROVEN = "IRREDUCIBLE_PROVEN"
NECESSARY_CONDITION_FAILED = "NECESSARY_CONDITION_FAILED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class LevelDecomposition:
    """Producibility levels G_1, G_2, ...; H_l is the union of the first l."""

    levels: tuple  # tuple of frozensets of species indices
    exhaustive: bool
    uncovered: frozenset


@dataclass(frozen=True, eq=False)
class ConservedClassAnalysis:
    """Transition structure of the conserved chain for a given
    available-species set A: the equivalence classes (strong components)
    of Z(A) and which of them are closed."""

    labels: np.ndarray  # class of every state; classes ordered by smallest member
    closed_flags: tuple
    closed_fireable: tuple  # per closed class: reactions fireable at some member
    eta: int  # number of closed classes

    @property
    def num_classes(self):
        return len(self.closed_flags)

    @property
    def classes(self):
        """Tuple of frozensets of state indices, one per class."""
        members = np.argsort(self.labels, kind="stable")
        parts = np.split(members, np.cumsum(np.bincount(self.labels))[:-1])
        return tuple(frozenset(p.tolist()) for p in parts[: self.num_classes])


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str
    failed_condition: str | None
    rank_value: int
    rank_required: int
    lattice_ok: bool = False
    hnf_pivots: tuple = ()
    lfp_outcome: LfpOutcome | None = None
    forward_levels: LevelDecomposition | None = None
    inverse_levels: LevelDecomposition | None = None
    class_analysis: ConservedClassAnalysis | None = None
    diagnostic: str = ""


def fireable_reactions(net, available, cs=None, e=None):
    """Reactions whose unconserved reactants all lie in `available` and
    whose conserved reactant demand is met by state `e` (when given)."""
    d_u = cs.d_u if cs is not None else net.num_species
    out = set()
    for k, r in enumerate(net.reactions):
        if any(c and i not in available for i, c in enumerate(r.reactants[:d_u])):
            continue
        if e is not None and any(ei < hi for ei, hi in zip(e, r.reactants[d_u:])):
            continue
        out.add(k)
    return out


def reachability_closure(z):
    """Boolean (I + Z)^(n-1) via repeated squaring on the 0/1 semiring; a
    dense reference, unused by the class analysis.  Products stay boolean
    (OR of ANDs), so no path count can wrap."""
    z = np.asarray(z, dtype=bool)
    n = z.shape[0]
    base = z | np.eye(n, dtype=bool)
    result = np.eye(n, dtype=bool)
    power = max(n - 1, 0)
    while power:
        if power & 1:
            result = result @ base
        base = base @ base
        power >>= 1
    return result


def closed_classes(n, src, dst):
    """Strong components (Tarjan, via scipy) of the digraph on n nodes with
    edges src -> dst, as (labels, closed): a class is closed when no edge
    leaves it."""
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(src)), (src, dst)), shape=(n, n)  # float64: scipy converts to it
    )
    n_classes, labels = connected_components(graph, directed=True, connection="strong")
    closed = np.ones(n_classes, dtype=bool)
    closed[labels[src[labels[src] != labels[dst]]]] = False
    return labels, closed


def conserved_class_analysis(net, cs, available):
    """Equivalence classes and closed classes of the conserved chain for
    the available-species set A, in O(n_c + edges) memory.

    Per reaction: a mask of the states where it fires, and its targets
    found by key (self-loops dropped); the edges of Z(A) live only for the
    strong components.  Classes are ordered by smallest member.
    """
    fires = {}
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for k, r in enumerate(net.reactions):
        if any(c and i not in available for i, c in enumerate(r.reactants[: cs.d_u])):
            continue
        fires[k] = mask = cs.index.meets(r.reactants[cs.d_u :])
        delta = r.displacement[cs.d_u :]
        if not any(delta):
            continue  # a self-loop everywhere
        i, j, found = cs.index.targets(mask, delta)
        src.append(i[found])
        dst.append(j[found])
    src, dst = np.concatenate(src), np.concatenate(dst)

    raw, closed = closed_classes(cs.n_c, src, dst)
    _, first = np.unique(raw, return_index=True)
    by_first = np.argsort(first)  # renumber by smallest member
    labels, closed = np.argsort(by_first)[raw], closed[by_first]
    n_classes = len(closed)
    closed_ids = np.flatnonzero(closed)
    fireable = [set() for _ in closed_ids]
    for k, mask in fires.items():
        hit = np.zeros(n_classes, dtype=bool)
        hit[labels[mask]] = True
        for slot in np.flatnonzero(hit[closed_ids]):
            fireable[slot].add(k)
    return ConservedClassAnalysis(
        labels=labels,
        closed_flags=tuple(bool(flag) for flag in closed),
        closed_fireable=tuple(frozenset(f) for f in fireable),
        eta=len(closed_ids),
    )


def level_decomposition(net, cs=None):
    """Levels G_l = P(H_{l-1}) minus H_{l-1} over the unconserved species,
    from H_0 = {} until nothing new appears or every species is covered.

    P(H) intersects, over the closed classes of the conserved chain for
    availability H, the species made by the reactions each class can fire.
    Without conservation there is one class: the reactions whose reactants
    all lie in H.
    """
    d_u = cs.d_u if cs is not None else net.num_species
    supports = [
        (
            frozenset(i for i, c in enumerate(r.reactants[:d_u]) if c),
            frozenset(i for i, c in enumerate(r.products[:d_u]) if c),
        )
        for r in net.reactions
    ]
    species = set(range(d_u))
    h = set()
    levels = []
    while h != species:
        if cs is None:
            made = {i for nu_s, nup_s in supports if nu_s <= h for i in nup_s}
        else:
            per_class = [
                {i for k in ks for i in supports[k][1]}
                for ks in conserved_class_analysis(net, cs, h).closed_fireable
            ]
            made = set.intersection(*per_class) if per_class else set()
        g = made - h
        if not g:
            break
        h |= g
        levels.append(frozenset(g))
    return LevelDecomposition(tuple(levels), h == species, frozenset(species - h))


def _positive_flux_lfp(m):
    """F1/F2: M v = 0 with v >= 1, the bound posed on the variables."""
    k = m.ncols
    return LfpProblem.build([], [], m.rows, [0] * m.nrows, k, [1] * k)


def check_irreducibility(net, cs=None):
    """Run the irreducibility pipeline and return a verdict with
    self-verifying sub-certificates.

    Check order: rank, lattice span, closed-class count (conserved case),
    forward levels, positive-flux feasibility, inverse levels.  Rank,
    lattice, class-count and feasibility failures are failures of
    necessary conditions; level failures are inconclusive since the level
    construction is sufficient only.  Every condition is posed on M-bar,
    the rows of the d_u unconserved species (all d without conservation).
    """
    m = stoichiometry_matrix(net)
    conserved = cs is not None
    d_u = cs.d_u if conserved else net.num_species
    m_bar = RationalMatrix(d_u, m.ncols, m.rows[:d_u])
    common = {}

    def verdict(status, condition=None, diagnostic=""):
        return IrreducibilityVerdict(status, condition, diagnostic=diagnostic, **common)

    hnf = hermite_normal_form(m_bar)
    rank_value = len(hnf.pivots)
    common.update(rank_value=rank_value, rank_required=d_u)
    if rank_value != d_u:
        return verdict(NECESSARY_CONDITION_FAILED, "rank", f"rank {rank_value} < {d_u}")

    lattice_ok = lattice_spans_full(hnf, d_u)
    common.update(lattice_ok=lattice_ok, hnf_pivots=tuple(p for _, _, p in hnf.pivots))
    if not lattice_ok:
        return verdict(
            NECESSARY_CONDITION_FAILED,
            "lattice",
            "integer column span is a proper sublattice",
        )

    if conserved:
        if not cs.n_c:
            return verdict(
                NECESSARY_CONDITION_FAILED,
                "eta",
                "EmptyConservedSpace: no conserved state matches the totals",
            )
        analysis = conserved_class_analysis(net, cs, frozenset(range(d_u)))
        common.update(class_analysis=analysis)
        if analysis.num_classes != 1 or analysis.eta != 1:
            return verdict(
                NECESSARY_CONDITION_FAILED,
                "eta",
                f"{analysis.num_classes} equivalence classes"
                f" ({analysis.eta} closed); need a single closed class"
                " covering the conserved states",
            )

    forward = level_decomposition(net, cs)
    common.update(forward_levels=forward)
    if not forward.exhaustive:
        return verdict(
            INCONCLUSIVE,
            "forward-exhaustive",
            f"species not producible from nothing: {sorted(forward.uncovered)}",
        )

    lfp_outcome = solve_lfp(_positive_flux_lfp(m_bar))
    common.update(lfp_outcome=lfp_outcome)
    if not lfp_outcome.feasible:
        return verdict(
            NECESSARY_CONDITION_FAILED,
            "lfp",
            "no strictly positive flux vector with zero net effect",
        )

    inverse = level_decomposition(inverse_network(net), cs)
    common.update(inverse_levels=inverse)
    if not inverse.exhaustive:
        return verdict(
            INCONCLUSIVE,
            "inverse-exhaustive",
            f"inverse structure leaves species uncovered: {sorted(inverse.uncovered)}",
        )

    return verdict(IRREDUCIBLE_PROVEN)
