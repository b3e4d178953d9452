"""Shared test utilities: independent oracles and instance generators.

The oracles here deliberately avoid the code paths they check: the LFP
oracle is an exhaustive rational grid search, lattice equality is decided
through canonical forms plus exact determinants, reachability is BFS, and
the truncated CME chain is walked state by state and solved in rationals,
conserved states are enumerated as tuples by recursion, conservation
relations come from pairwise closures (one LFP per pair of species), and
the SSA references recompute every propensity on every jump and sum
time averages state by state.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from ergocheck import (
    LfpProblem,
    OverlappingConservation,
    PropensityOverflow,
    RationalMatrix,
    propensity,
    solve_lfp,
)
from ergocheck.linalg import left_null_space, rref
from ergocheck.network import StateIndex, _normalize_gamma
from ergocheck.oracle import RATE_GUARD


def det_exact(dense):
    """Determinant of a small dense rational matrix by exact elimination."""
    n = len(dense)
    m = [[Fraction(v) for v in row] for row in dense]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def random_int_matrix(rng, max_rows=6, max_cols=8, lo=-4, hi=4):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return RationalMatrix.from_dense(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


# --- rational grid oracle for small LFPs ------------------------------

GRID_NUMERATORS = [
    k for k in range(-36, 37) if k % 3 == 0 or k % 4 == 0
]  # exactly the rationals p/q in [-3, 3] with 1 <= q <= 4, scaled by 12


def _stacked_rows(problem):
    rows = []
    for r in problem.a.rows:
        rows.append([int(r.get(j, 0)) for j in range(problem.num_vars)])
    for r in problem.a_eq.rows:
        rows.append([int(r.get(j, 0)) for j in range(problem.num_vars)])
    return rows


def oracle_box_sufficient(problem):
    """True when every feasible instance provably has a grid solution.

    All n x n minors of the stacked constraint matrix (box rows included)
    must have |det| <= 4; then any vertex of the boxed feasible set has
    coordinates with denominator at most 4, i.e. it lies on the grid.
    """
    n = problem.num_vars
    rows = _stacked_rows(problem)
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(list(unit))
    for subset in itertools.combinations(range(len(rows)), n):
        sub = [rows[i] for i in subset]
        d = det_exact(sub)
        if abs(d) > 4:
            return False
    return True


def grid_feasible(problem):
    """Exhaustive search over the denominator-<=4 grid in [-3, 3]^n.

    Exact: grid points are k/12 with integer k, so A v <= b becomes the
    integer comparison A k <= 12 b, and a lower bound v_j >= l_j becomes
    k_j >= 12 l_j.
    """
    n = problem.num_vars
    pts = np.array(
        list(itertools.product(GRID_NUMERATORS, repeat=n)), dtype=np.int64
    ).T  # n x P
    ok = np.ones(pts.shape[1], dtype=bool)
    for row, b in zip(problem.a.rows, problem.b):
        coeff = np.array([int(row.get(j, 0)) for j in range(n)], dtype=np.int64)
        ok &= coeff @ pts <= 12 * int(b)
    for row, b in zip(problem.a_eq.rows, problem.b_eq):
        coeff = np.array([int(row.get(j, 0)) for j in range(n)], dtype=np.int64)
        ok &= coeff @ pts == 12 * int(b)
    for j, lo in enumerate(problem.lower):
        if lo is not None:
            ok &= pts[j] >= 12 * int(lo)
    if not ok.any():
        return None
    k = pts[:, int(np.argmax(ok))]
    return tuple(Fraction(int(v), 12) for v in k)


def random_boxed_lfp(rng):
    """Random small instance whose feasible set lies inside [-3, 3]^n.

    Integer constraints must have all rationals exactly representable; b
    values are skewed so both statuses occur.
    """
    n = rng.randint(1, 3)
    ineq = []
    b = []
    for _ in range(rng.randint(1, 3)):
        ineq.append({j: rng.randint(-2, 2) for j in range(n)})
        b.append(rng.randint(-3, 3))
    eq, b_eq = [], []
    if rng.random() < 0.4:
        eq.append({j: rng.randint(-1, 1) for j in range(n)})
        b_eq.append(rng.randint(-2, 2))
    for j in range(n):  # box rows keep the feasible set bounded
        ineq.append({j: 1})
        b.append(3)
        ineq.append({j: -1})
        b.append(3)
    return LfpProblem.build(ineq, b, eq, b_eq, n)


def random_bounded_lfp(rng):
    """`random_boxed_lfp` with a random integer lower bound in [-2, 2] on
    some variables and the others free.  A bound is a unit row, which the
    box rows of `oracle_box_sufficient` already cover."""
    p = random_boxed_lfp(rng)
    lower = [rng.choice([None, -2, -1, 0, 1, 2]) for _ in range(p.num_vars)]
    return dataclasses.replace(
        p, lower=tuple(None if x is None else Fraction(x) for x in lower)
    )


# --- network generators -----------------------------------------------


def cascade_text(d):
    """Exhaustive birth/degradation/conversion cascade: d species, 3d reactions."""
    lines = []
    for i in range(1, d + 1):
        if i == 1:
            lines.append("0 -> X1 ; 1")
        else:
            lines.append(f"X{i-1} -> X{i-1} + X{i} ; 1")
        lines.append(f"X{i} -> 0 ; 1")
        nxt = i + 1 if i < d else 1
        lines.append(f"X{i} -> X{nxt} ; 1")
    return "\n".join(lines) + "\n"


def random_network_text(rng, max_species=4, max_reactions=5):
    """Random well-formed network text (orders kept <= 2)."""
    d = rng.randint(1, max_species)
    species = [f"Y{i}" for i in range(d)]
    k = rng.randint(1, max_reactions)
    lines = [f"species: {' '.join(species)}"]

    def side():
        order = rng.randint(0, 2)
        counts = [0] * d
        for _ in range(order):
            counts[rng.randrange(d)] += 1
        terms = [
            (f"{c}*{species[i]}" if c > 1 else species[i])
            for i, c in enumerate(counts)
            if c
        ]
        return " + ".join(terms) if terms else "0"

    for _ in range(k):
        rate = rng.choice(["1", "2", "1/2", "0.25", "3"])
        lines.append(f"{side()} -> {side()} ; {rate}")
    return "\n".join(lines) + "\n"


def rings_text(n):
    """Two n-species rings: A1..An converted around the ring by a catalyst
    X that is born and dies, and B1..Bn converted on their own.  Sum A and
    sum B are the two conservation relations."""
    lines = ["0 -> X ; 1", "X -> 0 ; 1"]
    lines += [f"A{i} + X -> A{i % n + 1} + X ; 1" for i in range(1, n + 1)]
    lines += [f"B{i} -> B{i % n + 1} ; 1" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


# --- conservation relations by pairwise closures --------------------


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


def conservation_relations_reference(m):
    """Disjoint-support conservation relations by pairwise closures (oracle).

    One LFP per species finds the species some nonnegative null vector
    holds; one LFP per ordered pair (i, j) decides whether j must occur in
    every nonnegative null vector that holds i.  These closures must
    partition the held species, else OverlappingConservation is raised;
    each closure's relation then comes from one more LFP.  O(c^2) LFPs for
    c held species.
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


# --- state-space references -----------------------------------------


def bfs_reachability(z):
    """0/1 reachability-in-<=n-1-steps matrix by plain BFS (oracle).

    Level-synchronous: each step adds the unseen successors of the whole
    frontier, read off the rows of z.  No matrix product is formed.
    """
    n = len(z)
    z = np.asarray(z, dtype=bool).reshape(n, n)
    out = []
    for start in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[start] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = z[frontier].any(axis=0) & ~seen
            seen |= frontier
        out.append([int(v) for v in seen])
    return out


def relation_states_reference(weights, total):
    """Lexicographically ordered nonneg integer solutions of
    sum w_i x_i = C as tuples, by recursion on the first coordinate."""
    if len(weights) == 1:
        return [(total // weights[0],)] if total % weights[0] == 0 else []
    return [
        (v,) + rest
        for v in range(total // weights[0] + 1)
        for rest in relation_states_reference(weights[1:], total - v * weights[0])
    ]


def conserved_states_reference(cs, totals):
    """E_c as a tuple of tuples: the product over relations (the first
    relation varying slowest) of each relation's solutions."""
    per_relation = [
        relation_states_reference(g[cs.d_u + start : cs.d_u + end], total)
        for g, (start, end), total in zip(cs.gammas, cs.relation_slices, totals)
    ]
    return tuple(sum(parts, ()) for parts in itertools.product(*per_relation))


def box_states(net, bounds, cs=None):
    """States of the truncated space in the oracle's order: the box over
    the unconserved species, each crossed with every conserved state."""
    conserved = cs is not None and cs.d_c > 0
    ranges = [range(b + 1) for b in bounds[: cs.d_u if conserved else net.num_species]]
    tails = cs.conserved_states.tolist() if conserved else ((),)
    return [tuple(u) + tuple(e) for u in itertools.product(*ranges) for e in tails]


def assert_in_key_order(states):
    """The rows are distinct and in lexicographic order, so their
    mixed-radix keys (radices from the column maxima, by Horner's rule in
    Python ints) strictly increase; StateIndex takes the same keys."""
    rows = [tuple(row) for row in states.tolist()]
    assert rows == sorted(set(rows))
    top = [max(column) for column in zip(*rows)]
    keys = []
    for row in rows:
        key = 0
        for x, t in zip(row, top):
            key = key * (t + 1) + x
        keys.append(key)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert StateIndex(states).keys.tolist() == keys


def box_transitions(net, states):
    """(i, k, j) for every reaction k that fires in state i (x >= nu_k
    component-wise) and moves it: j is the index of the target state, or
    None when the target leaves the box.  Self-loops are dropped."""
    index = {s: i for i, s in enumerate(states)}
    out = []
    for i, x in enumerate(states):
        for k, r in enumerate(net.reactions):
            if any(xi < vi for xi, vi in zip(x, r.reactants)):
                continue
            j = index.get(tuple(xi + z for xi, z in zip(x, r.displacement)))
            if j != i:
                out.append((i, k, j))
    return out


def exact_stationary(net, states):
    """Exact stationary distribution of the reflecting-truncated chain:
    Q^T pi = 0 with the first equation replaced by sum(pi) = 1, solved as
    the RREF of the augmented system.  None when the system is singular
    (some variable is left without a pivot)."""
    n = len(states)
    rows = [{} for _ in range(n)]
    for i, k, j in box_transitions(net, states):
        if j is None:
            continue
        lam = propensity(net, k, states[i])
        rows[j][i] = rows[j].get(i, 0) + lam
        rows[i][i] = rows[i].get(i, 0) - lam
    rows[0] = {i: Fraction(1) for i in range(n)}
    rows[0][n] = Fraction(1)
    rows = [{c: v for c, v in row.items() if v != 0} for row in rows]
    pivots, reduced = rref(RationalMatrix(n, n + 1, rows))
    if list(pivots) != list(range(n)):
        return None
    return [row.get(n, Fraction(0)) for row in reduced]


# --- SSA references: one full propensity sweep per jump ----------------


# times and states as tuples, one tuple of Python ints per state
ReferenceTrajectory = collections.namedtuple(
    "ReferenceTrajectory", "times states seed t_end"
)


def gillespie_reference(net, x0, t_end, seed, max_steps=None):
    """Direct-method SSA that recomputes all K propensities on every jump
    and sums them in reaction order, with two scalar `rng.random()` draws
    per jump: the holding time from the first, the reaction from the
    second.  The same stream as `gillespie_simulate`, which draws it in
    blocks."""
    rng = np.random.default_rng(seed)
    rates = [float(r.rate) for r in net.reactions]
    reactants = [r.reactants for r in net.reactions]
    displacements = [r.displacement for r in net.reactions]
    x = tuple(int(v) for v in x0)
    t = 0.0
    times = [0.0]
    states = [x]
    steps = 0
    while True:
        props = []
        total = 0.0
        for k in range(net.num_reactions):
            p = rates[k]
            for xi, vi in zip(x, reactants[k]):
                if vi:
                    for step in range(vi):
                        p *= xi - step
                    for step in range(2, vi + 1):
                        p /= step
                    if p <= 0.0:
                        p = 0.0
                        break
            props.append(p)
            total += p
        if total > RATE_GUARD:
            raise PropensityOverflow(f"total rate {total:g} exceeds guard")
        if total == 0.0:
            break
        u1 = rng.random()
        u2 = rng.random()
        t += -math.log1p(-u1) / total
        if t >= t_end:
            break
        u = u2 * total
        acc = 0.0
        chosen = net.num_reactions - 1
        for k, p in enumerate(props):
            acc += p
            if u < acc:
                chosen = k
                break
        x = tuple(xi + z for xi, z in zip(x, displacements[chosen]))
        times.append(t)
        states.append(x)
        steps += 1
        if max_steps is not None and steps >= max_steps:
            break
    return ReferenceTrajectory(
        times=tuple(times),
        states=tuple(states),
        seed=seed,
        t_end=float(t_end),
    )


def time_average_reference(traj, f):
    """Time-weighted average of f, one holding interval at a time."""
    total = 0.0
    for i, state in enumerate(traj.states):
        start = traj.times[i]
        end = traj.times[i + 1] if i + 1 < len(traj.times) else traj.t_end
        total += f(state) * (end - start)
    return total / traj.t_end


def batch_means_reference(traj, f, num_batches=20):
    """Batch means over equal windows, each holding interval split at the
    window edges it crosses, added to the window sums in state order."""
    edges = np.linspace(0.0, traj.t_end, num_batches + 1)
    sums = np.zeros(num_batches)
    times = list(traj.times) + [traj.t_end]
    for i, state in enumerate(traj.states):
        start, end = times[i], times[i + 1]
        if end <= start:
            continue
        value = f(state)
        b0 = min(int(np.searchsorted(edges, start, side="right")) - 1, num_batches - 1)
        b1 = min(int(np.searchsorted(edges, end, side="left")) - 1, num_batches - 1)
        for b in range(max(b0, 0), b1 + 1):
            lo = max(start, edges[b])
            hi = min(end, edges[b + 1])
            if hi > lo:
                sums[b] += value * (hi - lo)
    width = traj.t_end / num_batches
    means = sums / width
    se = float(np.std(means, ddof=1) / np.sqrt(num_batches))
    return means, se
