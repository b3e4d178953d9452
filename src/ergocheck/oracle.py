"""Desk-scale empirical cross-validation.

Gillespie direct-method trajectories, ergodic time averages with
batch-means standard errors, a truncated stationary CME solver (exact
rational for tiny spaces, sparse floating solve above) and a finite
strong-connectivity probe of the transition graph.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from .errors import PropensityOverflow, StateSpaceTooLarge
from .linalg import solve_linear_system
from .network import DEFAULT_MAX_STATES, propensity

RATE_GUARD = 1e15
EXACT_SOLVE_LIMIT = 2000
BOUNDARY_MASS_THRESHOLD = 1e-8

TIME_AVERAGE = "TIME_AVERAGE"
TRUNCATED_CME = "TRUNCATED_CME"


@dataclass(frozen=True)
class Trajectory:
    times: tuple  # jump times, strictly increasing
    states: tuple  # state after each jump; states[0] is the initial state at t=0
    initial_state: tuple
    seed: int
    t_end: float


@dataclass(frozen=True)
class StationaryEstimate:
    states: tuple
    probabilities: tuple
    method: str
    deficit: float = 0.0
    boundary_mass: float = 0.0
    truncation_flagged: bool = False
    residual: float = 0.0

    def mean(self, coordinate=0):
        return sum(
            p * s[coordinate] for s, p in zip(self.states, self.probabilities)
        )


def gillespie_simulate(net, x0, t_end, seed, max_steps=None):
    """Direct-method SSA; deterministic for a fixed seed."""
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
        t += rng.exponential(1.0 / total)
        if t >= t_end:
            break
        u = rng.random() * total
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
    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        initial_state=tuple(int(v) for v in x0),
        seed=seed,
        t_end=float(t_end),
    )


def time_average(traj, f):
    """Time-weighted average of f over the trajectory, final partial
    holding interval included."""
    total = 0.0
    for i, state in enumerate(traj.states):
        start = traj.times[i]
        end = traj.times[i + 1] if i + 1 < len(traj.times) else traj.t_end
        total += f(state) * (end - start)
    return total / traj.t_end


def batch_means(traj, f, num_batches=20):
    """Per-batch time averages over equal windows of [0, t_end].

    Batch means tame trajectory autocorrelation; the standard error of
    their mean is a valid uncertainty estimate for the overall average.
    """
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


def _enumerate_box(net, bounds, cs, max_states):
    """States of the truncated candidate space: a box over the unconserved
    species crossed with the enumerated conserved set.  Its size is checked
    against `max_states` before any state is built."""
    conserved = cs is not None and cs.d_c > 0
    ranges = [range(b + 1) for b in bounds[: cs.d_u if conserved else net.num_species]]
    tails = cs.conserved_states if conserved else ((),)
    size = math.prod(len(r) for r in ranges) * len(tails)
    if size > max_states:
        raise StateSpaceTooLarge(
            f"truncated space has {size} states > bound {max_states}"
        )
    return [tuple(u) + tuple(e) for u in itertools.product(*ranges) for e in tails]


def _box_transitions(net, states):
    """Yield (i, k, j) for every reaction k that can fire in state i
    (x >= nu_k component-wise) and moves it: j is the index of the target
    state, or None when the target leaves the box.  Self-loops are
    dropped."""
    index = {s: i for i, s in enumerate(states)}
    reactants = [r.reactants for r in net.reactions]
    displacements = [r.displacement for r in net.reactions]
    for i, x in enumerate(states):
        for k in range(net.num_reactions):
            if any(xi < vi for xi, vi in zip(x, reactants[k])):
                continue
            j = index.get(tuple(xi + z for xi, z in zip(x, displacements[k])))
            if j != i:
                yield i, k, j


def truncated_cme_stationary(net, bounds, cs=None, max_states=None):
    """Stationary distribution of the reflecting-truncated chain.

    Transitions leaving the box are dropped (reflecting truncation); the
    mass sitting on states with a dropped transition is reported so an
    undersized box is visible, and flags the estimate when it exceeds the
    reporting threshold.
    """
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    states = _enumerate_box(net, bounds, cs, max_states)
    n = len(states)
    boundary = [False] * n

    exact = n < EXACT_SOLVE_LIMIT
    entries = []  # (target_row, source_col, rate)
    diagonal = [Fraction(0) if exact else 0.0 for _ in range(n)]
    for i, k, j in _box_transitions(net, states):
        if j is None:
            boundary[i] = True
            continue
        lam = propensity(net, k, states[i])
        rate = lam if exact else float(lam)
        entries.append((j, i, rate))
        diagonal[i] -= rate

    if exact:
        rows = [dict() for _ in range(n)]
        for j, i, rate in entries:
            rows[j][i] = rows[j].get(i, Fraction(0)) + rate
        for i in range(n):
            if diagonal[i]:
                rows[i][i] = rows[i].get(i, Fraction(0)) + diagonal[i]
        rhs = [Fraction(0)] * n
        rows[0] = {i: Fraction(1) for i in range(n)}  # normalization
        rhs[0] = Fraction(1)
        pi = solve_linear_system(rows, rhs)
        if pi is None or len(pi) < n:
            raise StateSpaceTooLarge("stationary system is singular on this box")
        probs = [float(p) for p in pi]
        residual = 0.0
    else:
        rows_idx = [j for j, _, _ in entries] + list(range(n))
        cols_idx = [i for _, i, _ in entries] + list(range(n))
        vals = [r for _, _, r in entries] + diagonal
        qt = scipy.sparse.csr_matrix(
            (vals, (rows_idx, cols_idx)), shape=(n, n)
        ).tolil()
        qt[0, :] = 1.0
        rhs = np.zeros(n)
        rhs[0] = 1.0
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
                pi = scipy.sparse.linalg.spsolve(qt.tocsr(), rhs)
        except RuntimeError:  # SuperLU could not factorize the system
            pi = None
        if pi is None or not np.all(np.isfinite(pi)):
            raise StateSpaceTooLarge("stationary system is singular on this box")
        probs = [float(p) for p in pi]
        q = scipy.sparse.csr_matrix(
            (vals, (rows_idx, cols_idx)), shape=(n, n)
        )
        residual = float(np.max(np.abs(q @ np.array(probs))))

    total = sum(probs)
    probs = [p / total for p in probs]
    boundary_mass = sum(p for p, flag in zip(probs, boundary) if flag)
    return StationaryEstimate(
        states=tuple(states),
        probabilities=tuple(probs),
        method=TRUNCATED_CME,
        deficit=1.0 - sum(probs),
        boundary_mass=boundary_mass,
        truncation_flagged=boundary_mass > BOUNDARY_MASS_THRESHOLD,
        residual=residual,
    )


def empirical_irreducibility_probe(net, bounds, cs=None, max_states=None):
    """Strong connectivity of the truncated transition graph interior.

    Interior states are those whose every positive-propensity transition
    stays inside the box; returns (strongly_connected, interior_size).
    """
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    states = _enumerate_box(net, bounds, cs, max_states)
    src, dst = [], []
    interior = [True] * len(states)
    for i, _, j in _box_transitions(net, states):
        if j is None:
            interior[i] = False
        else:
            src.append(i)
            dst.append(j)
    interior = np.array(interior, dtype=bool)
    if not interior.any():
        return True, 0
    src, dst = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
    keep = interior[src] & interior[dst]
    graph = scipy.sparse.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int32), (src[keep], dst[keep])),
        shape=(len(states), len(states)),
    )
    _, labels = connected_components(graph, directed=True, connection="strong")
    return len(np.unique(labels[interior])) == 1, int(interior.sum())
