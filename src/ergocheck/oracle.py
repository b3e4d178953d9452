"""Desk-scale empirical cross-validation.

Gillespie direct-method trajectories, two uniforms a jump (Gillespie
1977) drawn from the generator in blocks, over a bounded table of the
visited states that links each state to the row each fired reaction led
to, so a revisit costs one lookup; a state not seen before is updated
from its predecessor along the reaction dependency graph by one
propensity closure per reaction (the same float operations and random
stream as a full sweep with scalar draws, so reproducible bit for bit
from a seed); a trajectory is kept as a float array of jump times and
one integer array of visited states; ergodic time averages of every
species and batch-means standard errors of one, read from the state
array's columns and summed in state order so every float equals a
state-by-state loop's; and the finite-state projection of the
CME (Munsky & Khammash 2006) on a box: the truncated chain is built once
as arrays, its stationary distribution comes from one sparse
floating-point solve (a box whose chain has other than one closed class
is reported as singular instead of solved) and its interior is probed
for strong connectivity.  `run_oracle` runs either oracle on the
candidate space of an analysis and returns its report section.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import PropensityOverflow, StateSpaceTooLarge
from .irreducibility import closed_classes
from .network import DEFAULT_MAX_STATES, StateIndex, cross_rows

RATE_GUARD = 1e15
BOUNDARY_MASS_THRESHOLD = 1e-8
NUM_BATCHES = 20  # batch-means windows
UNIFORM_BLOCK = 1024  # uniforms a draw; even, so a jump's pair is in one block
SSA_T_END = 500.0
# propensities the SSA's table of visited states may hold, so it holds
# SSA_TABLE_SLOTS // K rows for K reactions
SSA_TABLE_SLOTS = 2**14
# CME box budgets in states.  The sparse LU's fill grows with the dimension
# of the chain, the unconserved species plus the conserved ones less one per
# relation: with three, 46,656 states took 28 s and 1.1 GB; on the
# oscillator (five, four conserved states) 31,104 took minutes and 2.6 GB,
# 4,096 about a second; on two rings of five species (nine, 525 conserved
# states) 32,025 took 17.7 s and 826 MB.
CME_STATES = 50000
CME_STATES_HIGH_DIM = 4096


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray  # float jump times from 0.0, strictly increasing
    # (jumps + 1) x d integers, int64 or object when int64 could wrap: the
    # state after each jump; states[0] is the initial state at t=0
    states: np.ndarray
    seed: int
    t_end: float


@dataclass(frozen=True, eq=False)
class StationaryEstimate:
    states: np.ndarray  # one row per state of the truncated chain
    probabilities: np.ndarray
    boundary_mass: float = 0.0
    truncation_flagged: bool = False
    interior_strongly_connected: bool = True
    interior_size: int = 0

    def mean(self, coordinate=0):
        # Python's sum, in state order
        counts = _float_counts(self.states[:, coordinate])
        return sum((self.probabilities * counts).tolist())


def _float_rates(net):
    """The rate constants as floats, in reaction order; one beyond the
    float range, or positive and below it, raises PropensityOverflow."""
    rates = []
    for k, r in enumerate(net.reactions):
        try:
            rates.append(float(r.rate))
        except OverflowError:
            raise PropensityOverflow(
                f"rate of reaction {k + 1} exceeds the float range"
            ) from None
        if rates[-1] == 0.0 and r.rate > 0:
            raise PropensityOverflow(
                f"rate of reaction {k + 1} is below the float range"
            )
    return rates


def _count_overflow():
    return PropensityOverflow("a species count exceeds the float range")


def _float_counts(counts):
    """An array of counts as floats; a count beyond the float range raises
    PropensityOverflow."""
    try:
        return counts.astype(float)
    except OverflowError:
        raise _count_overflow() from None


def _propensity(rate, need):
    """A closure that returns one reaction's mass-action propensity at the
    state it is given, a tuple or list of counts.

    Both shapes take the float operations of the general loop in the same
    order: `p <= 0.0` after each reactant species returns 0.0, so -0.0
    becomes 0.0 and a NaN passes.  Order one is unrolled; any other shape
    runs the general loop.  The value depends on the counts of the
    reactant species alone, so a state's propensities are the same floats
    whichever jump reached it, and `gillespie_simulate` may keep them in
    its table of visited states.
    """
    if [v for _, v in need] == [1]:
        ((i, _),) = need

        def order_one(x):
            p = rate * x[i]
            return 0.0 if p <= 0.0 else p

        return order_one

    def general(x):
        p = rate
        for i, v in need:
            xi = x[i]
            for step in range(v):
                p *= xi - step
            for step in range(2, v + 1):
                p /= step
            if p <= 0.0:
                return 0.0
        return p

    return general


def _uniform_pairs(rng):
    """The generator's uniforms on [0, 1) in consecutive pairs, drawn
    UNIFORM_BLOCK at a time."""
    while True:
        block = iter(rng.random(UNIFORM_BLOCK).tolist())
        yield from zip(block, block)


def gillespie_simulate(net, x0, t_end, seed, max_states=DEFAULT_MAX_STATES):
    """Direct-method SSA; deterministic for a fixed seed.

    Each jump takes two uniforms u1, u2 on [0, 1), as in Gillespie's
    direct method (D. T. Gillespie, J. Phys. Chem. 81, 1977): the holding
    time is -ln(1 - u1) / a0 for the total rate a0, and the reaction is the
    first whose running sum exceeds u2 * a0.  The uniforms come in blocks
    of UNIFORM_BLOCK from `rng.random`, which returns the same values as
    that many scalar draws.

    The visited states are kept in a table, one row per state: its count
    tuple, its propensities, their running sums in reaction order and, for
    each reaction fired from it so far, the row of the state it led to.  A
    jump along a link already made costs one lookup and one bisection of
    the stored running sums.  A state not linked from its predecessor is
    looked up by its counts; one not seen before takes its predecessor's
    propensities and recomputes only those that read a species the fired
    reaction changed (the dependency graph of Gibson & Bruck, J. Phys.
    Chem. A 104, 2000), each by one closure per reaction, and is checked
    against RATE_GUARD; a count beyond the float range raises
    PropensityOverflow.  Rows name each other by index, so the table holds
    no reference cycle and is freed on return.  It holds at most
    SSA_TABLE_SLOTS propensities (and at least one row); past that, new
    states are built but not stored, and their propensity list is updated
    in place.  A state's propensities depend on its counts alone, each
    closure takes the same float operations in the same order as a full
    sweep, the running sums are taken in reaction order, and the uniforms
    are used in the order they are drawn, so a seed fixes the trajectory
    bit for bit, whatever the table holds.

    A trajectory holds (jumps + 1) x d counts, so it may make
    max_states // d jumps; a jump beyond them before t_end raises
    StateSpaceTooLarge.
    """
    rng = np.random.default_rng(seed)
    deltas = [r.displacement for r in net.reactions]
    needs = [[(i, v) for i, v in enumerate(r.reactants) if v] for r in net.reactions]
    moves = [[(i, z) for i, z in enumerate(delta) if z] for delta in deltas]
    initial = tuple(int(v) for v in x0)
    rates = _float_rates(net)
    rate_of = [_propensity(rate, need) for rate, need in zip(rates, needs)]
    # (j, closure) for the reactions whose propensity reads a species that
    # reaction k changes
    affected = [
        [
            (j, rate_of[j])
            for j, need in enumerate(needs)
            if any(delta[i] for i, _ in need)
        ]
        for delta in deltas
    ]
    last = net.num_reactions - 1
    budget = max_states // max(net.num_species, 1)
    capacity = max(1, SSA_TABLE_SLOTS // max(net.num_reactions, 1))
    accumulate, bisect_right = itertools.accumulate, bisect.bisect_right
    log1p = math.log1p

    # the current state, its propensities and their running sums in
    # reaction order; never sum(), which compensates on Python 3.12+, nor
    # np.sum, which is pairwise
    state = initial
    try:
        props = [f(state) for f in rate_of]
    except OverflowError:
        raise _count_overflow() from None
    cumulative = list(accumulate(props))
    total = cumulative[-1] if cumulative else 0.0
    if total > RATE_GUARD:
        raise PropensityOverflow(f"total rate {total:g} exceeds guard")
    # the table of visited states: row r holds table_state[r],
    # table_props[r], their running sums table_sums[r] (the total rate
    # last) and table_links[r], which maps each reaction fired from the
    # state so far to the row it led to
    row_of = {state: 0}
    table_state, table_props = [state], [props]
    table_sums, table_links = [cumulative], [{}]
    # the current state's row and links; row -1 and links of its own, never
    # followed, for a state the full table does not hold
    row, links = 0, table_links[0]

    t = 0.0
    jumps = 0
    times = array.array("d", [0.0])  # 8 bytes a jump, not a float object
    fired = array.array("q")
    next_pair = _uniform_pairs(rng).__next__
    add_time, add_fired = times.append, fired.append
    while total != 0.0:
        u1, u2 = next_pair()
        t += -log1p(-u1) / total  # ln(1 / r1) / total with r1 = 1 - u1 in (0, 1]
        if t >= t_end:
            break
        if jumps >= budget:
            raise StateSpaceTooLarge(
                f"SSA trajectory exceeded the bound of {budget} jumps "
                f"before t = {t_end:g}"
            )
        k = bisect_right(cumulative, u2 * total)
        if k > last:
            k = last
        add_time(t)
        add_fired(k)
        jumps += 1
        target = links.get(k)
        if target is None:
            if row >= 0:
                state, props = table_state[row], table_props[row]
            successor = list(state)
            for i, z in moves[k]:
                successor[i] += z
            state = tuple(successor)
            target = row_of.get(state)
            if target is None:
                # not seen before: the predecessor's propensities, those
                # that read a species the fired reaction changed recomputed
                if row >= 0:
                    props = props[:]  # the stored row keeps its own
                try:
                    for j, f in affected[k]:
                        props[j] = f(state)
                except OverflowError:
                    raise _count_overflow() from None
                cumulative = list(accumulate(props))
                total = cumulative[-1]
                if total > RATE_GUARD:
                    raise PropensityOverflow(f"total rate {total:g} exceeds guard")
                if len(table_state) == capacity:
                    row, links = -1, {}
                    continue
                target = len(table_state)
                row_of[state] = target
                table_state.append(state)
                table_props.append(props)
                table_sums.append(cumulative)
                table_links.append({})
            links[k] = target
        row = target
        cumulative = table_sums[row]
        total = cumulative[-1]
        links = table_links[row]

    # the visited states: the initial one plus the running sum of the fired
    # displacements, in int64 when no state and no displacement can leave
    # its range and over Python ints (dtype object) otherwise
    reach = max(map(abs, initial), default=0) + max(jumps, 1) * max(
        (abs(z) for delta in deltas for z in delta), default=0
    )
    dtype = np.int64 if reach < 2**63 else object
    steps = np.array(deltas, dtype=dtype).reshape(len(deltas), len(initial))
    path = np.empty((jumps + 1, len(initial)), dtype=dtype)
    path[0] = initial
    # mode "clip" writes straight into `out` (the indices are in range);
    # the default mode "raise" would fill a buffer first
    np.take(steps, np.frombuffer(fired, dtype=np.int64), axis=0, out=path[1:],
            mode="clip")
    np.cumsum(path, axis=0, out=path)
    times = np.frombuffer(times, dtype=np.float64)
    return Trajectory(times=times, states=path, seed=seed, t_end=float(t_end))


def time_average(traj):
    """Time-weighted average of every species over the trajectory, final
    partial holding interval included, as a list.

    The weighted counts are added in state order, as a loop over the states
    would.
    """
    if traj.t_end == 0:  # as the division of a loop's Python float would
        raise ZeroDivisionError("time average over a zero-length trajectory")
    held = np.append(traj.times[1:], traj.t_end)
    held -= traj.times
    weighted = _float_counts(traj.states.T)
    weighted *= held
    total = np.cumsum(weighted, axis=1, out=weighted)[:, -1]
    return (total / traj.t_end).tolist()


def batch_means(traj, species):
    """Per-batch time averages of one species over NUM_BATCHES equal
    windows of [0, t_end].

    Batch means tame trajectory autocorrelation; the standard error of
    their mean is a valid uncertainty estimate for the overall average.
    Each holding interval is split at the window edges it crosses, and the
    pieces are added to the window sums in state order.  At most three
    arrays of one entry a piece are alive at once.
    """
    edges = np.linspace(0.0, traj.t_end, NUM_BATCHES + 1)
    times = traj.times
    # the pieces lie between consecutive jump times and edges; each is held
    # by the last state that starts at or before it
    cuts = np.union1d(times, edges)
    lo, hi = cuts[:-1], cuts[1:]
    held_by = np.searchsorted(times, lo, side="right") - 1
    pieces = _float_counts(traj.states[held_by, species])
    del held_by
    pieces *= hi - lo
    window = np.searchsorted(edges, lo, side="right") - 1
    sums = np.zeros(NUM_BATCHES)
    np.add.at(sums, window, pieces)
    width = traj.t_end / NUM_BATCHES
    means = sums / width
    se = float(np.std(means, ddof=1) / np.sqrt(NUM_BATCHES))
    return means, se


# The reflecting-truncated chain on a box: its states (one row each) and
# every transition of a reaction that fires and moves a state, as arrays;
# `dst` is -1 where the target leaves the box, `rate` is the float
# mass-action propensity at the source.
_Chain = namedtuple("_Chain", "states src dst reaction rate")


def _candidate_space(net, cs):
    """(d_u, E_c, gammas): the unconserved species count, the conserved
    states one row each and the relations.  Without conservation every
    species is unconserved and E_c is one empty state."""
    if cs is None:
        return net.num_species, np.zeros((1, 0), dtype=np.int64), ()
    return cs.d_u, cs.conserved_states, cs.gammas


def _build_chain(net, bounds, cs, max_states):
    """States of the truncated candidate space, a box over the unconserved
    species crossed with the enumerated conserved set, and all their
    transitions.  The box size is checked against `max_states` before any
    state is built."""
    d_u, conserved_states, _ = _candidate_space(net, cs)
    shape = [b + 1 for b in bounds[:d_u]]
    size = math.prod(shape) * len(conserved_states)
    if size > max_states:
        raise StateSpaceTooLarge(
            f"truncated space has {size} states > bound {max_states}"
        )
    box = np.indices(shape).reshape(d_u, math.prod(shape)).T
    index = StateIndex(cross_rows(box, conserved_states))
    x = index.states
    rates = _float_rates(net)
    empty = np.empty(0, dtype=np.intp)
    edges = [(empty, empty, empty, np.empty(0))]  # typed even with no transition
    for k, r in enumerate(net.reactions):
        if not any(r.displacement):
            continue  # a self-loop everywhere
        i, j, found = index.targets(index.meets(r.reactants), r.displacement)
        falling = np.ones(len(i))
        for c, v in enumerate(r.reactants):
            if v:
                xc = _float_counts(x[i, c])
                for step in range(v):
                    falling *= xc - step
                falling /= math.factorial(v)
        dst = np.where(found, j, -1)  # -1: the target leaves the box
        edges.append((i, dst, np.full(len(i), k), rates[k] * falling))
    return _Chain(x, *map(np.concatenate, zip(*edges)))


def _interior_probe(chain):
    """(strongly_connected, interior_size) of the interior: the states
    whose every transition stays inside the box."""
    interior = np.ones(len(chain.states), dtype=bool)
    interior[chain.src[chain.dst < 0]] = False
    if not interior.any():
        return True, 0
    # an interior source has no dst of -1; other sources are dropped
    keep = interior[chain.src] & interior[chain.dst]
    labels, _ = closed_classes(len(interior), chain.src[keep], chain.dst[keep])
    return len(np.unique(labels[interior])) == 1, int(interior.sum())


def truncated_cme_stationary(net, bounds, cs=None, max_states=DEFAULT_MAX_STATES):
    """Stationary distribution of the reflecting-truncated chain.

    Transitions leaving the box are dropped (reflecting truncation); the
    mass sitting on states with a dropped transition is reported so an
    undersized box is visible, and flags the estimate when it exceeds the
    reporting threshold.  The stationary system is singular exactly when
    the truncated chain has other than one closed class; that is checked
    before the sparse solve.  The interior probe of the same chain is
    reported alongside.
    """
    chain = _build_chain(net, bounds, cs, max_states)
    connected, interior_size = _interior_probe(chain)
    n = len(chain.states)
    inside = chain.dst >= 0
    src, dst, rate = chain.src[inside], chain.dst[inside], chain.rate[inside]

    if closed_classes(n, src, dst)[1].sum() != 1:
        raise StateSpaceTooLarge("stationary system is singular on this box")

    # Q^T pi = 0 with the first equation replaced by sum(pi) = 1
    outflow = np.bincount(src, weights=rate, minlength=n)
    rows = np.concatenate([dst, np.arange(n)])
    cols = np.concatenate([src, np.arange(n)])
    vals = np.concatenate([rate, -outflow])
    qt = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    ones = scipy.sparse.csr_matrix(np.ones((1, n)))
    system = scipy.sparse.vstack([ones, qt[1:]], format="csr")
    rhs = np.zeros(n)
    rhs[0] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
            pi = scipy.sparse.linalg.spsolve(system, rhs)
    except RuntimeError:  # SuperLU could not factorize the system
        pi = None
    if pi is None or not np.all(np.isfinite(pi)):
        raise StateSpaceTooLarge("stationary system is singular on this box")

    probs = pi / pi.sum()
    # Python's sum, in state order, over the states with a dropped transition
    boundary_mass = sum(probs[np.unique(chain.src[~inside])].tolist())
    return StationaryEstimate(
        states=chain.states,
        probabilities=probs,
        boundary_mass=boundary_mass,
        truncation_flagged=boundary_mass > BOUNDARY_MASS_THRESHOLD,
        interior_strongly_connected=connected,
        interior_size=interior_size,
    )


def empirical_irreducibility_probe(net, bounds, cs=None, max_states=DEFAULT_MAX_STATES):
    """Strong connectivity of the truncated transition graph interior.

    Interior states are those whose every positive-propensity transition
    stays inside the box; returns (strongly_connected, interior_size).
    """
    return _interior_probe(_build_chain(net, bounds, cs, max_states))


def _ssa_run(net, gammas, x0, seed, max_states):
    """One SSA trajectory from x0, summarised as (run, conservation_kept);
    the trajectory itself is dropped on return."""
    traj = gillespie_simulate(net, x0, SSA_T_END, seed, max_states)
    kept = True
    if gammas:
        states = traj.states.astype(object)  # exact integers
        for gamma in gammas:
            amounts = states @ np.array(gamma, dtype=object)
            kept = kept and not (amounts != amounts[0]).any()
    _, se = batch_means(traj, 0)
    run = {
        "initial_state": list(x0),
        "seed": traj.seed,
        "jumps": len(traj.states) - 1,
        "time_averages": time_average(traj),
        "first_species_se": se,
    }
    return run, kept


def run_oracle(mode, net, cs, seed, max_states):
    """The report's `oracle` section: two SSA runs or one CME solve on the
    candidate space of an analysis, or why they were skipped.  A bound, or
    a rate or count beyond the float range, is recorded as its error."""
    if mode not in ("ssa", "cme"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    d_u, conserved_states, gammas = _candidate_space(net, cs)
    n_c = len(conserved_states)
    if not n_c:
        return {"mode": mode, "skipped": "no conserved state matches the totals"}
    try:
        if mode == "ssa":
            if not net.num_species:
                return {"mode": "ssa", "skipped": "no species"}
            runs = []
            constant = True
            # from 0 and the first conserved state, then from 3 and the last;
            # the conserved part as Python ints, which JSON needs
            for variant, (start, c) in enumerate(((0, 0), (3, -1))):
                x0 = tuple([start] * d_u + conserved_states[c].tolist())
                run, kept = _ssa_run(net, gammas, x0, seed + variant, max_states)
                runs.append(run)
                constant = constant and kept
            return {"mode": "ssa", "runs": runs, "conservation_constant": constant}
        # the chain's dimension: each relation fixes one conserved species
        dim = net.num_species - len(gammas)
        cap = CME_STATES if dim <= 2 else CME_STATES_HIGH_DIM
        budget = min(max_states, cap) // n_c
        # the largest cube within the budget, at most 61 states a side; a
        # box with no unconserved species has no side, and one of 2 states a
        # side holds at most one of each species, too few for its means to
        # say anything (the cascade with d = 8 puts mass 0.53 on its boundary)
        side = 1
        while d_u and side < 61 and (side + 1) ** d_u <= budget:
            side += 1
        if side < 3:
            return {"mode": "cme", "skipped": "state budget too small"}
        bounds = [side - 1] * d_u
        est = truncated_cme_stationary(net, bounds, cs, max_states=max_states)
        means = [est.mean(i) for i in range(net.num_species)]
        return {
            "mode": "cme",
            "box": bounds,
            "interior_strongly_connected": est.interior_strongly_connected,
            "interior_size": est.interior_size,
            "stationary_means": means,
            "boundary_mass": est.boundary_mass,
            "truncation_flagged": est.truncation_flagged,
        }
    except (StateSpaceTooLarge, PropensityOverflow) as exc:
        return {"mode": mode, "error": str(exc)}
