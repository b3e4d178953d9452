"""Seeded known-answer workloads for the ergocheck benchmark.

Every operation carries the network it was generated from and the verdict
that network must receive.  The verdicts are derived by hand from each
family's construction (see the docstring of each family); ergocheck is
never consulted to produce them.

A workload is a fixed *round* of operations.  The seed changes only the
presentation: the order of the ``species:`` header, the order of the
reaction lines, the order of the operations inside a round and, for the
SSA oracle, the simulation seed.  Every seed therefore runs the same mix of
sizes, so figures from different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

PROVEN_ERGODIC = "PROVEN_ERGODIC"
IRREDUCIBILITY_DISPROVEN = "IRREDUCIBILITY_DISPROVEN"
INCONCLUSIVE = "INCONCLUSIVE"
UNSUPPORTED = "UNSUPPORTED"
VERDICTS = (PROVEN_ERGODIC, IRREDUCIBILITY_DISPROVEN, INCONCLUSIVE, UNSUPPORTED)

WORKLOADS = ("cascade", "conserved", "oracle")


@dataclass(frozen=True)
class Network:
    """Species names plus reactions ``(reactants, products, rate)``, where
    each side maps a species name to its stoichiometric coefficient."""

    species: tuple
    reactions: tuple


@dataclass(frozen=True)
class Answer:
    """Hand-derived outcome: the verdict, and for verdicts other than
    PROVEN_ERGODIC the irreducibility condition that fails (or the drift
    status when irreducibility holds)."""

    verdict: str
    failed_condition: str | None = None
    drift_status: str | None = None


@dataclass(frozen=True)
class Operation:
    """One benchmark operation: an ``analyze`` (or ``verify`` when
    ``witness`` is set) call on ``text``, then a JSON render."""

    label: str
    family: str
    network: Network  # as rendered: header order and reaction-line order
    text: str
    answer: Answer
    totals: tuple | None = None
    witness: tuple | None = None
    oracle: str = "off"
    oracle_seed: int = 0


def _net(species, *reactions):
    return Network(tuple(species), tuple(reactions))


def _r(reactants, products, rate=1):
    return (dict(reactants), dict(products), rate)


# --- families ------------------------------------------------------------
#
# Notation: d species, stoichiometry matrix M (d x K), M_bar its rows over
# the unconserved species.  ergocheck proves ergodicity when (1) rank M_bar
# is full, (2) the integer columns of M_bar span Z^{d_u}, (3) on a conserved
# chain the conserved states form one closed class, (4) the forward levels
# cover every unconserved species, (5) some v >= 1 has M_bar v = 0, (6) the
# inverse levels cover every species, and (7) a drift witness w exists with
# w_i >= 1 on unconserved species, A w <= -1 (A: rate-weighted net effect
# of the unary-unconserved reactions, one row per reactant species) and
# w . nu_k = 0 for every binary reaction k.  (1), (2), (3), (5) are
# necessary; (4), (6), (7) are sufficient only.


def birth_death():
    """0 -> S, S -> 0.  M = [1 -1]: rank 1, lattice Z; level S from 0;
    v = (1, 1); inverse levels symmetric.  Drift: A = [-1], w = (1)
    gives A w = -1.  PROVEN_ERGODIC."""
    return _net(["S"], _r({}, {"S": 1}), _r({"S": 1}, {}))


def pure_birth():
    """0 -> S.  Rank and lattice hold and S is producible, but M v = v_1 = 0
    has no solution with v >= 1: IRREDUCIBILITY_DISPROVEN at "lfp"."""
    return _net(["S"], _r({}, {"S": 1}))


def lattice_gap():
    """0 -> 2S, 2S -> 0.  M = [2 -2] has rank 1 but its integer span is
    2Z: IRREDUCIBILITY_DISPROVEN at "lattice"."""
    return _net(["S"], _r({}, {"S": 2}), _r({"S": 2}, {}))


def rank_deficient():
    """0 -> A + B, A + B -> 0.  Both columns are multiples of (1, 1), so
    rank M = 1 < 2; the only left null vector (1, -1) is not nonnegative,
    so there is no conservation relation: IRREDUCIBILITY_DISPROVEN at
    "rank"."""
    return _net(["A", "B"], _r({}, {"A": 1, "B": 1}), _r({"A": 1, "B": 1}, {}))


def cascade_open():
    """0 -> A, A + B -> 2B.  M = [[1, -1], [0, 1]] is unimodular and has no
    left null vector, but B is never produced from a state without B, so
    the forward levels stop at {A}: INCONCLUSIVE at "forward-exhaustive"."""
    return _net(["A", "B"], _r({}, {"A": 1}), _r({"A": 1, "B": 1}, {"B": 2}))


def drift_blocked():
    """0 -> S, 2S -> 0.  Rank 1, span Z (gcd(1, 2) = 1), v = (2, 1), levels
    {S} both ways: irreducible.  No unary reaction, so the A row of S is
    empty and A w <= -1 fails: INCONCLUSIVE with drift "infeasible"."""
    return _net(["S"], _r({}, {"S": 1}), _r({"S": 2}, {}))


def third_order():
    """0 -> S, 3S -> 0.  A reaction consuming three molecules is outside
    the supported class: UNSUPPORTED."""
    return _net(["S"], _r({}, {"S": 1}), _r({"S": 3}, {}))


def cascade(d):
    """X_{i-1} -> X_{i-1} + X_i (0 -> X_1 for i = 1), X_i -> 0 and
    X_i -> X_{i+1} (X_d -> X_1), unit rates; d species, 3d reactions.

    The death reactions make M contain -I, so rank is d and the span is
    Z^d.  Levels: X_1 from nothing, then X_i from X_{i-1}; inversely every
    death reaction becomes 0 -> X_i.  Flux: v = 1 on all 3d reactions, since
    each X_i has one birth and one conversion in, one death and one
    conversion out.
    Drift: see ``cascade_witness``.  PROVEN_ERGODIC."""
    names = [f"X{i}" for i in range(1, d + 1)]
    reactions = []
    for i in range(1, d + 1):
        xi = f"X{i}"
        if i == 1:
            reactions.append(_r({}, {xi: 1}))
        else:
            prev = f"X{i - 1}"
            reactions.append(_r({prev: 1}, {prev: 1, xi: 1}))
        reactions.append(_r({xi: 1}, {}))
        reactions.append(_r({xi: 1}, {f"X{i + 1 if i < d else 1}": 1}))
    return _net(names, *reactions)


def cascade_witness(d):
    """Closed-form drift witness of ``cascade(d)``: w_i = (2d + 1 - i) / 2.

    Row i < d of A sums the effects of X_i -> X_i + X_{i+1} (+e_{i+1}),
    X_i -> 0 (-e_i) and X_i -> X_{i+1} (-e_i + e_{i+1}):
    2 w_{i+1} - 2 w_i = -1.  Row d: -2 w_d + w_1 = -(d + 1) + d = -1.
    Every w_i >= w_d = (d + 1) / 2 >= 1, and there are no binary reactions.
    """
    return {f"X{i}": Fraction(2 * d + 1 - i, 2) for i in range(1, d + 1)}


OSCILLATOR_LINES = (
    ("S6 S2", "S7"), ("S7", "S6 S2"), ("S8 S2", "S9"), ("S9", "S8 S2"),
    ("S7", "S7 S1"), ("S6", "S6 S1"), ("S1", ""), ("S1", "S1 S2"),
    ("S2", ""), ("S9", "S9 S3"), ("S8", "S8 S3"), ("S3", ""),
    ("S3", "S3 S4"), ("S4", ""), ("S2 S4", "S5"), ("S5", "S4"),
)


def oscillator():
    """The 9-species / 16-reaction genetic-oscillator example, unit
    rates.  S6 + S7 and S8 + S9 (the two promoter states) are conserved;
    with totals (1, 1) the conserved chain has four states, which S2
    binding and unbinding connect into one closed class.  The drift witness
    is ``OSCILLATOR_WITNESS``.
    PROVEN_ERGODIC."""
    reactions = [
        _r({s: 1 for s in lhs.split()}, {s: 1 for s in rhs.split()})
        for lhs, rhs in OSCILLATOR_LINES
    ]
    return _net([f"S{i}" for i in range(1, 10)], *reactions)


# Drift witness of the oscillator in header order S1..S9, checked by hand:
# A w = -1 on S1..S5 (rows S1: -2 + 1, S2: -1, S3: -2 + 1, S4: -1,
# S5: -2 + 1) and w annihilates the three binary displacements
# -S6 - S2 + S7, -S8 - S2 + S9 and -S2 - S4 + S5.
OSCILLATOR_WITNESS = {
    "S1": Fraction(2), "S2": Fraction(1), "S3": Fraction(2), "S4": Fraction(1),
    "S5": Fraction(2), "S6": Fraction(-1, 2), "S7": Fraction(1, 2),
    "S8": Fraction(-1, 2), "S9": Fraction(1, 2),
}


def _catalyst():
    return [_r({}, {"X": 1}), _r({"X": 1}, {})]


def switch():
    """0 -> X, X -> 0, A + X -> B + X, B -> A; A + B = T conserved.

    X is a birth-death species (rank 1 on M_bar = the X row, span Z, level
    {X} both ways, v = 1).  On the conserved chain the states are
    (a, T - a); with X available A + X -> B + X moves a -> a - 1 and
    B -> A moves a -> a + 1, so all T + 1 states form one closed class.
    Drift: A = [-1] on X, and the binary displacement -A + B is annihilated
    by w_A = w_B.  PROVEN_ERGODIC for every T >= 0."""
    return _net(
        ["X", "A", "B"],
        *_catalyst(),
        _r({"A": 1, "X": 1}, {"B": 1, "X": 1}),
        _r({"B": 1}, {"A": 1}),
    )


def ring():
    """0 -> X, X -> 0, A_i + X -> A_{i+1} + X around a 3-cycle;
    A_1 + A_2 + A_3 = T conserved.

    X is as in ``switch``.  With X available one unit moves one step
    around the cycle; repeated moves reach every composition of T into
    three parts, so the (T + 1)(T + 2) / 2 states form one closed class.
    Drift: w_{A_1} = w_{A_2} = w_{A_3} annihilates the three binary
    displacements.  PROVEN_ERGODIC."""
    links = [("A1", "A2"), ("A2", "A3"), ("A3", "A1")]
    return _net(
        ["X", "A1", "A2", "A3"],
        *_catalyst(),
        *(_r({a: 1, "X": 1}, {b: 1, "X": 1}) for a, b in links),
    )


def two_pool():
    """Two independent switches driven by one catalyst:
    A + X -> B + X, B -> A and C + X -> D + X, D -> C, with A + B = T_1 and
    C + D = T_2 conserved.  The chain is the product of two switch chains,
    each one closed class, so the (T_1 + 1)(T_2 + 1) states form one closed
    class.  PROVEN_ERGODIC."""
    return _net(
        ["X", "A", "B", "C", "D"],
        *_catalyst(),
        _r({"A": 1, "X": 1}, {"B": 1, "X": 1}),
        _r({"B": 1}, {"A": 1}),
        _r({"C": 1, "X": 1}, {"D": 1, "X": 1}),
        _r({"D": 1}, {"C": 1}),
    )


# Known-answer table: every family and its hand-derived outcome.
KNOWN_ANSWERS = {
    "birth_death": Answer(PROVEN_ERGODIC),
    "cascade": Answer(PROVEN_ERGODIC),
    "oscillator": Answer(PROVEN_ERGODIC),
    "switch": Answer(PROVEN_ERGODIC),
    "ring": Answer(PROVEN_ERGODIC),
    "two_pool": Answer(PROVEN_ERGODIC),
    "pure_birth": Answer(IRREDUCIBILITY_DISPROVEN, failed_condition="lfp"),
    "lattice_gap": Answer(IRREDUCIBILITY_DISPROVEN, failed_condition="lattice"),
    "rank_deficient": Answer(IRREDUCIBILITY_DISPROVEN, failed_condition="rank"),
    "cascade_open": Answer(INCONCLUSIVE, failed_condition="forward-exhaustive"),
    "drift_blocked": Answer(INCONCLUSIVE, drift_status="infeasible"),
    "third_order": Answer(UNSUPPORTED),
}


# --- rendering -------------------------------------------------------------


def _side(terms, order):
    parts = [
        f"{terms[s]}*{s}" if terms[s] > 1 else s for s in order if s in terms
    ]
    return " + ".join(parts) if parts else "0"


def render(net, rng=None):
    """Network text with a ``species:`` header.  With ``rng`` the header
    order and the reaction-line order are shuffled; the returned Network
    records the order actually written."""
    species = list(net.species)
    reactions = list(net.reactions)
    if rng is not None:
        rng.shuffle(species)
        rng.shuffle(reactions)
    lines = ["species: " + " ".join(species)]
    for reactants, products, rate in reactions:
        lines.append(
            f"{_side(reactants, species)} -> {_side(products, species)} ; {rate}"
        )
    return Network(tuple(species), tuple(reactions)), "\n".join(lines) + "\n"


def order_totals(net, totals_by_first):
    """Totals in the order ergocheck expects them: relations sorted by the
    header position of their first species.  ``totals_by_first`` maps one
    species of each relation to that relation's total."""
    pos = {s: i for i, s in enumerate(net.species)}
    relations = {
        "A": ("A", "B"), "C": ("C", "D"), "A1": ("A1", "A2", "A3"),
        "S6": ("S6", "S7"), "S8": ("S8", "S9"),
    }
    keyed = sorted(
        (min(pos[s] for s in relations[k]), t) for k, t in totals_by_first.items()
    )
    return tuple(t for _, t in keyed)


def _op(rng, label, family, net, *, totals=None, witness=None, oracle="off",
        oracle_seed=0, permute=True):
    shown, text = render(net, rng if permute else None)
    if totals is not None:
        totals = order_totals(shown, totals)
    if witness is not None:
        witness = tuple(witness[s] for s in shown.species)
    return Operation(
        label=label,
        family=family,
        network=shown,
        text=text,
        answer=KNOWN_ANSWERS[family],
        totals=totals,
        witness=witness,
        oracle=oracle,
        oracle_seed=oracle_seed,
    )


# --- workloads -------------------------------------------------------------
#
# Every round has 4k + 1 operations (cascade 17, conserved 21, oracle 17).
# With whole rounds the median and the tail percentile then fall inside the
# samples of one operation, not between two operations of different cost,
# which keeps them steady between runs.

CASCADE_LADDER = (12, 18, 24, 30, 36, 42, 48, 54, 60)

# Every conserved chain has fewer than CLOSURE_DEFECT_N_C states.  From 256
# states on, ``reachability_closure`` multiplies 0/1 matrices as uint8 and
# its path counts wrap, which gives a wrong IRREDUCIBILITY_DISPROVEN (switch
# total 400, ring total 22, two-pool totals (15, 15); ROADMAP item 1).  A
# benchmark run must be correct, so the sizes stop just below that; the
# defect is kept in view by an expected-failure test in bench/tests.
CLOSURE_DEFECT_N_C = 256
SWITCH_TOTALS = (49, 75, 100, 125, 150, 200, 230, 254)  # n_c = T + 1
RING_TOTALS = (8, 10, 12, 14, 18, 20, 21)  # n_c = (T + 1)(T + 2) / 2
TWO_POOL_TOTALS = (  # n_c = (T_1 + 1)(T_2 + 1)
    (6, 6), (8, 8), (10, 10), (12, 12), (13, 13), (14, 16),
)

# One small family per exit path.  The timed workloads reach only
# PROVEN_ERGODIC; the benchmark's tests run these so that the tracer and the
# known-answer check are exercised on every verdict.
SMALL_FAMILIES = (
    birth_death, pure_birth, lattice_gap, rank_deficient, cascade_open,
    drift_blocked, third_order,
)

# The CME on the switch with totals 5 and 6 (1.7 s and 2.8 s) and SSA on the
# cascade with d = 6 are left out so that a run holds several rounds.
ORACLE_CME_SWITCH_TOTALS = (1, 2, 3, 4)
ORACLE_SSA_SWITCH_TOTALS = (1, 2, 3, 4, 5, 6)
ORACLE_SSA_CASCADES = (2, 3, 4, 5)


def _cascade_round(rng):
    ops = [
        _op(rng, f"cascade d={d}", "cascade", cascade(d)) for d in CASCADE_LADDER
    ]
    ops += [
        _op(rng, f"verify cascade d={d}", "cascade", cascade(d),
            witness=cascade_witness(d))
        for d in CASCADE_LADDER[1:]
    ]
    return ops


def _conserved_round(rng):
    ops = [
        _op(rng, f"switch T={t}", "switch", switch(), totals={"A": t})
        for t in SWITCH_TOTALS
    ]
    ops += [
        _op(rng, f"ring T={t}", "ring", ring(), totals={"A1": t})
        for t in RING_TOTALS
    ]
    ops += [
        _op(rng, f"two_pool T={t1},{t2}", "two_pool", two_pool(),
            totals={"A": t1, "C": t2})
        for t1, t2 in TWO_POOL_TOTALS
    ]
    return ops


def _oracle_round(rng):
    def ssa_seed():
        return rng.randrange(2**31)

    ops = [_op(rng, "cme birth_death", "birth_death", birth_death(), oracle="cme")]
    ops += [
        _op(rng, f"cme switch T={t}", "switch", switch(), totals={"A": t},
            oracle="cme")
        for t in ORACLE_CME_SWITCH_TOTALS
    ]
    ops.append(_op(rng, "cme cascade d=2", "cascade", cascade(2), oracle="cme"))
    ops.append(
        _op(rng, "ssa birth_death", "birth_death", birth_death(), oracle="ssa",
            oracle_seed=ssa_seed())
    )
    ops += [
        _op(rng, f"ssa switch T={t}", "switch", switch(), totals={"A": t},
            oracle="ssa", oracle_seed=ssa_seed())
        for t in ORACLE_SSA_SWITCH_TOTALS
    ]
    ops += [
        _op(rng, f"ssa cascade d={d}", "cascade", cascade(d), oracle="ssa",
            oracle_seed=ssa_seed())
        for d in ORACLE_SSA_CASCADES
    ]
    return ops


ROUNDS = {
    "cascade": _cascade_round,
    "conserved": _conserved_round,
    "oracle": _oracle_round,
}


def make_round(workload, seed, index=0):
    """Round ``index`` of ``workload``, deterministic in ``seed``.  Each
    round draws fresh permutations; operation order is shuffled too."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = ROUNDS[workload](rng)
    rng.shuffle(ops)
    return ops


def warmup_operation():
    """A tiny operation run before timing starts."""
    return _op(None, "warm-up", "birth_death", birth_death(), permute=False)
