"""Seeded random-network regression: 3,000 small networks through the
whole pipeline.

No exception other than an `ErgocheckError` may escape, the verdict
histogram is pinned so a change in any layer shows as drift, and every
`PROVEN_ERGODIC` network must have a strongly connected interior in the
truncated-chain probe.
"""

import random
from collections import Counter

from ergocheck import (
    ErgocheckError,
    analyze,
    empirical_irreducibility_probe,
    find_conservation_relations,
    parse_network,
    stoichiometry_matrix,
)
from helpers import random_network_text

# verdicts, or the name of the ErgocheckError raised, of random.Random(2026)
HISTOGRAM = {
    "PROVEN_ERGODIC": 252,
    "IRREDUCIBILITY_DISPROVEN": 1451,
    "INCONCLUSIVE": 1236,
    "UNSUPPORTED": 61,
}
PROBE_BOUNDS = (6, 12)  # per unconserved species


def relation_count(text):
    try:
        gammas = find_conservation_relations(stoichiometry_matrix(parse_network(text)))
    except ErgocheckError:  # overlapping relations: analyze reports them
        return 0
    return len(gammas)


def test_random_networks_keep_their_verdicts():
    rng = random.Random(2026)
    histogram = Counter()
    probed = 0
    for _ in range(3000):
        text = random_network_text(rng)
        try:
            report = analyze(text, totals=(2,) * relation_count(text))
        except ErgocheckError as exc:
            histogram[type(exc).__name__] += 1
            continue
        histogram[report.verdict] += 1
        if report.verdict != "PROVEN_ERGODIC":
            continue
        cs = report.conserved
        d_u = cs.d_u if cs is not None else report.network.num_species
        for bound in PROBE_BOUNDS:
            connected, size = empirical_irreducibility_probe(
                report.network, (bound,) * d_u, cs
            )
            assert connected, (text, bound)
            probed += size > 0
    assert dict(histogram) == HISTOGRAM
    assert probed == 2 * HISTOGRAM["PROVEN_ERGODIC"]
