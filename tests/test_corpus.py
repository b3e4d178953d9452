"""Every case of the differential corpus (tests/corpus.py) against the
committed manifest: any changed byte of a report, exit code or error
message fails, naming the cases."""

import corpus


def test_every_case_matches_the_manifest():
    expected = corpus.read_manifest()
    actual = corpus.records()
    changed = sorted(
        name
        for name in expected.keys() | actual.keys()
        if expected.get(name) != actual.get(name)
    )
    assert not changed, f"{len(changed)} corpus cases changed: {changed}"
