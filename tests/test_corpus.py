"""Every case of the differential corpus (tests/corpus.py) against the
committed manifests: any changed byte of a report, exit code or error
message fails, naming the cases."""

import pytest

import corpus


def changed_cases(expected, actual):
    return sorted(
        name
        for name in expected.keys() | actual.keys()
        if expected.get(name) != actual.get(name)
    )


def test_every_case_matches_the_manifest():
    changed = changed_cases(corpus.read_manifest(), corpus.records())
    assert not changed, f"{len(changed)} corpus cases changed: {changed}"


def test_every_oracle_case_matches_its_manifest():
    built, here = corpus.read_builds(), corpus.builds()
    if built != here:
        pytest.skip(f"oracle manifest built with {built}, this is {here}")
    expected = corpus.read_manifest(corpus.ORACLE_MANIFEST)
    changed = changed_cases(expected, corpus.records(corpus.oracle_cases()))
    assert not changed, f"{len(changed)} oracle corpus cases changed: {changed}"
