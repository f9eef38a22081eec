"""The hunt sweep's decisions: a prefix of ``tools/hunt.py``'s seeds in each
regime, and three chosen seeds, against the expected lines in
``tests/data/hunt_1024.jsonl`` and ``tests/data/hunt_big_512.jsonl`` (CI
reruns all of them)."""

import json
import pathlib

import pytest

from conftest import hunt_module as _hunt

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
EXPECTED = DATA / "hunt_1024.jsonl"
EXPECTED_BIG = DATA / "hunt_big_512.jsonl"


def _expected(hunt, seed):
    return EXPECTED.read_text().splitlines()[seed - hunt.FIRST_SEED]


def _prefix(hunt, regime, n=16):
    first = hunt.REGIMES[regime][0]
    return [json.dumps(hunt.hunt_line(first + i, regime), sort_keys=True) for i in range(n)]


def test_hunt_prefix_matches_the_expected_lines():
    hunt = _hunt()
    assert _prefix(hunt, "hunt") == EXPECTED.read_text().splitlines()[:16]


def test_big_regime_prefix_matches_the_expected_lines():
    hunt = _hunt()
    assert _prefix(hunt, "big") == EXPECTED_BIG.read_text().splitlines()[:16]


# 100093 and 100884 absorb a branched tip in a rotation, whose branching
# lands on the target; 100160 pushes its branch point along a face route after
# four fold removals.
@pytest.mark.parametrize("seed, outcome", [(100093, "ok"), (100884, "ok"),
                                           (100160, "ok")])
def test_hunt_seed_matches_its_expected_line(seed, outcome):
    hunt = _hunt()
    rec = hunt.hunt_line(seed)
    assert rec["outcome"] == outcome and rec["steps"]
    assert json.dumps(rec, sort_keys=True) == _expected(hunt, seed)
