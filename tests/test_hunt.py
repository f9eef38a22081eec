"""The hunt sweep's decisions: a prefix of ``tools/hunt.py``'s seeds, and three
chosen seeds, against the expected lines in ``tests/data/hunt_1024.jsonl``
(CI reruns all 1024)."""

import json
import pathlib

import pytest

from conftest import hunt_module as _hunt

EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "hunt_1024.jsonl"


def _expected(hunt, seed):
    return EXPECTED.read_text().splitlines()[seed - hunt.FIRST_SEED]


def test_hunt_prefix_matches_the_expected_lines():
    hunt = _hunt()
    want = EXPECTED.read_text().splitlines()[:16]
    got = [json.dumps(hunt.hunt_line(hunt.FIRST_SEED + i), sort_keys=True) for i in range(16)]
    assert got == want


# 100093 and 100884 absorb a branched tip in a rotation, whose branching
# lands on the target; 100160 fails after four steps, and its line keeps them.
@pytest.mark.parametrize("seed, outcome", [(100093, "ok"), (100884, "ok"),
                                           (100160, "NoSuchPath")])
def test_hunt_seed_matches_its_expected_line(seed, outcome):
    hunt = _hunt()
    rec = hunt.hunt_line(seed)
    assert rec["outcome"] == outcome and rec["steps"]
    assert json.dumps(rec, sort_keys=True) == _expected(hunt, seed)
