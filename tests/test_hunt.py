"""The hunt sweep's decisions: a prefix of ``tools/hunt.py``'s seeds, and two
failing seeds, against the expected lines in ``tests/data/hunt_1024.jsonl``
(CI reruns all 1024)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "data" / "hunt_1024.jsonl"


def _hunt():
    spec = importlib.util.spec_from_file_location("hunt", ROOT / "tools" / "hunt.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _expected(hunt, seed):
    return EXPECTED.read_text().splitlines()[seed - hunt.FIRST_SEED]


def test_hunt_prefix_matches_the_expected_lines():
    hunt = _hunt()
    want = EXPECTED.read_text().splitlines()[:16]
    got = [json.dumps(hunt.hunt_line(hunt.FIRST_SEED + i), sort_keys=True) for i in range(16)]
    assert got == want


# 100093 fails in the tip absorption of a rotation, 100884 in the rotation's
# n-bar check; each line keeps the steps taken before the error.
@pytest.mark.parametrize("seed, outcome", [(100093, "InvalidSurface"),
                                           (100884, "PipelineError")])
def test_hunt_failing_seed_matches_its_expected_line(seed, outcome):
    hunt = _hunt()
    rec = hunt.hunt_line(seed)
    assert rec["outcome"] == outcome and rec["steps"]
    assert json.dumps(rec, sort_keys=True) == _expected(hunt, seed)
