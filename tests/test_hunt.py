"""The hunt sweep's decisions: a prefix of ``tools/hunt.py``'s seeds against
the expected lines in ``tests/data/hunt_1024.jsonl`` (CI reruns all 1024)."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "data" / "hunt_1024.jsonl"


def _hunt():
    spec = importlib.util.spec_from_file_location("hunt", ROOT / "tools" / "hunt.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_hunt_prefix_matches_the_expected_lines():
    hunt = _hunt()
    want = EXPECTED.read_text().splitlines()[:16]
    got = [json.dumps(hunt.hunt_line(hunt.FIRST_SEED + i), sort_keys=True) for i in range(16)]
    assert got == want
