"""Cache coherence of ``SurfaceComplex``: every cached table equals the one a
surface with the same copies and pairing over a copy of the base computes.

Checked on every state ``require_valid`` sees while ``normalize`` runs on both
stored corpora (the normalize output among them, whose tables are carried
through the final rotation), again on each of those states once its
``normalize`` call is over, and on the accretion states of generated
coverings just before each change."""

import importlib
import json
import pathlib
import random

import pytest

import spherecover.generators as gen
import spherecover.surgery as sg
from spherecover import io
from spherecover.generators import generate_disk_covering
from spherecover.normalize import normalize
from spherecover.surface import SurfaceComplex, SurfaceError, functionals

# the module (the package's ``normalize`` attribute is the function)
nm = importlib.import_module("spherecover.normalize")

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"

# cache key -> the table it holds, as a function of the surface
TABLES = {
    "free": SurfaceComplex.free_sides,
    "sheets": SurfaceComplex.sheets,
    "walks": SurfaceComplex.walks,
    "mult": SurfaceComplex.multiplicities,
    "n_face": SurfaceComplex.n_face,
    "components": SurfaceComplex.components,
    "functionals": functionals,
}


def assert_coherent(s, keys=None):
    """Each table of ``keys`` (default: all) equals the fresh surface's; a
    table read from ``s`` comes from its cache where the cache holds it."""
    assert set(s._cache) <= set(TABLES)
    fresh = SurfaceComplex(s.base.copy(), s.copies, s.pairing)
    for key in TABLES if keys is None else keys:
        assert TABLES[key](s) == TABLES[key](fresh), key


def _validated_states(monkeypatch):
    """Check each state at its ``require_valid`` call; returns the list of them."""
    seen = []
    orig = nm.require_valid

    def checked(s, context="", strict_scaffold=True):
        orig(s, context, strict_scaffold=strict_scaffold)
        assert_coherent(s)
        seen.append(s)
    for mod in (nm, sg, gen):
        monkeypatch.setattr(mod, "require_valid", checked)
    return seen


@pytest.mark.parametrize("name", ["batch", "stress"])
def test_cached_tables_match_a_fresh_surface_through_normalize(name, monkeypatch):
    seen = _validated_states(monkeypatch)
    outputs = 0
    for line in (CORPUS / (name + ".jsonl")).read_text().splitlines():
        del seen[:]
        try:
            out, _ = normalize(io.surface_from_dict(json.loads(line)))
        except SurfaceError:
            pass
        else:
            outputs += 1
            assert seen[-1] is out
        # nothing changed a state after its tables were cached
        for s in seen:
            assert_coherent(s, keys=list(s._cache))
    assert outputs == {"batch": 100, "stress": 80}[name]


@pytest.mark.parametrize("seed, kw", [(0, {}), (1, {}), (2, {"with_marker": True, "fan_m": 3}),
                                      (3, {"slits": 1})])
def test_cached_tables_match_a_fresh_surface_while_generating(seed, kw, monkeypatch):
    seen = _validated_states(monkeypatch)
    checks = []
    for name in ("pair", "add_copy"):
        orig = getattr(SurfaceComplex, name)

        def change(self, *args, _orig=orig):
            # the state about to change: every table read from it so far
            assert_coherent(self, keys=list(self._cache))
            checks.append(len(self._cache))
            return _orig(self, *args)
        monkeypatch.setattr(SurfaceComplex, name, change)
    s = generate_disk_covering(("cache", seed), max_sheets=4, **kw)
    assert_coherent(s)
    assert seen and any(checks)


def test_free_sides_returns_a_list_the_caller_may_reorder():
    s = generate_disk_covering(("cache", 0), max_sheets=4)
    s.invalidate()
    want = s.free_sides()
    assert want == [x for x in s.sides() if x not in s.pairing]
    cached = s._cache["free"]
    got = s.free_sides()
    random.Random(0).shuffle(got)
    got.reverse()
    got.pop()
    assert s._cache["free"] is cached and s.free_sides() == want
    assert s.free_sides() is not s.free_sides()
