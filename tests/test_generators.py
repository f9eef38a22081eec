import json
import math
import random

import pytest

from spherecover import generators, io
from spherecover.arrangement import ArrangementError, CurveInput, attach_scaffold
from spherecover.generators import (
    GenerationStuck,
    _random_curve_points,
    _sph,
    make_base,
    random_base,
)
from spherecover.geometry import GeometryError, points_coincide

SEEDS = range(24)


def reference_random_base(rng, q=3, with_marker=False, min_clean_faces=0):
    """random_base as it was before the face-count bound: every base is
    scaffolded, then its clean faces are counted exactly."""
    for _attempt in range(400):
        pts = _random_curve_points(rng)
        try:
            segs = CurveInput(tuple(pts)).segments()
        except (ArrangementError, GeometryError):
            continue
        specials = []
        fails = 0
        lat_side = rng.choice([1, -1])
        while len(specials) < q and fails < 200:
            p = _sph(rng.uniform(0, 2 * math.pi), lat_side * rng.uniform(0.95, 1.4))
            ok = all(not points_coincide(p, q2, 0.12) for q2 in specials)
            ok = ok and all(seg.param_of(p, tol=0.02) is None for seg in segs)
            ok = ok and all(not points_coincide(p, c, 0.1) for c in pts)
            if ok:
                specials.append(p)
            else:
                fails += 1
        if len(specials) < q:
            continue
        markers = []
        if with_marker:
            for _try in range(80):
                p = _sph(rng.uniform(0, 2 * math.pi), rng.uniform(-0.3, 0.3))
                if all(seg.param_of(p, tol=0.05) is None for seg in segs) and \
                        all(not points_coincide(p, q2, 0.12) for q2 in specials + pts):
                    markers.append(p)
                    break
            if not markers:
                continue
        try:
            bc = make_base(pts, specials, markers=markers)
        except (ArrangementError, GeometryError):
            continue
        if len(bc.live_faces()) - len(bc.special_tips_by_face()) < min_clean_faces:
            continue
        return bc
    raise GenerationStuck("could not build a random base")


def _dump(bc):
    return json.dumps(io.base_to_dict(bc), sort_keys=True)


@pytest.mark.parametrize("with_marker", [False, True])
@pytest.mark.parametrize("min_clean_faces", [0, 2])
def test_random_base_matches_scaffold_first_reference(min_clean_faces, with_marker):
    for seed in SEEDS:
        q = 3 + seed % 3
        kw = dict(q=q, with_marker=with_marker, min_clean_faces=min_clean_faces)
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        new = random_base(rng_new, **kw)
        ref = reference_random_base(rng_ref, **kw)
        assert _dump(new) == _dump(ref), seed
        assert rng_new.getstate() == rng_ref.getstate(), seed


def test_face_count_bound_is_sound(monkeypatch):
    """Scaffolding keeps the face count and hangs a special tip in some face,
    so no scaffolded base has more than live_faces - 1 clean faces: every
    arrangement the bound refuses would have failed the exact count."""
    built = []
    build = generators.build_arrangement

    def recording_build(*args, **kwargs):
        bc = build(*args, **kwargs)
        built.append(bc)
        return bc

    monkeypatch.setattr(generators, "build_arrangement", recording_build)
    for seed in SEEDS:
        random_base(random.Random(seed), q=3 + seed % 3,
                    with_marker=seed % 2 == 1, min_clean_faces=2)
    refused = 0
    for bc in built:
        bound = len(bc.live_faces()) - 1
        refused += bound < 2
        try:
            out = attach_scaffold(bc)
        except (ArrangementError, GeometryError):
            continue
        assert len(out.live_faces()) == bound + 1
        assert len(out.live_faces()) - len(out.special_tips_by_face()) <= bound
    assert refused > 0


def test_random_base_propagates_unexpected_errors(monkeypatch):
    """Only the library's typed geometry errors mean "draw again"; a
    programming error surfaces at once instead of as GenerationStuck."""
    calls = []

    def broken_build(*args, **kwargs):
        calls.append(1)
        raise TypeError("broken arrangement builder")

    monkeypatch.setattr(generators, "build_arrangement", broken_build)
    with pytest.raises(TypeError, match="broken arrangement builder"):
        random_base(random.Random(0))
    assert len(calls) == 1
