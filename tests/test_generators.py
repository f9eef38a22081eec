import json
import math
import random

import pytest

from spherecover import generators, io
from spherecover.arrangement import CURVE, ArrangementError, CurveInput, SpecialSet
from spherecover.generators import (
    GenerationStuck,
    _close_scaffold_sides,
    _count_branches,
    _random_slit,
    _sph,
    branched_fan,
    generate_disk_covering,
    make_base,
    random_base,
)
from spherecover.geometry import GeometryError, Rotation, points_coincide
from spherecover.surface import SurfaceComplex, functionals, require_valid

from conftest import hunt_module

SEEDS = range(24)


def reference_hosts_fan(bc, fan_m, max_sheets, special_face_cap):
    """The fan host test of generate_disk_covering on a scaffolded base, as it
    was before random_base took the fan requirement."""
    special_faces = bc.special_tips_by_face()
    for v in bc.markers:
        f_m = bc.face_of_dart(bc.fans[v][0])
        cap = max_sheets
        if special_face_cap is not None and f_m in special_faces:
            cap = special_face_cap
        if cap >= fan_m:
            return True
    return False


def reference_random_base(rng, q=3, with_marker=False, min_clean_faces=0, fan=None):
    """random_base as it was before any early refusal: every base is traced
    and scaffolded in full, then its clean faces are counted exactly and,
    for a fan requirement, its marker faces tested after scaffolding."""
    for _attempt in range(400):
        pts = generators._random_curve_points(rng)
        try:
            segs = CurveInput(tuple(pts)).segments
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
        if fan is not None and not reference_hosts_fan(bc, *fan):
            raise GenerationStuck("no marker face can host the fan")
        return bc
    raise GenerationStuck("could not build a random base")


def reference_generate_disk_covering(seed, max_sheets=8, max_faces=32, q=3,
                                     branch_budget=6, sew_prob=0.35,
                                     special_face_cap=None, with_marker=False,
                                     fan_m=0, slits=0):
    """generate_disk_covering as it was before random_base took the fan
    requirement: the base is scaffolded first, then the fan host is looked
    for."""
    rng = random.Random(repr(seed))
    clean = 2 if special_face_cap == 0 else 0
    bc = reference_random_base(rng, q=q, with_marker=with_marker, min_clean_faces=clean)
    special_faces = bc.special_tips_by_face()
    caps = {}
    for f in bc.live_faces():
        caps[f] = max_sheets
        if special_face_cap is not None and f in special_faces:
            caps[f] = special_face_cap
    start_candidates = [f for f in bc.live_faces() if caps[f] > 0]
    if not start_candidates:
        raise GenerationStuck("no admissible start face")
    s = None
    if fan_m >= 2:
        for v in bc.markers:
            f_m = bc.face_of_dart(bc.fans[v][0])
            if caps.get(f_m, 0) >= fan_m:
                s = branched_fan(bc, f_m, v, fan_m)
                break
        if s is None:
            raise GenerationStuck("no marker face can host the fan")
    else:
        s = SurfaceComplex(bc, [rng.choice(start_candidates)], {})
    for _ in range(rng.randint(4, 26)):
        free = s.free_sides()
        if not free:
            break
        do_sew = rng.random() < sew_prob and branch_budget > 0
        if do_sew:
            walk_len = sum(len(w) for w in s.walks())
            rng.shuffle(free)
            done = False
            for side in free:
                if s.base.kind(s.dart_of(side)) != CURVE:
                    continue
                nxt = s.walk_successor(side)
                if nxt == side or walk_len <= 2:
                    continue
                if s.dart_of(nxt) == (s.dart_of(side) ^ 1):
                    s.pair(side, nxt)
                    done = True
                    break
            if done:
                if _count_branches(s) >= branch_budget:
                    branch_budget = 0
                continue
        counts = {}
        for c in s.live_copy_ids():
            counts[s.copies[c]] = counts.get(s.copies[c], 0) + 1
        rng.shuffle(free)
        for side in free:
            f_new = s.base.face_of_dart(s.dart_of(side) ^ 1)
            if counts.get(f_new, 0) >= caps[f_new] or len(s.live_copy_ids()) >= max_faces:
                continue
            c_new = s.add_copy(f_new)
            pos = s.base.faces[f_new].cycle.index(s.dart_of(side) ^ 1)
            s.pair(side, (c_new, pos))
            break
    _close_scaffold_sides(s)
    require_valid(s, "generated disk covering")
    if s.topology_kind() != "disk":
        raise GenerationStuck("generator produced a non-disk")
    for _ in range(slits):
        s = _random_slit(s, rng) or s
    return s


def _dump(bc):
    return json.dumps(io.base_to_dict(bc), sort_keys=True)


def _outcome(build, *args, **kwargs):
    """What a generator call gives: ("ok", its output) or ("stuck", None)."""
    try:
        return "ok", build(*args, **kwargs)
    except GenerationStuck:
        return "stuck", None


# fan requirements (fan_m, max_sheets, special_face_cap) as
# generate_disk_covering passes them
FANS = [None, (2, 8, None), (2, 8, 0), (3, 8, 1), (3, 4, 2)]


@pytest.mark.parametrize("with_marker", [False, True])
@pytest.mark.parametrize("min_clean_faces", [0, 2])
def test_random_base_matches_scaffold_first_reference(min_clean_faces, with_marker):
    for fan in FANS:
        for seed in SEEDS:
            kw = dict(q=3 + seed % 3, with_marker=with_marker,
                      min_clean_faces=min_clean_faces, fan=fan)
            rng_new, rng_ref = random.Random(seed), random.Random(seed)
            new, bc_new = _outcome(random_base, rng_new, **kw)
            ref, bc_ref = _outcome(reference_random_base, rng_ref, **kw)
            assert new == ref, (fan, seed)
            if new == "ok":
                assert _dump(bc_new) == _dump(bc_ref), (fan, seed)
            assert rng_new.getstate() == rng_ref.getstate(), (fan, seed)


def test_random_base_matches_reference_on_tilted_curves(monkeypatch):
    """Curves tilted into the band of the special points put specials in
    several faces, so the exact clean-face count refuses bases the face-count
    bound lets through; the generator's own curves never get there."""
    tilt = Rotation.from_axis_angle((0.0, 1.0, 0.0), 0.9)
    draw = generators._random_curve_points
    monkeypatch.setattr(generators, "_random_curve_points",
                        lambda rng: [tilt.apply(p) for p in draw(rng)])
    for fan in (None, (2, 8, 0)):
        for seed in SEEDS:
            kw = dict(q=3 + seed % 3, with_marker=seed % 2 == 1, min_clean_faces=2, fan=fan)
            rng_new, rng_ref = random.Random(seed), random.Random(seed)
            new, bc_new = _outcome(random_base, rng_new, **kw)
            ref, bc_ref = _outcome(reference_random_base, rng_ref, **kw)
            assert new == ref, (fan, seed)
            if new == "ok":
                assert _dump(bc_new) == _dump(bc_ref), (fan, seed)
            assert rng_new.getstate() == rng_ref.getstate(), (fan, seed)


@pytest.mark.parametrize("fan_m", [0, 2, 3])
@pytest.mark.parametrize("special_face_cap", [None, 0, 1, 2])
def test_generate_disk_covering_matches_scaffold_first_reference(fan_m, special_face_cap):
    for seed in SEEDS:
        kw = dict(q=3 + seed % 3, special_face_cap=special_face_cap, fan_m=fan_m,
                  with_marker=fan_m >= 2 or seed % 2 == 1, slits=seed % 3)
        new, s_new = _outcome(generate_disk_covering, ("ref", seed), **kw)
        ref, s_ref = _outcome(reference_generate_disk_covering, ("ref", seed), **kw)
        assert new == ref, seed
        if new == "ok":
            assert json.dumps(io.surface_to_dict(s_new), sort_keys=True) == \
                json.dumps(io.surface_to_dict(s_ref), sort_keys=True), seed


def test_face_count_bound_is_sound(monkeypatch):
    """Every arrangement that completes has E - V + 2 faces, counted on its
    curve graph, so random_base's refusal on that count, before build_faces
    and mostly before the graph (``CurveInput.face_count``), is exact; and
    that refusal happens.  The graphs of the refused draws are built and
    traced here to check them as well."""
    draws, graphed, faced, completed = [], set(), set(), set()
    draw, build_graph, build = (generators._draw_points, generators.build_curve_graph,
                                generators.build_faces)
    curve_of = {}  # id of a graph -> id of its curve

    def recording_draw(rng, curve, pts, q, with_marker):
        out = draw(rng, curve, pts, q, with_marker)
        if out is not None:
            draws.append((curve, out))
        return out

    def recording_graph(curve, special, markers=()):
        graphed.add(id(curve))
        bc = build_graph(curve, special, markers=markers)
        curve_of[id(bc)] = id(curve)
        return bc

    def recording_faces(bc):
        faced.add(curve_of[id(bc)])
        out = build(bc)
        completed.add(curve_of[id(bc)])
        return out

    monkeypatch.setattr(generators, "_draw_points", recording_draw)
    monkeypatch.setattr(generators, "build_curve_graph", recording_graph)
    monkeypatch.setattr(generators, "build_faces", recording_faces)
    for seed in SEEDS:
        random_base(random.Random(seed), q=3 + seed % 3,
                    with_marker=seed % 2 == 1, min_clean_faces=2)
    refused = before_graph = checked = 0
    for curve, (specials, markers) in draws:
        try:
            bc = build_graph(curve, SpecialSet(tuple(specials)), markers=markers)
        except (ArrangementError, GeometryError):
            assert id(curve) not in faced
            continue
        n = len(bc.live_edges()) - len(bc.live_vertices()) + 2
        if n - 1 < 2:
            refused += 1
            before_graph += id(curve) not in graphed
            assert id(curve) not in faced
        else:
            assert id(curve) in faced
        try:
            build(bc)
        except (ArrangementError, GeometryError):
            assert id(curve) not in completed
            continue
        assert len(bc.live_faces()) == n
        checked += 1
    assert before_graph and checked > refused


def test_face_count_refuses_before_any_arrangement(monkeypatch):
    """In one pass of the 12 ``generate`` benchmark items, random_base wants
    172 graphs and refuses 94 of them on ``CurveInput.face_count``, before
    any arrangement is built; each refused count leaves fewer than 2 clean
    faces (min_clean_faces is 2 where special_face_cap is 0)."""
    counted, graphed = [], set()
    count, build_graph = CurveInput.face_count, generators.build_curve_graph

    def recording_count(curve):
        n = count(curve)
        counted.append((curve, n))
        return n

    def recording_graph(curve, special, markers=()):
        graphed.add(id(curve))
        return build_graph(curve, special, markers=markers)

    monkeypatch.setattr(CurveInput, "face_count", recording_count)
    monkeypatch.setattr(generators, "build_curve_graph", recording_graph)
    for n in range(1, 13):
        generators.generate_disk_covering_filtered(("c5", n), max_sum=6, max_degree=4)
    refused = [n for curve, n in counted if id(curve) not in graphed]
    assert len(counted) == 172 and len(refused) == 94
    assert all(n is not None and n - 1 < 2 for n in refused)


def test_random_base_propagates_unexpected_errors(monkeypatch):
    """Only the library's typed geometry errors mean "draw again"; a
    programming error surfaces at once instead of as GenerationStuck."""
    calls = []

    def broken_build(*args, **kwargs):
        calls.append(1)
        raise TypeError("broken arrangement builder")

    monkeypatch.setattr(generators, "build_curve_graph", broken_build)
    with pytest.raises(TypeError, match="broken arrangement builder"):
        random_base(random.Random(0))
    assert len(calls) == 1


def _filtered_attempts():
    """Every attempt (seed, params) that generate_disk_covering_filtered
    makes for the first 12 batch seeds and 6 hunt seeds, with its filters."""
    hunt = hunt_module()
    runs = [(("c5", n), dict(max_sum=6, max_degree=4)) for n in range(1, 13)]
    runs += [(("hunt", n), hunt.FILTERS)
             for n in range(hunt.FIRST_SEED, hunt.FIRST_SEED + 6)]
    attempts, real = [], generators.generate_disk_covering

    def record(seed, **params):
        attempts.append((seed, params, filters))
        return real(seed, **params)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(generators, "generate_disk_covering", record)
        for seed, filters in runs:
            generators.generate_disk_covering_filtered(seed, **filters)
    return attempts


def _run(seed, **params):
    """(GenerationStuck text or None, surface or None) of one attempt."""
    try:
        return None, generate_disk_covering(seed, **params)
    except GenerationStuck as err:
        return str(err), None


def test_face_bound_stops_only_attempts_the_filter_refuses():
    """Each attempt gives the same bytes with the bound the filter passes as
    without it, or the bounded run stops on the bound and the unbounded one
    is stuck too or builds a covering with more copies over a face than the
    smaller of max_sum and max_degree."""
    stopped = 0
    for seed, params, filters in _filtered_attempts():
        k = params["max_n_face"]
        assert k == min(filters["max_sum"], filters["max_degree"])
        bounded, s_bounded = _run(seed, **params)
        unbounded, s = _run(seed, **dict(params, max_n_face=None))
        if bounded == "more than %d copies over one face" % k:
            stopped += 1
            assert unbounded is not None or max(functionals(s).n_component.values()) > k, seed
        else:
            assert bounded == unbounded, seed
            if s is not None:
                assert io.dumps(io.surface_to_dict(s_bounded)) == io.dumps(io.surface_to_dict(s)), seed
    assert stopped == 19  # 18 of the batch attempts and 1 of the hunt ones


def test_largest_covering_number_is_largest_face_count():
    """On a valid disk covering the largest n_component is the largest
    n_face, which is why the face bound serves the degree and the sum."""
    built = 0
    for seed, params, _filters in _filtered_attempts():
        _err, s = _run(seed, **dict(params, max_n_face=None))
        if s is not None:
            require_valid(s)
            rep = functionals(s)
            assert max(rep.n_component.values()) == max(rep.n_face.values()), seed
            built += 1
    assert built == 50
