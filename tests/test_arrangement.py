import json
import math
import pathlib

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from spherecover import arrangement, generators, geometry, io
from spherecover.arrangement import (
    CURVE,
    SCAFFOLD,
    ArrangementError,
    BaseComplex,
    CurveInput,
    OverlappingInput,
    ScaffoldBlocked,
    SpecialSet,
    TooManySegments,
    attach_bridges,
    attach_scaffold,
    bridges_cannot_fail,
    build_arrangement,
    build_curve_graph,
    build_faces,
    locate_pending,
)
from spherecover.geometry import (
    EPS_SEP,
    GeodesicSegment,
    GeometryError,
    Rotation,
    add,
    angle_between,
    cross,
    dot,
    meet_only_at_shared_end,
    neg,
    points_coincide,
    sphere_point,
    unit,
)

from conftest import (
    double_cover_cut,
    f4_double_cover,
    f4_with_north,
    face_interior_point,
    hunt_module,
    identity_hemisphere,
    reference_check,
    reference_trace_faces,
    sph,
)

NORTH_SPECIALS = (sph(2.4, 1.25), sph(3.3, 1.25), sph(4.2, 1.25))


def equator_points():
    return tuple(sph(t, 0.0) for t in (0.0, 2.1, 4.2))


def test_equator_triangle_two_faces():
    bc = build_arrangement(CurveInput(equator_points()), SpecialSet(NORTH_SPECIALS))
    assert len(bc.live_faces()) == 2
    areas = sorted(bc.faces[f].area for f in bc.live_faces())
    assert areas[0] == pytest.approx(2 * math.pi, abs=1e-10)
    assert areas[1] == pytest.approx(2 * math.pi, abs=1e-10)
    curve_edges = [e for e in bc.live_edges() if bc.edges[e].kind == CURVE]
    assert len(curve_edges) == 3


def test_figure_eight_three_faces():
    p = sph(0.0, 0.0)
    pts = (p, sph(-0.7, 0.7), sph(0.7, 0.72), p, sph(0.7, -0.7), sph(-0.7, -0.72))
    bc = build_arrangement(CurveInput(pts), SpecialSet(NORTH_SPECIALS))
    assert len(bc.live_faces()) == 3
    assert abs(sum(bc.faces[f].area for f in bc.live_faces()) - 4 * math.pi) < 1e-9
    bc.euler_check()


def test_curve_through_special_becomes_vertex():
    special_on_curve = sph(1.0, 0.0)  # interior of the first equator arc
    bc = build_arrangement(CurveInput(equator_points()),
                           SpecialSet((special_on_curve,) + NORTH_SPECIALS[:2]))
    v = bc.vertex_at(special_on_curve)
    assert v is not None
    assert bc.specials[v] == "a1"
    curve_edges = [e for e in bc.live_edges() if bc.edges[e].kind == CURVE]
    assert len(curve_edges) == 4  # the arc through a1 split in two


def test_crossing_curve_splits_arcs():
    # one transversal crossing: 4 input segments become 6 arcs, 3 faces... the
    # arrangement is validated structurally rather than against fixed counts
    pts = (sphere_point(1, 0, 0.3), sphere_point(0, 1, -0.3),
           sphere_point(0, 1, 0.3), sphere_point(1, 0, -0.3))
    bc = build_arrangement(CurveInput(pts), SpecialSet(NORTH_SPECIALS))
    bc.euler_check()
    assert abs(sum(bc.faces[f].area for f in bc.live_faces()) - 4 * math.pi) < 1e-9
    v = len(bc.live_vertices())
    assert v > 4  # crossings added vertices


def test_too_many_segments():
    pts = tuple(sph(2 * math.pi * k / 80, 0.2) for k in range(80))
    with pytest.raises(TooManySegments):
        CurveInput(pts)


def test_overlapping_input_rejected():
    # second segment retraces half of the first
    pts = (sph(0.0, 0.0), sph(1.0, 0.0), sph(0.5, 0.0), sph(3.5, 0.7))
    with pytest.raises(OverlappingInput):
        build_arrangement(CurveInput(pts), SpecialSet(NORTH_SPECIALS))


def test_scaffold_makes_specials_vertices():
    bc = attach_scaffold(build_arrangement(CurveInput(equator_points()),
                                           SpecialSet(NORTH_SPECIALS)))
    for p in NORTH_SPECIALS:
        v = bc.vertex_at(p)
        assert v is not None and v in bc.specials
        assert len(bc.fans[v]) == 1
        assert bc.kind(bc.fans[v][0]) == SCAFFOLD
    bc.check()
    # bridges do not change face count or areas
    assert len(bc.live_faces()) == 2
    assert abs(sum(bc.faces[f].area for f in bc.live_faces()) - 4 * math.pi) < 1e-9


def test_scaffold_no_interior_specials_is_identity():
    special_on_curve = tuple(sph(t, 0.0) for t in (1.0, 3.0, 5.0))
    bc0 = build_arrangement(CurveInput(equator_points()), SpecialSet(special_on_curve))
    bc = attach_scaffold(bc0)
    assert len(bc.live_edges()) == len(bc0.live_edges())


def test_special_tips_by_face_holds_the_tip_faces():
    # a1 lies on the curve (no tip); a2 hangs in the north face, a3 in the south
    on_curve, north, south = sph(1.0, 0.0), sph(2.4, 1.25), sph(3.3, -1.25)
    bc = attach_scaffold(build_arrangement(CurveInput(equator_points()),
                                           SpecialSet((on_curve, north, south))))
    f_north = bc.locate_point(sphere_point(0, 0, 1))[1]
    f_south = bc.locate_point(sphere_point(0, 0, -1))[1]
    assert f_north != f_south and bc.vertex_at(on_curve) in bc.specials
    assert bc.special_tips_by_face() == {f_north: [bc.vertex_at(north)],
                                         f_south: [bc.vertex_at(south)]}


def test_curve_segments_are_built_once():
    curve = CurveInput(equator_points())
    segs = curve.segments
    assert isinstance(segs, tuple) and curve.segments is segs
    assert [(s.a, s.b) for s in segs] == [
        (curve.points[i], curve.points[(i + 1) % 3]) for i in range(3)]


def test_scaffold_refuses_a_point_on_an_earlier_tip():
    """The second of two coinciding markers meets the first one's tip: it is
    refused before any bridge, as it was when located after the bridge."""
    m = sph(1.0, -0.6)
    for markers in ([m, m], [m, sph(1.0, -0.6 + 1e-10)]):
        bc = build_arrangement(CurveInput(equator_points()),
                               SpecialSet(NORTH_SPECIALS), markers=markers)
        with pytest.raises(ScaffoldBlocked, match="strictly inside"):
            locate_pending(bc)
        with pytest.raises(ScaffoldBlocked, match="strictly inside"):
            attach_scaffold(bc)


def test_bridges_cannot_fail_only_clear_of_degeneracy():
    """bridges_cannot_fail is False for a point on an edge's great circle,
    such as the antipode of a vertex, where it cannot vouch for the bridges;
    the bridges are still built there."""
    pts = (sph(0.0, 0.0), sph(1.0, 0.5), sph(2.0, 0.0))
    for marker, ok in ((sph(3.5, -0.4), True),
                       (sph(3.0, 0.0), False),  # on the circle of the edge 2 -> 0
                       (sph(1.0 + math.pi, -0.5), False)):  # a vertex's antipode
        bc = build_arrangement(CurveInput(pts), SpecialSet(NORTH_SPECIALS), markers=[marker])
        faces = locate_pending(bc)
        assert bridges_cannot_fail(bc, faces) is ok
        out = attach_scaffold(bc)
        attach_bridges(bc, faces)
        assert bc.markers == out.markers and len(bc.live_edges()) == len(out.live_edges())


def test_left_right_faces_antisymmetric():
    bc = attach_scaffold(build_arrangement(CurveInput(equator_points()),
                                           SpecialSet(NORTH_SPECIALS)))
    for e in bc.live_edges():
        if bc.edges[e].kind != CURVE:
            continue
        # (left, right) face of each dart; the right face is the twin's left
        l, r = bc.left_face(2 * e), bc.left_face((2 * e) ^ 1)
        l2, r2 = bc.left_face(2 * e + 1), bc.left_face((2 * e + 1) ^ 1)
        assert (l, r) == (r2, l2)


def test_left_of_eastward_equator_arc_is_north():
    bc = build_arrangement(CurveInput(equator_points()), SpecialSet(NORTH_SPECIALS))
    for e in bc.live_edges():
        seg = bc.dart_segment(2 * e)
        # dart direction eastward iff pole points north
        north_face = bc.left_face(2 * e) if seg.pole[2] > 0 else bc.left_face(2 * e + 1)
        p = face_interior_point(bc, north_face)
        assert p[2] > 0


def _ray_cross_oracle(bc, p):
    """Independent point location: first curve arc crossed walking along a
    generic great circle decides the side."""
    from spherecover.geometry import Rotation, unit
    rng = np.random.default_rng(7)
    for _ in range(20):
        direction = unit(np.cross(p, rng.standard_normal(3)))
        best = None
        for e in bc.live_edges():
            if bc.edges[e].kind != CURVE:
                continue
            seg = bc.dart_segment(2 * e)
            # walk from p along the great circle through p with tangent direction
            pole = unit(np.cross(p, direction))
            probe_hits = []
            from spherecover.geometry import segment_intersection
            full = [GeodesicSegment(p, unit(np.cross(pole, p))),
                    GeodesicSegment(unit(np.cross(pole, p)), np.negative(p))]
            for piece_idx, piece in enumerate(full):
                for h in segment_intersection(piece, seg):
                    if isinstance(h, GeodesicSegment):
                        continue
                    t = piece.param_of(h)
                    if t is None or t < 1e-9:
                        continue
                    probe_hits.append((piece_idx, t, e, h))
            for hit in probe_hits:
                if best is None or (hit[0], hit[1]) < (best[0], best[1]):
                    best = hit
        if best is None:
            continue
        _, _, e, h = best
        seg = bc.dart_segment(2 * e)
        side = float(np.dot(p, seg.pole))
        if abs(side) < 1e-9:
            continue
        return bc.left_face(2 * e) if side > 0 else bc.left_face(2 * e + 1)
    return None


def test_locate_point_against_crossing_oracle():
    bc = attach_scaffold(build_arrangement(CurveInput(equator_points()),
                                           SpecialSet(NORTH_SPECIALS)))
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(60):
        p = sphere_point(*rng.standard_normal(3))
        loc = bc.locate_point(p)
        if loc[0] != "face":
            continue
        oracle = _ray_cross_oracle(bc, p)
        if oracle is None:
            continue
        assert loc[1] == oracle
        checked += 1
    assert checked >= 30


def test_locate_point_on_edge_and_vertex():
    bc = build_arrangement(CurveInput(equator_points()), SpecialSet(NORTH_SPECIALS))
    loc = bc.locate_point(sph(1.0, 0.0))
    assert loc[0] == "edge"
    loc = bc.locate_point(equator_points()[0])
    assert loc[0] == "vertex"
    loc = bc.locate_point(sphere_point(0, 0, 1))
    assert loc[0] == "face"


def ref_locate_point(bc, p):
    """locate_point with every test exact: the vertex scan by points_coincide,
    param_of on every curve edge and the full nearest scan (nearest_point on
    every curve edge)."""
    p = unit(p)
    for v in bc.live_vertices():
        if points_coincide(bc.vertices[v], p):
            return ("vertex", v)
    for e in bc.live_edges():
        if bc.edges[e].kind != CURVE:
            continue
        t = bc.dart_segment(2 * e).param_of(p)
        if t is not None:
            return ("edge", e, t)
    best = None
    for e in bc.live_edges():
        if bc.edges[e].kind != CURVE:
            continue
        seg = bc.dart_segment(2 * e)
        d_ang, x = seg.nearest_point(p)
        if best is None or d_ang < best[0]:
            ed = bc.edges[e]
            best = (d_ang, e, ed.a if x is seg.a else ed.b if x is seg.b else None)
    if best is None:
        raise ArrangementError("complex has no curve edges")
    _, e, vtx = best
    if vtx is None:
        side = dot(p, bc.dart_segment(2 * e).pole)
        d = 2 * e if side > 0 else 2 * e + 1
        return ("face", bc.left_face(d))
    fan = [d for d in bc.fans[vtx] if bc.kind(d) == CURVE]
    i = ref_wedge(bc.vertices[vtx], p, [bc.dart_tangent(d) for d in fan])
    return ("face", bc.left_face(fan[i]))


def ref_wedge(at, p, tangents):
    """The exact wedge rule, written out here: the first tangent at ``at``
    whose azimuth, in the frame of tangents[0], least precedes the
    direction toward p."""
    e1 = unit(tangents[0])
    e2 = unit(cross(at, e1))

    def az(vec):
        return math.atan2(dot(vec, e2), dot(vec, e1)) % (2 * math.pi)
    target = az(unit(cross(cross(at, p), at)))
    return min(range(len(tangents)), key=lambda i: (target - az(tangents[i])) % (2 * math.pi))


def _turned(v, t, ang):
    """The point ang from v in the direction of the unit tangent t at v."""
    return unit(add(tuple(math.cos(ang) * x for x in v), tuple(math.sin(ang) * x for x in t)))


def _star_points(rng):
    """A random star polygon (crossing itself at times): 3 to 7 vertices at
    0.1 to 1.4 rad from a random centre, in order of their turn about it."""
    c = unit(rng.standard_normal(3).tolist())
    e1 = unit(cross(c, rng.standard_normal(3).tolist()))
    e2 = cross(c, e1)
    k = int(rng.integers(3, 8))
    turns = np.sort(rng.uniform(0, 2 * math.pi, k))
    return tuple(_turned(c, unit(add(tuple(math.cos(a) * x for x in e1),
                                     tuple(math.sin(a) * x for x in e2))), r)
                 for a, r in zip(turns, rng.uniform(0.1, 1.4, k)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_locate_point_matches_the_full_nearest_scan(seed):
    # a random star polygon (crossing itself at times), and points on the
    # bisectors of the angles between curve darts at each vertex, where two
    # edges are (nearly) equally near, as well as random points
    rng = np.random.default_rng(seed)
    try:
        bc = build_arrangement(CurveInput(_star_points(rng)), SpecialSet(NORTH_SPECIALS))
    except (ArrangementError, GeometryError):
        return
    probes = [unit(rng.standard_normal(3).tolist()) for _ in range(10)]
    for v in bc.live_vertices():
        pv = bc.vertices[v]
        tangents = [unit(bc.dart_tangent(d)) for d in bc.fans[v] if bc.kind(d) == CURVE]
        for t1, t2 in zip(tangents, tangents[1:] + tangents[:1]):
            mid = add(t1, t2)
            if dot(mid, mid) < 1e-6:
                continue
            for sign in (1, -1):
                for ang in (2e-9, 1e-7, 1e-4, 0.05):
                    probes.append(_turned(pv, unit(mid if sign > 0 else neg(mid)), ang))
    for p in probes:
        assert bc.locate_point(p) == ref_locate_point(bc, p)


def _star_base(seed):
    """The star polygon of this seed with the north specials bridged in;
    None where it is refused."""
    try:
        return attach_scaffold(build_arrangement(CurveInput(_star_points(np.random.default_rng(seed))),
                                                 SpecialSet(NORTH_SPECIALS)))
    except (ArrangementError, GeometryError):
        return None


def _nearest_feature_key(bc, p):
    """The vertex or the curve edge whose point the full exact nearest scan picks."""
    best = None
    for e in bc.live_edges():
        if bc.edges[e].kind == CURVE:
            seg = bc.dart_segment(2 * e)
            d, x = seg.nearest_point(p)
            if best is None or d < best[0]:
                ed = bc.edges[e]
                best = (d, ed.a if x is seg.a else ed.b if x is seg.b else ("edge", e))
    return best[1]


def _locate_probes(bc, rng):
    """Points where the twins of locate_point come near their thresholds: at
    5e-10 (a vertex hit), 2e-9, 1e-8, 1e-6 and 1e-4 rad from each vertex
    along each curve dart and inside each wedge; on each arc's circle just
    past its ends; 5e-10 and 2e-9 rad off its midpoint; at its poles; and at
    0, 5e-8 and 1.5e-7 rad (``_PRUNE`` is 1e-7) from where the nearest
    feature switches on the arc between two random points: near-ties
    between two arcs, two vertices, or an arc and a vertex."""
    steps = (5e-10, 2e-9, 1e-8, 1e-6, 1e-4)
    probes = []
    for v in bc.live_vertices():
        pv = bc.vertices[v]
        tangents = [unit(bc.dart_tangent(d)) for d in bc.fans[v] if bc.kind(d) == CURVE]
        for t1, t2 in zip(tangents, tangents[1:] + tangents[:1]):
            mid = add(t1, t2)
            inside = [] if dot(mid, mid) < 1e-6 else [unit(mid), neg(unit(mid))]
            for t in [t1] + inside:
                probes.extend(_turned(pv, t, ang) for ang in steps)
    for e in bc.live_edges():
        if bc.edges[e].kind != CURVE:
            continue
        seg = bc.dart_segment(2 * e)
        t = unit(cross(seg.pole, seg.a))
        for ang in steps[1:]:
            probes += [_turned(seg.a, t, -ang), _turned(seg.a, t, seg.length + ang)]
        mid = seg.point_at(0.5)
        for ang in (5e-10, 2e-9):
            probes += [_turned(mid, seg.pole, ang), _turned(mid, seg.pole, -ang)]
        probes += [seg.pole, neg(seg.pole)]
    for _ in range(12):
        x, y = (unit(rng.standard_normal(3).tolist()) for _ in range(2))
        kx = _nearest_feature_key(bc, x)
        if angle_between(x, y) > 3.0 or kx == _nearest_feature_key(bc, y):
            continue
        path, lo, hi = GeodesicSegment(x, y), 0.0, 1.0
        for _ in range(45):
            mid = (lo + hi) / 2
            if _nearest_feature_key(bc, path.point_at(mid)) == kx:
                lo = mid
            else:
                hi = mid
        tie = path.point_at(lo)
        u = unit(cross(path.pole, tie))
        probes += [_turned(tie, u, off) for off in (0.0, 5e-8, -5e-8, 1.5e-7, -1.5e-7)]
    return probes


def _outcome(fn):
    try:
        return fn()
    except (ArrangementError, GeometryError) as err:
        return "%s: %s" % (type(err).__name__, err)


def test_locate_point_twins_decide_as_the_exact_scan(monkeypatch):
    # probes at the twins' margins on star polygons (some crossing
    # themselves) with bridged specials; each answer and each path is
    # counted, and every one occurs
    log = []
    ends, nearest = geometry._fnearest_end, geometry.nearest_feature
    monkeypatch.setattr(geometry, "_fnearest_end", lambda seg, p: log.append(ends(seg, p)) or log[-1])
    monkeypatch.setattr(geometry, "nearest_feature", lambda *a: log.append("exact") or nearest(*a))
    kinds, paths = {}, {}
    for seed in range(24):
        bc = _star_base(seed)
        if bc is None:
            continue
        for p in _locate_probes(bc, np.random.default_rng(seed)):
            log.clear()
            got = _outcome(lambda: bc.locate_point(p))
            assert got == _outcome(lambda: ref_locate_point(bc, p)), (seed, p)
            kind = got[0] if isinstance(got, tuple) else "error"
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "face":
                # no exact scan: a foot decided the side, else an end the wedge
                path = "exact" if "exact" in log else "side" if "foot" in log else "wedge"
                paths[path] = paths.get(path, 0) + 1
    assert set(kinds) == {"vertex", "edge", "face"}, kinds
    assert set(paths) == {"exact", "side", "wedge"}, paths


def test_every_locate_of_the_generator_and_the_pipeline_matches_the_reference(monkeypatch):
    # every point that locate_points answers (locate_point is its one-point
    # case) while generating 40 criterion-5 coverings and normalizing both
    # stored corpora, against the exact reference on the raw point
    import importlib

    from spherecover.surface import SurfaceError

    normalize = importlib.import_module("spherecover.normalize").normalize

    locate, calls = arrangement.BaseComplex.locate_points, []

    def checked(self, points):
        asked = []

        def tapped():
            for p in points:
                asked.append(p)
                yield p
        answers = locate(self, tapped())
        while True:
            try:
                got = next(answers)
            except StopIteration:
                return
            except (ArrangementError, GeometryError) as err:
                want = _outcome(lambda: ref_locate_point(self, asked[-1]))
                assert want == "%s: %s" % (type(err).__name__, err)
                calls.append(err)
                raise
            assert got == _outcome(lambda: ref_locate_point(self, asked[-1]))
            calls.append(got)
            yield got
    monkeypatch.setattr(arrangement.BaseComplex, "locate_points", checked)
    for n in range(1, 41):
        generators.generate_disk_covering_filtered(("c5", n), max_sum=6, max_degree=4)
    generated = len(calls)
    corpus = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"
    for name in ("batch", "stress"):
        for line in (corpus / (name + ".jsonl")).read_text().splitlines():
            try:
                normalize(io.surface_from_dict(json.loads(line)))
            except SurfaceError:
                pass
    # 798 and 236 calls when this test was written, every one a face
    assert generated > 700 and len(calls) - generated > 200


def ref_corner_pos_toward(bc, f, v, p):
    """The wedge test at every corner of v in face f, one corner too: the
    position of the narrowest corner whose ccw wedge, by azimuths in v's
    tangent frame, holds the direction toward p; v's first corner in the
    cycle if none does."""
    pv = bc.vertices[v]
    t = unit(cross(cross(pv, p), pv))
    cyc = bc.faces[f].cycle
    e1, e2 = geometry.tangent_frame(pv)

    def az(vec):
        return math.atan2(dot(vec, e2), dot(vec, e1)) % (2 * math.pi)

    best, first = None, None
    for pos, d in enumerate(cyc):
        if bc.tail(d) != v:
            continue
        if first is None:
            first = pos
        out_t = bc.dart_tangent(d)
        in_t = bc.dart_tangent(cyc[pos - 1] ^ 1)
        span = (az(in_t) - az(out_t)) % (2 * math.pi)
        if span == 0.0:
            span = 2 * math.pi
        off = (az(t) - az(out_t)) % (2 * math.pi)
        if off <= span and (best is None or span < best[0]):
            best = (span, pos)
    return first if best is None else best[1]


def test_every_bridge_corner_of_the_generator_matches_the_wedge_test(monkeypatch):
    # every corner picked while generating 40 criterion-5 coverings, against
    # the wedge test at every corner
    corner, counts = arrangement._corner_pos_toward, {"one": 0, "many": 0}

    def checked(bc, f, v, p):
        assert _outcome(lambda: corner(bc, f, v, p)) == _outcome(lambda: ref_corner_pos_toward(bc, f, v, p))
        # a point at the attachment vertex has no direction
        with pytest.raises(GeometryError):
            corner(bc, f, v, bc.vertices[v])
        one = sum(bc.tail(d) == v for d in bc.faces[f].cycle) == 1
        counts["one" if one else "many"] += 1
        return corner(bc, f, v, p)
    monkeypatch.setattr(arrangement, "_corner_pos_toward", checked)
    for n in range(1, 41):
        generators.generate_disk_covering_filtered(("c5", n), max_sum=6, max_degree=4)
    assert counts["one"] > 0 and counts["many"] > 0, counts


def test_rebuild_idempotent():
    bc = build_arrangement(CurveInput(equator_points()), SpecialSet(NORTH_SPECIALS))
    # feed the arrangement's own arcs back in as a traversal
    walk_points = []
    for d in bc.traversal:
        walk_points.append(bc.vertices[bc.tail(d)])
    bc2 = build_arrangement(CurveInput(tuple(walk_points)), SpecialSet(NORTH_SPECIALS))
    assert len(bc2.live_edges()) == len(bc.live_edges())
    assert len(bc2.live_faces()) == len(bc.live_faces())
    assert sorted(round(bc2.faces[f].area, 9) for f in bc2.live_faces()) == \
        sorted(round(bc.faces[f].area, 9) for f in bc.live_faces())


def test_doubled_arc_slit_same_face_both_sides():
    # out-and-back spur realized as one undirected edge: left == right face
    pts = (sph(0.0, 0.0), sph(1.0, 0.35), sph(0.0, 0.0), sph(2.1, 0.0), sph(4.2, 0.0))
    bc = build_arrangement(CurveInput(pts), SpecialSet(NORTH_SPECIALS))
    bc.check()
    slits = [e for e in bc.live_edges()
             if bc.left_face(2 * e) == bc.left_face(2 * e + 1)]
    assert len(slits) == 1
    assert abs(sum(bc.faces[f].area for f in bc.live_faces()) - 4 * math.pi) < 1e-9


def test_rotate_base_complex_preserves_structure():
    from spherecover.geometry import Rotation
    bc = attach_scaffold(build_arrangement(CurveInput(equator_points()),
                                           SpecialSet(NORTH_SPECIALS)))
    r = Rotation.from_axis_angle([0.3, -0.5, 0.8], 1.1)
    rbc = bc.rotated(r)
    assert bc.rotated(Rotation.identity()).faces[0].cycle == bc.faces[0].cycle
    for e in bc.live_edges():
        seg = bc.dart_segment(2 * e)
        seg2 = rbc.dart_segment(2 * e)
        assert abs(seg.length - seg2.length) < 1e-12
    assert [f for f in rbc.live_faces()] == [f for f in bc.live_faces()]


def _hex(v):
    """The exact bits of a point's coordinates (signed zeros told apart)."""
    return tuple(float(x).hex() for x in v)


def test_dart_segment_and_tangent_cache():
    bc = build_arrangement(CurveInput(equator_points()), SpecialSet(NORTH_SPECIALS))

    def live_darts():
        return [d for e in bc.live_edges() for d in (2 * e, 2 * e + 1)]

    def assert_fresh(d):
        v, w = bc.vertices[bc.tail(d)], bc.vertices[bc.head(d)]
        seg, want = bc.dart_segment(d), GeodesicSegment(v, w)
        for got, exp in ((seg.a, want.a), (seg.b, want.b), (seg.pole, want.pole),
                         (bc.dart_tangent(d), unit(cross(cross(v, w), v)))):
            assert _hex(got) == _hex(exp)
        assert seg.length.hex() == want.length.hex()

    for d in live_darts():
        assert_fresh(d)
        assert bc.dart_segment(d) is bc.dart_segment(d)
        assert bc.dart_tangent(d) is bc.dart_tangent(d)
    assert bc.copy().dart_segment(0) is not bc.dart_segment(0)
    # replace a vertex entry the way the rotation step moves a special tip
    e = next(e for e in bc.live_edges() if bc.edges[e].kind == CURVE)
    v = bc.edges[e].a
    old_seg, old_tan = bc.dart_segment(2 * e), bc.dart_tangent(2 * e)
    bc.vertices[v] = Rotation.from_axis_angle([0, 0, 1], 0.05).apply(bc.vertices[v])
    for d in live_darts():
        assert_fresh(d)
    assert bc.dart_segment(2 * e) is not old_seg and bc.dart_tangent(2 * e) is not old_tan
    bc.split_edge(e, bc.dart_segment(2 * e).point_at(0.5))
    for d in live_darts():
        assert_fresh(d)


# -- arcs that meet only at a shared end -----------------------------------------
# build_curve_graph and _segment_clear skip segment_intersection on a pair that
# geometry.meet_only_at_shared_end vouches for.  Each test builds the same
# input with the predicate as shipped and with it patched to refuse every
# pair, and requires the same result.


def _graph_record(bc):
    return (bc.vertices, [(e.a, e.b, e.kind, e.length) for e in bc.edges],
            bc.traversal, bc.meta["pending_interior_points"])


def _bridged_record(bc):
    """The bridged complex, or the error that refused it."""
    try:
        attach_bridges(bc, locate_pending(build_faces(bc)))
    except (ArrangementError, GeometryError) as err:
        return type(err).__name__, str(err)
    return (bc.vertices, [(e.a, e.b, e.kind, e.length) for e in bc.edges], bc.fans,
            [f.cycle for f in bc.faces], bc.specials, bc.markers)


def _both_ways(monkeypatch, inputs, predicate="meet_only_at_shared_end"):
    """(graph, bridged) records of each input, as shipped and with the
    arrangement predicate ``predicate`` refusing every pair.  Each curve's
    cached ``meetings`` are dropped before each build, so that they are
    computed again under the predicate in force."""
    def records():
        out = []
        for curve, special, markers in inputs:
            curve.__dict__.pop("meetings", None)
            g = build_curve_graph(curve, special, markers)
            out.append((_graph_record(g), _bridged_record(g)))
        return out

    shipped = records()
    with monkeypatch.context() as m:
        m.setattr(arrangement, predicate, lambda p, q: False)
        return shipped, records()


def _base_inputs(seeds, **filters):
    """Every (curve, special, markers) that random_base draws while the
    filtered coverings of ``seeds`` generate: each base it wants, whether it
    is kept or refused on the face count before its graph is built."""
    inputs, real = [], generators._draw_points

    def record(rng, curve, pts, q, with_marker):
        drawn = real(rng, curve, pts, q, with_marker)
        if drawn is not None:
            inputs.append((curve, SpecialSet(tuple(drawn[0])), tuple(drawn[1])))
        return drawn

    with pytest.MonkeyPatch.context() as m:
        m.setattr(generators, "_draw_points", record)
        for seed in seeds:
            generators.generate_disk_covering_filtered(seed, **filters)
    return inputs


def _hunt_base_inputs(n_seeds):
    """The base inputs of the first n_seeds hunt seeds."""
    hunt = hunt_module()
    return _base_inputs([("hunt", n) for n in range(hunt.FIRST_SEED, hunt.FIRST_SEED + n_seeds)],
                        **hunt.FILTERS)


def test_shared_end_shortcut_keeps_the_hunt_bases(monkeypatch):
    """Over the bases of the first 64 hunt seeds, the graph (vertices, edges,
    traversal, pending points) and the bridges attach_bridges picks are the
    same with the shortcut as without it, and the shortcut is taken."""
    inputs = _hunt_base_inputs(64)
    taken = []
    real = arrangement.meet_only_at_shared_end

    def counting(s1, s2):
        ok = real(s1, s2)
        taken.append(ok)
        return ok

    monkeypatch.setattr(arrangement, "meet_only_at_shared_end", counting)
    shipped, refused = _both_ways(monkeypatch, inputs)
    assert len(inputs) > 64 and sum(taken) > len(inputs)
    assert shipped == refused


# each curve's arcs 0 and 1 share an end
@pytest.mark.parametrize("name, pts", [
    # the arcs meet at an angle of about 0.005 rad
    ("sharp turn", (sph(0.0, 0.0), sph(1.0, 0.0), sph(2.0, 0.005), sph(1.0, 0.8))),
    ("collinear", (sph(0.0, 0.0), sph(1.0, 0.0), sph(2.0, 0.0), sph(1.0, 0.8))),
    ("short arc", (sph(0.0, 0.0), sph(0.05, 0.0), sph(1.0, 0.8))),
    ("arc near pi", (sph(0.0, 0.0), sph(3.1, 0.0), sph(1.5, 0.8))),
    ("doubled arc", (sph(0.0, 0.0), sph(1.0, 0.3))),  # both ends shared
])
def test_shared_end_shortcut_refuses_near_degenerate_pairs(monkeypatch, name, pts):
    curve = CurveInput(pts)
    s1, s2 = curve.segments[:2]
    assert not meet_only_at_shared_end(s1, s2) and not meet_only_at_shared_end(s2, s1)
    shipped, refused = _both_ways(monkeypatch, [(curve, SpecialSet(NORTH_SPECIALS), ())])
    assert shipped == refused


def test_shared_end_shortcut_off_for_close_curve_vertices(monkeypatch):
    """Two curve vertices within 1e-6 of each other turn the shortcut off
    for the whole graph, though the predicate vouches for some pair."""
    # a figure eight whose pinch is two vertices 5e-7 apart
    pts = (sph(0.0, 0.0), sph(-0.7, 0.7), sph(0.7, 0.72),
           sph(0.0, 5e-7), sph(0.7, -0.7), sph(-0.7, -0.72))
    curve = CurveInput(pts)
    assert meet_only_at_shared_end(curve.segments[0], curve.segments[1])
    calls = []
    real = arrangement.segment_intersection

    def counting(s1, s2, tol=EPS_SEP):
        calls.append(1)
        return real(s1, s2, tol)

    monkeypatch.setattr(arrangement, "segment_intersection", counting)
    build_curve_graph(curve, SpecialSet(NORTH_SPECIALS))
    assert len(calls) == 6 * 5 // 2
    shipped, refused = _both_ways(monkeypatch, [(curve, SpecialSet(NORTH_SPECIALS), ())])
    assert shipped == refused


# -- each curve arc measured once ------------------------------------------------
# build_curve_graph measures an edge by its input arc where the edge's stored
# vertices are that arc's ends bit for bit, and seeds the edge's forward dart
# in the dart cache with the segment it measured it by where unit fixes both
# stored vertices.


def _seeded(bc):
    """The segments build_curve_graph seeded into the dart cache, each checked
    to be a fresh GeodesicSegment(tail, head) in a, b, pole and length bits."""
    out = []
    for d, (tail, head, seg) in bc._segments.items():
        assert d % 2 == 0 and tail is bc.vertices[bc.tail(d)] and head is bc.vertices[bc.head(d)]
        want = GeodesicSegment(tail, head)
        assert (_hex(seg.a), _hex(seg.b), _hex(seg.pole), seg.length.hex()) == \
            (_hex(want.a), _hex(want.b), _hex(want.pole), want.length.hex())
        out.append(seg)
    return out


def _counted_builds(monkeypatch):
    """A list that gains an entry for each GeodesicSegment arrangement.py builds."""
    built = []

    class Counted(GeodesicSegment):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(arrangement, "GeodesicSegment", Counted)
    return built


def test_curve_graph_measures_each_arc_once(monkeypatch):
    """Over the bases of the 40 criterion-5 seeds (the first 12 are the
    ``generate`` benchmark's items) and one crossing curve, every seeded
    dart-cache entry is the fresh segment, and the graph and its bridges
    are the same as with every edge segment built and none seeded
    (``_same_bits`` refusing every pair).  All three ways run: an edge
    measured by its input arc, a segment built for an edge (the crossing's
    pieces), and an edge left unseeded at a vertex that ``unit`` moves."""
    inputs = _base_inputs([("c5", n) for n in range(1, 41)], max_sum=6, max_degree=4)
    # the generator's bases have no crossing; this one splits two arcs
    crossing = (sphere_point(1, 0, 0.3), sphere_point(0, 1, -0.3),
                sphere_point(0, 1, 0.3), sphere_point(1, 0, -0.3))
    inputs.append((CurveInput(crossing), SpecialSet(NORTH_SPECIALS), ()))
    inputs[-1][0].segments  # the input arcs, built before the count
    shared = seeded_builds = unseeded = 0
    with monkeypatch.context() as m:
        built = _counted_builds(m)
        for curve, special, markers in inputs:
            bc = build_curve_graph(curve, special, markers)
            seeded = _seeded(bc)
            shared += sum(any(seg is s for s in curve.segments) for seg in seeded)
            seeded_builds += sum(any(seg is b for b in built) for seg in seeded)
            unseeded += len(bc.live_edges()) - len(seeded)
    # 1776 shared, 4 built and 14 unseeded when this test was written
    assert shared > 1000 and seeded_builds > 0 and unseeded > 0
    shipped, refused = _both_ways(monkeypatch, inputs, "_same_bits")
    assert shipped == refused


def _unit_moved(near):
    """A point u within 0.4 rad of the unit vector ``near`` that ``unit``
    moves to another point and back, unit(u) != u and unit(unit(u)) == u:
    an iterated unit vector, some 1 in 250 of which are such."""
    rng = np.random.default_rng(5)
    for _ in range(10 ** 5):
        u = tuple(float(c + rng.uniform(-0.2, 0.2)) for c in near)
        for _ in range(4):
            u = unit(u)
        if unit(u) != u and unit(unit(u)) == u:
            return u
    raise AssertionError("no point that unit moves and moves back")


def test_curve_graph_seeds_no_dart_at_a_vertex_unit_moves(monkeypatch):
    """A curve through a u that unit moves: the stored vertex is u itself,
    so its two arcs are measured by the input arcs (no segment is built),
    but neither is seeded, and their darts build their own segments; the
    third arc is seeded."""
    u = _unit_moved(sph(0.5, 0.3))
    curve = CurveInput((u, sph(1.5, 0.3), sph(1.0, 1.0)))
    curve.segments  # the input arcs, built before the count
    built = _counted_builds(monkeypatch)
    bc = build_curve_graph(curve, SpecialSet(NORTH_SPECIALS))
    v = bc.vertex_at(u)
    assert _hex(bc.vertices[v]) == _hex(u) and not built
    at_v = [e for e in bc.live_edges() if v in (bc.edges[e].a, bc.edges[e].b)]
    assert len(at_v) == 2 and not any(2 * e in bc._segments for e in at_v)
    assert [seg is curve.segments[1] for seg in _seeded(bc)] == [True]
    # the darts' own segments start or end at unit(u), not at the arc's u
    for e, arc in zip(at_v, (curve.segments[0], curve.segments[2])):
        seg = bc.dart_segment(2 * e)
        want = GeodesicSegment(bc.vertices[bc.edges[e].a], bc.vertices[bc.edges[e].b])
        assert (_hex(seg.a), _hex(seg.b), seg.length.hex()) == \
            (_hex(want.a), _hex(want.b), want.length.hex())
        assert (_hex(seg.a), _hex(seg.b)) != (_hex(arc.a), _hex(arc.b))


def test_curve_graph_shares_no_arc_across_a_zero_sign(monkeypatch):
    """A figure eight through (1, 0, 0) twice, the second time as
    (1, -0.0, 0): the stored vertex is (1.0, 0.0, 0.0), equal by value to
    the two arcs' ends at the second visit but not bit for bit, so each of
    those two gets a segment of its own, and every seeded segment is the
    fresh one."""
    pts = ((1.0, 0.0, 0.0), sph(0.6, 0.5), sph(1.2, 0.4),
           (1.0, -0.0, 0.0), sph(-0.6, -0.5), sph(-1.2, -0.4))
    curve = CurveInput(pts)
    curve.segments  # the input arcs, built before the count
    built = _counted_builds(monkeypatch)
    bc = build_curve_graph(curve, SpecialSet(NORTH_SPECIALS))
    assert len(bc.live_edges()) == 6 and _hex(bc.vertices[0]) == _hex((1.0, 0.0, 0.0))
    assert [(_hex(s.a), _hex(s.b)) for s in built] == [
        (_hex(curve.segments[2].a), _hex(bc.vertices[0])),
        (_hex(bc.vertices[0]), _hex(curve.segments[3].b))]
    assert len(_seeded(bc)) == 6


# -- the face count before the graph ----------------------------------------------
# CurveInput.face_count counts the faces from the arcs alone, where their
# distinct ends lie more than 1e-6 apart and every pair meets only at a shared
# end or not at all; random_base refuses on it before build_curve_graph.


def test_face_count_matches_the_graph_on_every_drawn_base():
    """Over every curve random_base draws points for, kept or refused, while
    the 40 criterion-5 seeds and the first 30 hunt seeds generate: wherever
    the count decides, it is E - V + 2 of build_curve_graph on the drawn
    points, and the faces that build_faces traces where it completes."""
    inputs = _base_inputs([("c5", n) for n in range(1, 41)], max_sum=6, max_degree=4)
    inputs += _hunt_base_inputs(30)
    decided = traced = 0
    for curve, special, markers in inputs:
        n = curve.face_count()
        if n is None:
            continue
        decided += 1
        bc = build_curve_graph(curve, special, markers)
        assert n == len(bc.live_edges()) - len(bc.live_vertices()) + 2
        try:
            build_faces(bc)
        except (ArrangementError, GeometryError):
            continue
        assert len(bc.live_faces()) == n
        traced += 1
    # 410 + 284 inputs, and the count declined on 13 + 15 when this was written
    assert len(inputs) > 600 and decided > 0.9 * len(inputs) and traced > 0.9 * decided


@pytest.mark.parametrize("name, pts", [
    # one transversal crossing splits arcs 0 and 2 (test_crossing_curve_splits_arcs)
    ("crossing", (sphere_point(1, 0, 0.3), sphere_point(0, 1, -0.3),
                  sphere_point(0, 1, 0.3), sphere_point(1, 0, -0.3))),
    # a figure eight whose pinch is two vertices 1e-7 apart
    ("close ends", (sph(0.0, 0.0), sph(-0.7, 0.7), sph(0.7, 0.72),
                    sph(0.0, 1e-7), sph(0.7, -0.7), sph(-0.7, -0.72))),
    # the second arc retraces half of the first (test_overlapping_input_rejected)
    ("shared subarc", (sph(0.0, 0.0), sph(1.0, 0.0), sph(0.5, 0.0), sph(3.5, 0.7))),
])
def test_face_count_declines_where_it_is_not_exact(name, pts):
    curve = CurveInput(pts)
    assert curve.face_count() is None
    if name == "shared subarc":
        with pytest.raises(OverlappingInput):
            build_curve_graph(curve, SpecialSet(NORTH_SPECIALS))
    elif name == "crossing":
        # a bow tie: its two lobes and the outside, where the arcs alone
        # would read 2 faces
        bc = build_curve_graph(curve, SpecialSet(NORTH_SPECIALS))
        assert len(bc.live_edges()) - len(bc.live_vertices()) + 2 == 3


def test_face_count_reads_the_cached_meetings(monkeypatch):
    """The arcs' meetings are computed once per curve: build_curve_graph
    after face_count runs no segment_intersection of its own."""
    calls = []
    real = arrangement.segment_intersection

    def counting(s1, s2, tol=EPS_SEP):
        calls.append(1)
        return real(s1, s2, tol)

    monkeypatch.setattr(arrangement, "segment_intersection", counting)
    crossing = CurveInput((sphere_point(1, 0, 0.3), sphere_point(0, 1, -0.3),
                           sphere_point(0, 1, 0.3), sphere_point(1, 0, -0.3)))
    assert crossing.face_count() is None and calls
    n_calls = len(calls)
    build_curve_graph(crossing, SpecialSet(NORTH_SPECIALS))
    assert len(calls) == n_calls


def _committed_bases():
    """The base of every committed surface: both corpora and the fixtures
    (``tests/data`` holds sweep records, not surfaces)."""
    corpus = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"
    bases = [io.base_from_dict(json.loads(line)["base"])
             for name in ("batch", "stress")
             for line in (corpus / (name + ".jsonl")).read_text().splitlines()]
    fixtures = [identity_hemisphere(), f4_double_cover(), f4_with_north(),
                f4_with_north(marker_at=2, a1_south=False),
                double_cover_cut([("marker", (0.7, -0.5))], {"marker"})]
    return bases + [s.base for s in fixtures]


def _first(items, pred):
    return next(x for x in items if pred(x))


def _face(bc, n=3):
    return bc.faces[_first(bc.live_faces(), lambda f: len(bc.faces[f].cycle) >= n)]


def _rotated(bc):
    cyc = _face(bc).cycle
    cyc[:] = cyc[1:] + cyc[:1]


def _reversed(bc):
    _face(bc).cycle.reverse()


def _split(bc):
    face = _face(bc, 2)
    k = len(face.cycle) // 2
    bc._new_face(face.cycle[k:], face.area / 2)
    face.cycle, face.area = face.cycle[:k], face.area / 2


def _merged(bc):
    f, g = bc.live_faces()[:2]
    bc.faces[f].cycle += bc.faces[g].cycle
    bc.faces[f].area += bc.faces[g].area
    bc.faces[g] = None


def _duplicated(bc):
    face = _face(bc, 1)
    bc._new_face(face.cycle, face.area)


def _doubled(bc):
    face = _face(bc, 1)
    face.cycle = face.cycle * 2


def _emptied(bc):
    _face(bc, 1).cycle = []


def _missing(bc):
    bc.fans[_first(bc.live_vertices(), lambda v: len(bc.fans[v]) >= 2)].pop(0)


def _dead(bc):
    v = _first(bc.live_vertices(), lambda v: bc.fans[v])
    bc.edges[bc.fans[v][0] >> 1] = None


def _wrong_tail(bc):
    ed = bc.edges[bc.live_edges()[0]]
    ed.a, ed.b = ed.b, ed.a


def _swapped(bc):
    fan = bc.fans[_first(bc.live_vertices(), lambda v: len(bc.fans[v]) >= 3)]
    fan[0], fan[1] = fan[1], fan[0]


def _negative(bc):
    """Relabel the darts of the first live edge e as 2e - 2E and 2e + 1 - 2E
    (E edges), in the fans and in the face cycles: as list indices both wrap
    onto e, with its tails."""
    e, shift = bc.live_edges()[0], 2 * len(bc.edges)
    relabel = {2 * e: 2 * e - shift, 2 * e + 1: 2 * e + 1 - shift}
    for v in bc.live_vertices():
        bc.fans[v] = [relabel.get(d, d) for d in bc.fans[v]]
    for f in bc.live_faces():
        bc.faces[f].cycle = [relabel.get(d, d) for d in bc.faces[f].cycle]


MUTATIONS = [_rotated, _reversed, _split, _merged, _duplicated, _doubled, _emptied,
             _missing, _dead, _wrong_tail, _swapped, _negative]


def _verdict(check, bc):
    try:
        check(bc)
    except ValueError as err:  # ArrangementError, or min() of an empty cycle
        return str(err)
    return None


def test_check_matches_the_trace_and_compare_reference():
    """On every committed base, and on each mutation of each, ``check`` gives
    the verdict and the message of ``reference_check``, which traces every
    face and compares cycle sets; an emptied cycle fails the reference inside
    min() of its canonical key, and a negative dart is refused by check before
    the reference finds its edge's dart missing, so only their verdicts are
    compared."""
    bases = _committed_bases()
    assert len(bases) == 185
    verdicts = set()
    for base in bases:
        assert _verdict(reference_check, base) is None and _verdict(BaseComplex.check, base) is None
        for mutate in MUTATIONS:
            bc = base.copy()
            mutate(bc)
            got, want = _verdict(BaseComplex.check, bc), _verdict(reference_check, bc)
            if mutate is _emptied:
                assert want == "min() arg is an empty sequence"
                assert got == "stored face cycles disagree with rotation system"
            elif mutate is _negative:
                e = base.live_edges()[0]
                assert want == "dart %d missing from fan" % (2 * e)
                assert got.startswith("fan of ") and got.endswith(
                    " holds negative dart %d" % (2 * e - 2 * len(bc.edges))), got
            else:
                assert got == want, (mutate.__name__, got, want)
            verdicts.add((mutate.__name__, got))
    # every mutation but a rotation is refused, each for its own reason
    assert {m for m, v in verdicts if v is None} == {"_rotated"}
    assert {v.split()[0] for m, v in verdicts if v} >= {"stored", "Euler", "dart", "fan"}


@pytest.mark.parametrize("k", [0, -1])
def test_a_fan_that_lists_a_dart_twice_is_refused(k):
    """The reference check loops on a fan that repeats its first dart (here
    its trace hits a step bound) and passes one that repeats its last dart;
    check refuses both.  trace_faces ends on both: its map keeps the last
    wedge of a repeated dart, which for the first dart is the one it had,
    and for the last dart leaves a walk that does not close."""
    for base in _committed_bases()[:100]:
        bc = base.copy()
        v = bc.live_vertices()[0]
        d = bc.fans[v][k]
        bc.fans[v].append(d)
        assert _verdict(BaseComplex.check, bc) == "fan of %d lists dart %d twice" % (v, d)
        want = _verdict(lambda b: reference_check(b, max_steps=4 * len(b.edges)), bc)
        assert want == ("reference trace passed %d steps" % (4 * len(bc.edges)) if k == 0 else None)
        if k == 0:
            assert bc.trace_faces() == base.trace_faces()
        else:
            with pytest.raises(ArrangementError, match="does not close"):
                bc.trace_faces()


def test_trace_faces_matches_the_reference_tracer(monkeypatch):
    """On every base that random_base builds for the 40 criterion-5 seeds,
    ``trace_faces`` gives the reference tracer's cycles in the same order."""
    built, real = [], generators.build_faces

    def record(bc):
        built.append(real(bc))
        return built[-1]

    monkeypatch.setattr(generators, "build_faces", record)
    for n in range(1, 41):
        generators.generate_disk_covering_filtered(("c5", n), max_sum=6, max_degree=4)
    assert len(built) > 40
    for bc in built:
        assert bc.trace_faces() == reference_trace_faces(bc)
