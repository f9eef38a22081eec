import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecover.geometry import (
    EPS_SEP,
    DegenerateSegment,
    GeodesicSegment,
    GeometryError,
    NoContact,
    Rotation,
    SelfIntersecting,
    angle_between,
    antipodal,
    cross,
    first_contact_rotation,
    geodesic_length,
    norm,
    points_coincide,
    segment_intersection,
    sphere_point,
    spherical_polygon_area,
    unit,
)

N = sphere_point(0, 0, 1)
S = sphere_point(0, 0, -1)
E1 = sphere_point(1, 0, 0)
E2 = sphere_point(0, 1, 0)


def rand_rotation(rng):
    axis = rng.standard_normal(3)
    return Rotation.from_axis_angle(axis, rng.uniform(0, 2 * math.pi))


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
VEC3 = st.lists(FINITE, min_size=3, max_size=3)


# The surface-file bytes depend on these being bit-identical to numpy: a
# plain-float sum in place of numpy's dot rounds differently in the last ulp.
@settings(max_examples=300, deadline=None)
@given(VEC3, st.one_of(VEC3, st.lists(st.integers(-2, 2), min_size=3, max_size=3)))
def test_scalar_cross_and_norm_match_numpy_bit_for_bit(a, b):
    a = np.array(a)
    got, want = cross(a, b), np.cross(a, b)
    assert got.shape == (3,) and got.tobytes() == want.tobytes()
    assert norm(a) == np.linalg.norm(a)
    assert norm(got) == np.linalg.norm(want)


def test_unit_of_near_zero_vector_raises():
    for v in ([0, 0, 0], [1e-17, 0, -1e-17]):
        with pytest.raises(GeometryError):
            unit(v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_segment_pole_and_length_cache(seed):
    def fresh_pole(s):
        v = np.cross(s.a, s.b)
        return v / np.linalg.norm(v)

    def fresh_length(s):
        return math.atan2(np.linalg.norm(np.cross(s.a, s.b)), float(np.dot(s.a, s.b)))

    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    seg = GeodesicSegment(a, b)
    pole, length = seg.pole, seg.length
    assert seg.pole is pole
    assert pole.tobytes() == fresh_pole(seg).tobytes() and length == fresh_length(seg)
    # the segment owns its endpoints: editing the input arrays changes nothing
    a *= -1
    assert seg.pole.tobytes() == fresh_pole(seg).tobytes()
    # new segments renormalize their endpoints, so compare with a fresh
    # computation bit for bit and with the original to rounding
    for other in (seg.reversed(), rand_rotation(rng).apply(seg)):
        assert other.pole.tobytes() == fresh_pole(other).tobytes()
        assert other.length == fresh_length(other)
        assert other.length == pytest.approx(length, abs=1e-14)
    assert np.allclose(seg.reversed().pole, -pole, rtol=0, atol=1e-15)


# A segment measures its endpoints' angle once, for both degeneracy tests and
# its length; pairs within a few EPS_SEP of coinciding or of being antipodal
# probe both sides of each threshold.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["random", "near", "antipodal"]),
       st.floats(0.5, 1.5), st.floats(1e-3, 1e3))
def test_segment_length_and_degeneracy_from_one_angle(seed, kind, factor, scale):
    rng = np.random.default_rng(seed)
    a = unit(rng.standard_normal(3))
    u = unit(cross(a, rng.standard_normal(3)))
    t = {"random": rng.uniform(0, math.pi), "near": factor * EPS_SEP,
         "antipodal": math.pi - factor * EPS_SEP}[kind]
    a_in, b_in = scale * a, math.cos(t) * a + math.sin(t) * u
    ua, ub = unit(a_in), unit(b_in)
    if points_coincide(ua, ub) or antipodal(ua, ub):
        with pytest.raises(DegenerateSegment):
            GeodesicSegment(a_in, b_in)
    else:
        assert GeodesicSegment(a_in, b_in).length.hex() == angle_between(ua, ub).hex()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_nearest_point_of_arc(seed):
    rng = np.random.default_rng(seed)
    seg = GeodesicSegment(rng.standard_normal(3), rng.standard_normal(3))
    p = unit(rng.standard_normal(3))
    ang, x = seg.nearest_point(p)
    assert seg.contains(x)
    assert ang == angle_between(p, x)
    assert ang <= angle_between(p, seg.a) and ang <= angle_between(p, seg.b)
    for k in range(64):
        assert ang <= angle_between(p, seg.point_at(k / 63)) + 1e-12


def test_quarter_great_circle():
    assert geodesic_length(GeodesicSegment(N, E1)) == pytest.approx(math.pi / 2, abs=1e-14)


def test_degenerate_endpoints():
    with pytest.raises(DegenerateSegment):
        GeodesicSegment(E1, E1)
    with pytest.raises(DegenerateSegment):
        GeodesicSegment(N, S)


def test_length_from_dot_product():
    b = sphere_point(math.cos(0.3), math.sin(0.3), 0)
    assert geodesic_length(GeodesicSegment(E1, b)) == pytest.approx(0.3, abs=1e-12)


def test_intersection_at_pole():
    s1 = GeodesicSegment(sphere_point(1, 0, 0.2), N)
    s2 = GeodesicSegment(sphere_point(0, 1, 0.2), N)
    hits = segment_intersection(s1, s2)
    assert len(hits) == 1
    assert np.allclose(hits[0], N, atol=1e-9)


def test_intersection_disjoint():
    s1 = GeodesicSegment(sphere_point(1, 0, 0.5), sphere_point(0, 1, 0.5))
    s2 = GeodesicSegment(sphere_point(1, 0, -0.5), sphere_point(0, 1, -0.5))
    assert segment_intersection(s1, s2) == []


def test_intersection_overlap_quarter_arc():
    a = E1
    b = sphere_point(0, 1, 0)
    c = sphere_point(math.cos(math.pi / 4), math.sin(math.pi / 4), 0)
    long_arc = GeodesicSegment(a, b)
    short_arc = GeodesicSegment(c, sphere_point(math.cos(2.0), math.sin(2.0), 0))
    hits = segment_intersection(long_arc, short_arc)
    overlaps = [h for h in hits if isinstance(h, GeodesicSegment)]
    assert len(overlaps) == 1
    assert overlaps[0].length == pytest.approx(math.pi / 2 - math.pi / 4, abs=1e-9)


def test_octant_triangle_area():
    tri = [GeodesicSegment(E1, E2), GeodesicSegment(E2, N), GeodesicSegment(N, E1)]
    assert spherical_polygon_area(tri) == pytest.approx(math.pi / 2, abs=1e-12)


def test_hemisphere_area_no_turning():
    thirds = [sphere_point(math.cos(t), math.sin(t), 0)
              for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    segs = [GeodesicSegment(thirds[i], thirds[(i + 1) % 3]) for i in range(3)]
    assert spherical_polygon_area(segs) == pytest.approx(2 * math.pi, abs=1e-12)


def test_octant_complement_area():
    tri = [GeodesicSegment(E2, E1), GeodesicSegment(E1, N), GeodesicSegment(N, E2)]
    assert spherical_polygon_area(tri) == pytest.approx(4 * math.pi - math.pi / 2, abs=1e-12)


def test_self_intersecting_polygon_rejected():
    # bowtie: the two diagonal sides cross between longitudes 0 and 90
    a, b = sphere_point(1, 0, 0.3), sphere_point(0, 1, -0.3)
    c, d = sphere_point(0, 1, 0.3), sphere_point(1, 0, -0.3)
    with pytest.raises(SelfIntersecting):
        spherical_polygon_area([
            GeodesicSegment(a, b), GeodesicSegment(b, c),
            GeodesicSegment(c, d), GeodesicSegment(d, a)])


def test_rotation_identity_and_quarter_turn():
    assert Rotation.identity().is_identity()
    r = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
    assert np.allclose(r.apply(E1), E2, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rotation_preserves_length(seed):
    rng = np.random.default_rng(seed)
    r = rand_rotation(rng)
    a = sphere_point(*rng.standard_normal(3))
    b = sphere_point(*rng.standard_normal(3))
    try:
        seg = GeodesicSegment(a, b)
    except DegenerateSegment:
        return
    assert abs(geodesic_length(r.apply(seg)) - geodesic_length(seg)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rotation_preserves_area(seed):
    rng = np.random.default_rng(seed)
    r = rand_rotation(rng)
    tri = [GeodesicSegment(E1, E2), GeodesicSegment(E2, N), GeodesicSegment(N, E1)]
    rot_tri = [r.apply(seg) for seg in tri]
    assert abs(spherical_polygon_area(rot_tri, check_simple=False)
               - math.pi / 2) < 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    pts = [sphere_point(*rng.standard_normal(3)) for _ in range(3)]
    try:
        ab = GeodesicSegment(pts[0], pts[1]).length
        bc = GeodesicSegment(pts[1], pts[2]).length
        ac = GeodesicSegment(pts[0], pts[2]).length
    except DegenerateSegment:
        return
    assert ac <= ab + bc + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_intersection_symmetric(seed):
    rng = np.random.default_rng(seed)
    try:
        s1 = GeodesicSegment(sphere_point(*rng.standard_normal(3)),
                             sphere_point(*rng.standard_normal(3)))
        s2 = GeodesicSegment(sphere_point(*rng.standard_normal(3)),
                             sphere_point(*rng.standard_normal(3)))
    except DegenerateSegment:
        return
    from spherecover.geometry import angle_between
    h12 = [h for h in segment_intersection(s1, s2) if not isinstance(h, GeodesicSegment)]
    h21 = [h for h in segment_intersection(s2, s1) if not isinstance(h, GeodesicSegment)]
    assert len(h12) == len(h21)
    for p in h12:
        assert any(angle_between(p, q) <= 1e-9 for q in h21)


def test_first_contact_toward_equator():
    # equator curve; target 0.3 above it moving due south meets it after 0.3
    curve = [GeodesicSegment(sphere_point(math.cos(t), math.sin(t), 0),
                             sphere_point(math.cos(t + 2 * math.pi / 3),
                                          math.sin(t + 2 * math.pi / 3), 0))
             for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    target = sphere_point(math.cos(0.3), 0, math.sin(0.3))
    rot, idx, prm = first_contact_rotation(curve, target, [0, -1, 0])
    pre = rot.inverse().apply(target)
    assert abs(pre[2]) < 1e-7
    t_star = math.acos(max(-1, min(1, (np.trace(rot.matrix) - 1) / 2)))
    assert t_star == pytest.approx(0.3, abs=1e-6)


def test_first_contact_no_contact():
    curve = [GeodesicSegment(sphere_point(math.cos(t), math.sin(t), 0),
                             sphere_point(math.cos(t + 2.0), math.sin(t + 2.0), 0))
             for t in (0.0,)]
    # rotating about the z axis keeps the target at constant latitude
    with pytest.raises(NoContact):
        first_contact_rotation(curve, sphere_point(1, 1, 1), [0, 0, 1])


def test_first_contact_bisection_cap_boundary():
    # curve = northern cap boundary at z = cos(0.4); target south pole moving north
    z0 = math.cos(0.4)
    r0 = math.sin(0.4)
    cap = [GeodesicSegment(
        sphere_point(r0 * math.cos(t), r0 * math.sin(t), z0),
        sphere_point(r0 * math.cos(t + 2 * math.pi / 3),
                     r0 * math.sin(t + 2 * math.pi / 3), z0))
        for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    rot, idx, prm = first_contact_rotation(cap, S, [0, 1, 0])
    pre = rot.inverse().apply(S)
    assert cap[idx].contains(pre, tol=1e-6)
