import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spherecover import arrangement, geometry
from spherecover.arrangement import CurveInput, SpecialSet, build_arrangement
from spherecover.geometry import (
    EPS_SEP,
    DegenerateSegment,
    GeodesicSegment,
    GeometryError,
    Rotation,
    angle_between,
    antipodal,
    contact_angles,
    cross,
    dot,
    neg,
    norm,
    points_coincide,
    segment_intersection,
    sphere_point,
    unit,
)

N = sphere_point(0, 0, 1)
S = sphere_point(0, 0, -1)
E1 = sphere_point(1, 0, 0)
E2 = sphere_point(0, 1, 0)


def rand_rotation(rng):
    axis = rng.standard_normal(3)
    return Rotation.from_axis_angle(axis, rng.uniform(0, 2 * math.pi))


# off every polygon whose area is taken below
AREA_SPECIALS = SpecialSet((sphere_point(-1, -2, -3), sphere_point(-3, -1, -2),
                            sphere_point(-2, -3, -1)))


def left_area(pts):
    """Area of the face on the left of the closed polygon through ``pts``,
    as ``build_arrangement`` computes it (Gauss-Bonnet on the face cycle)."""
    bc = build_arrangement(CurveInput(tuple(pts)), AREA_SPECIALS)
    return bc.faces[bc.left_face(bc.traversal[0])].area


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
VEC3 = st.lists(FINITE, min_size=3, max_size=3)


# every finite float, subnormals and magnitudes whose products overflow too
FLOAT = st.one_of(FINITE, st.floats(allow_nan=False, allow_infinity=False))


def exact_fma(x, y, z):
    """x*y + z rounded once, from exact rationals, an overflow rounded to an
    infinity as IEEE rounds it (a zero result is +0.0); x and y are finite."""
    if not math.isfinite(z):
        return z
    r = Fraction(x) * Fraction(y) + Fraction(z)
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def host_fma(x, y, z):
    """``math.fma`` (Python 3.13 on), which raises where IEEE rounds to an
    infinity; None where it does not exist."""
    if not hasattr(math, "fma"):
        return None
    try:
        return math.fma(x, y, z)
    except OverflowError:
        return exact_fma(x, y, z)


def exact_dot(a, b):
    """``dot``'s FMA chain fma(a2, b2, fma(a1, b1, a0*b0)) from exact rationals."""
    return exact_fma(a[2], b[2], exact_fma(a[1], b[1], a[0] * b[0]))


def _hex(v):
    """The exact bits of a point's coordinates (signed zeros told apart)."""
    return tuple(float(x).hex() for x in v)


# The surface-file bytes depend on these being bit-identical to numpy on an
# FMA host: np.cross is plain IEEE multiplies and subtracts on every host, and
# numpy's dot (so ``norm``) is the FMA chain, here from exact rationals.
@settings(max_examples=300, deadline=None)
@given(VEC3, st.one_of(VEC3, st.lists(st.integers(-2, 2), min_size=3, max_size=3)))
def test_scalar_cross_and_norm_match_numpy_bit_for_bit(a, b):
    a = np.array(a)
    got, want = cross(a, b), np.cross(a, b)
    assert len(got) == 3 and _hex(got) == _hex(want)
    assert norm(a) == math.sqrt(exact_dot(a, a))
    assert norm(got) == math.sqrt(exact_dot(got, got))


def fma_of_dot(x, y, z):
    """``dot``'s middle step alone: its first product is z * 1.0 == z, and its
    last step adds the exact product 0.0 * -0.0 == -0.0, which keeps every
    value, the sign of a zero included."""
    return dot((z, x, 0.0), (1.0, y, -0.0))


@settings(max_examples=1000, deadline=None)
@given(FLOAT, FLOAT, FLOAT, st.booleans())
def test_dot_rounds_each_fma_once(x, y, z, cancel):
    if cancel and math.isfinite(x * y):
        z = -(x * y)  # the exact result is the rounding error of x*y
    got = fma_of_dot(x, y, z)
    assert got == exact_fma(x, y, z)
    if hasattr(math, "fma"):
        assert got.hex() == host_fma(x, y, z).hex()


def test_dot_keeps_the_sign_of_an_exact_zero():
    for x, y, z, want in ((-1.0, 0.0, -0.0, -0.0), (1.0, 0.0, -0.0, 0.0),
                          (0.5, -0.0, -0.0, -0.0), (3.0, 0.25, -0.75, 0.0),
                          (1e-200, 1e-200, -0.0, 0.0), (-1e-200, 1e-200, 0.0, -0.0)):
        assert fma_of_dot(x, y, z).hex() == want.hex()
    assert dot((0.0, -0.0, -0.0), (-1.0, 2.0, 3.0)).hex() == (-0.0).hex()


def test_dot_rounds_an_underflowed_partial_product_once():
    """Below 2**-969 a partial product of the split can underflow, and fsum
    of the partial products then misses the exact result by a subnormal."""
    h = float.fromhex
    for x, y, z, want in (
            ("0x1.0ed9c87b0b125p-501", "0x1.ee661d7210dffp-530", "-0x1p-1074", "0x0.01058a2565556p-1022"),
            ("0x1.04a5ed75b1e24p-517", "0x1.17ec973ec28d0p-518", "-0x0.0008e80dc5ff9p-1022", "0x0p+0"),
            ("0x1.ae0f225f02628p-501", "0x1.9ff9717921e6cp-536", "-0x0.0005759b28214p-1022", "-0x0p+0")):
        assert fma_of_dot(h(x), h(y), h(z)).hex() == h(want).hex()
        assert exact_fma(h(x), h(y), h(z)) == h(want)


def test_dot_overflows_to_an_infinity_as_fma_does():
    big = 1.3e154
    assert norm((big, big, 0.0)) == math.inf
    # a0*b0 overflows, and fsum refuses its inf with the -inf of a partial product
    assert dot((1e200, 1e200, 0.0), (1e200, -1e200, 0.0)) == math.inf
    # the split of 2**1000 overflows; the exact sum is finite
    assert dot((1.0, 2.0 ** 1000, 0.0), (1.0, 2.0 ** -1000, 0.0)) == 2.0
    # fsum refuses the intermediate overflow of s + a1*b1
    assert dot((1e308, 1.5, 0.0), (1.0, 1e308, 0.0)) == math.inf
    with pytest.raises(GeometryError):
        unit((big, big, 0.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(FLOAT, min_size=3, max_size=3), st.lists(FLOAT, min_size=3, max_size=3))
def test_dot_is_the_fma_chain(a, b):
    got = dot(a, b)
    assert got == exact_dot(a, b)
    assert norm(a) == math.sqrt(exact_dot(a, a))
    if hasattr(math, "fma"):
        want = host_fma(a[2], b[2], host_fma(a[1], b[1], a[0] * b[0]))
        assert got.hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rotation_rounds_like_gemv_and_gemm(seed):
    """``apply`` rounds each row times x as ``dot``, for a stored matrix and
    for its transpose from ``inverse`` alike; every entry of a product of
    matrices, and of kx @ kx in ``from_axis_angle``, is the ``dot`` of a row
    and a column."""
    rng = np.random.default_rng(seed)
    axis, angle = rng.standard_normal(3), rng.uniform(0, 2 * math.pi)
    r, r2 = Rotation.from_axis_angle(axis, angle), rand_rotation(rng)
    x = unit(rng.standard_normal(3))
    k0, k1, k2 = unit(axis)
    kx = ((0.0, -k2, k1), (k2, 0.0, -k0), (-k1, k0, 0.0))
    s, c = math.sin(angle), 1 - math.cos(angle)
    want = [[(float(i == j) + s * kx[i][j]) + c * exact_dot(kx[i], [row[j] for row in kx])
             for j in range(3)] for i in range(3)]
    assert [_hex(row) for row in r.matrix] == [_hex(row) for row in want]
    assert _hex(r.apply(x)) == _hex(unit([exact_dot(row, x) for row in want]))
    inv = r.inverse()
    cols = list(zip(*want))
    assert [_hex(row) for row in inv.matrix] == [_hex(col) for col in cols]
    assert _hex(inv.apply(x)) == _hex(unit([exact_dot(col, x) for col in cols]))
    for left, right in ((r, r2), (inv, r2), (r2, inv)):
        prod = left.compose(right)
        want = [[exact_dot(row, col) for col in zip(*right.matrix)] for row in left.matrix]
        assert [_hex(row) for row in prod.matrix] == [_hex(row) for row in want]


# every float, and signed zeros, subnormals and magnitudes whose squares
# underflow or overflow among them more often than a draw of floats() gives
COORD = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1e-160, -1e-200, 1e160, 1e300, -1e300]))


def _rows_outcome(matrix, p):
    """``Rotation.apply``'s general path: the unit vector of the rows' dots."""
    return _outcome(lambda: _hex(unit(tuple(dot(row, p) for row in matrix))))


@settings(max_examples=500, deadline=None)
@given(st.tuples(COORD, COORD, COORD), st.floats(1e-3, 1e3))
def test_identity_apply_is_the_row_dots_bit_for_bit(p, s):
    assert Rotation.identity() is Rotation.identity()
    # zeros of either sign in the matrix take the same path
    signed = ((1.0, -0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0))
    for q in (p, _scaled(s, p), list(p)):
        for r, m in ((Rotation.identity(), geometry._IDENTITY), (Rotation(signed), signed)):
            assert _outcome(lambda: _hex(r.apply(q))) == _rows_outcome(m, q)


def test_identity_apply_skips_the_row_dots(monkeypatch):
    # the row dots are ``dot`` calls; the norm in ``unit`` squares by
    # ``_dot_self``
    p = unit((0.3, -0.5, 0.8))
    rows, norms = [], []
    exact, exact_self = geometry.dot, geometry._dot_self
    monkeypatch.setattr(geometry, "dot", lambda a, b: rows.append(1) or exact(a, b))
    monkeypatch.setattr(geometry, "_dot_self", lambda v: norms.append(1) or exact_self(v))
    Rotation.identity().apply(p)
    assert (len(rows), len(norms)) == (0, 1)
    del rows[:], norms[:]
    Rotation.identity().apply((0.6, -0.0, 0.8))  # a zero: the rows' dots
    assert (len(rows), len(norms)) == (3, 1)


@settings(max_examples=1000, deadline=None)
@given(st.tuples(COORD, COORD, COORD))
@example((1.0, float.fromhex("0x1.23456789abcdep-500"), 0.5))  # h*l underflows inexactly
@example((0.3, -0.5, 0.8))
def test_dot_self_is_dot_bit_for_bit(v):
    assert struct.pack("<d", geometry._dot_self(v)) == struct.pack("<d", dot(v, v))


def test_unit_of_near_zero_vector_raises():
    for v in ([0, 0, 0], [1e-17, 0, -1e-17]):
        with pytest.raises(GeometryError):
            unit(v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(2887)
@example(33724)
def test_segment_pole_and_length_cache(seed):
    def fresh_pole(s):
        v = np.cross(s.a, s.b)
        return v / math.sqrt(exact_dot(v, v))

    def fresh_length(s):
        v = np.cross(s.a, s.b)
        return math.atan2(math.sqrt(exact_dot(v, v)), exact_dot(s.a, s.b))

    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    seg = GeodesicSegment(a, b)
    pole, length = seg.pole, seg.length
    assert seg.pole is pole
    assert _hex(pole) == _hex(fresh_pole(seg)) and length == fresh_length(seg)
    # the segment owns its endpoints: editing the input arrays changes nothing
    a *= -1
    assert _hex(seg.pole) == _hex(fresh_pole(seg))
    # new segments renormalize their endpoints, so compare with a fresh
    # computation bit for bit and with the original to rounding
    for other in (seg.reversed(), rand_rotation(rng).apply(seg)):
        assert _hex(other.pole) == _hex(fresh_pole(other))
        assert other.length == fresh_length(other)
        assert other.length == pytest.approx(length, abs=1e-14)
    # the pole is a normalized cross product of endpoints that reversed()
    # renormalizes, so its rounding grows as 1 / sin(length) on short arcs
    tol = max(1e-15, 4 * 2.0 ** -52 / math.sin(seg.length))
    assert np.allclose(seg.reversed().pole, np.negative(pole), rtol=0, atol=tol)


# A segment measures its endpoints' angle once, for both degeneracy tests and
# its length; pairs within a few EPS_SEP of coinciding or of being antipodal
# probe both sides of each threshold.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["random", "near", "antipodal"]),
       st.floats(0.5, 1.5), st.floats(1e-3, 1e3))
def test_segment_length_and_degeneracy_from_one_angle(seed, kind, factor, scale):
    rng = np.random.default_rng(seed)
    a = np.array(unit(rng.standard_normal(3)))
    u = np.array(unit(cross(a, rng.standard_normal(3))))
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
    assert GeodesicSegment(N, E1).length == pytest.approx(math.pi / 2, abs=1e-14)


def test_degenerate_endpoints():
    with pytest.raises(DegenerateSegment):
        GeodesicSegment(E1, E1)
    with pytest.raises(DegenerateSegment):
        GeodesicSegment(N, S)


def test_length_from_dot_product():
    b = sphere_point(math.cos(0.3), math.sin(0.3), 0)
    assert GeodesicSegment(E1, b).length == pytest.approx(0.3, abs=1e-12)


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
    assert left_area((E1, E2, N)) == pytest.approx(math.pi / 2, abs=1e-12)


def test_hemisphere_area_no_turning():
    thirds = [sphere_point(math.cos(t), math.sin(t), 0)
              for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    assert left_area(thirds) == pytest.approx(2 * math.pi, abs=1e-12)


def test_octant_complement_area():
    assert left_area((E2, E1, N)) == pytest.approx(4 * math.pi - math.pi / 2, abs=1e-12)


def test_rotation_identity_and_quarter_turn():
    assert np.array_equal(Rotation.identity().matrix, np.eye(3))
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
    assert abs(r.apply(seg).length - seg.length) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rotation_preserves_area(seed):
    rng = np.random.default_rng(seed)
    r = rand_rotation(rng)
    assert abs(left_area([r.apply(p) for p in (E1, E2, N)]) - math.pi / 2) < 1e-10


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
    [(t, idx)] = contact_angles(curve, [target], [0, -1, 0])
    rot = Rotation.from_axis_angle([0, -1, 0], t)
    pre = rot.inverse().apply(target)
    assert abs(pre[2]) < 1e-7
    t_star = math.acos(max(-1, min(1, (np.trace(rot.matrix) - 1) / 2)))
    assert t_star == pytest.approx(0.3, abs=1e-6)


def test_first_contact_no_contact():
    curve = [GeodesicSegment(sphere_point(math.cos(t), math.sin(t), 0),
                             sphere_point(math.cos(t + 2.0), math.sin(t + 2.0), 0))
             for t in (0.0,)]
    # rotating about the z axis keeps the target at constant latitude
    assert contact_angles(curve, [sphere_point(1, 1, 1)], [0, 0, 1]) == [None]


def cap_curve():
    """The northern cap boundary: three arcs through points at z = cos(0.4)."""
    z0, r0 = math.cos(0.4), math.sin(0.4)
    return [GeodesicSegment(
        sphere_point(r0 * math.cos(t), r0 * math.sin(t), z0),
        sphere_point(r0 * math.cos(t + 2 * math.pi / 3),
                     r0 * math.sin(t + 2 * math.pi / 3), z0))
        for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]


def test_first_contact_bisection_cap_boundary():
    # target south pole moving north
    cap = cap_curve()
    [(t, idx)] = contact_angles(cap, [S], [0, 1, 0])
    pre = Rotation.from_axis_angle([0, 1, 0], t).inverse().apply(S)
    assert cap[idx].contains(pre, tol=1e-6)


# turned about y, a point near -y circles at |z| <= 0.31, below the cap
NEVER_MEETS_CAP = sphere_point(0, -0.95, 0.3)


def test_contacts_of_several_targets_are_each_targets_own():
    # the south pole and a point 1 rad from it meet the cap, the third never
    cap = cap_curve()
    targets = [S, NEVER_MEETS_CAP, sphere_point(math.sin(1.0), 0, -math.cos(1.0))]
    got = contact_angles(cap, targets, [0, 1, 0])
    assert got[1] is None
    for p, (t, idx) in zip(targets[::2], got[::2]):
        pre = Rotation.from_axis_angle([0, 1, 0], t).inverse().apply(p)
        assert cap[idx].contains(pre, tol=1e-6)
    assert got[0][0] != got[2][0]
    # one target at a time gives the same answers, bit for bit
    assert got == [contact_angles(cap, [p], [0, 1, 0])[0] for p in targets]
    assert contact_angles(cap, [], [0, 1, 0]) == []


@pytest.mark.parametrize("before, after", [([], [S]), ([NEVER_MEETS_CAP], []),
                                           ([S, NEVER_MEETS_CAP], [S])])
def test_a_target_on_the_curve_raises_in_target_order(before, after):
    # a target on the curve raises GeometryError wherever it comes: after a
    # target with no contact or one with a contact, and before either
    cap = cap_curve()
    on = cap[1].point_at(0.5)
    with pytest.raises(GeometryError, match="already lies on the curve") as err:
        contact_angles(cap, before + [on] + after, [0, 1, 0])
    assert type(err.value) is GeometryError


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_first_contact_lies_on_the_arcs_circle(seed):
    # the first contact is the closed-form root itself: its preimage lies on
    # the contacted arc's great circle up to rounding, and on the arc
    rng = np.random.default_rng(seed)
    curve = []
    while len(curve) < rng.integers(1, 5):
        try:
            curve.append(GeodesicSegment(rng.standard_normal(3).tolist(),
                                         rng.standard_normal(3).tolist()))
        except DegenerateSegment:
            continue
    axis = unit(rng.standard_normal(3).tolist())
    x = curve[rng.integers(0, len(curve))].point_at(rng.uniform(0.05, 0.95))
    target = Rotation.from_axis_angle(axis, rng.uniform(0.01, 2 * math.pi - 0.01)).apply(x)
    try:
        [(t, idx)] = contact_angles(curve, [target], axis)
    except GeometryError:  # the target lies on another arc
        return
    pre = Rotation.from_axis_angle(axis, t).inverse().apply(target)
    assert abs(dot(pre, curve[idx].pole)) <= 1e-12
    assert curve[idx].param_of(pre, tol=1e-6) is not None


# The filtered predicates against their exact formulas, written out here as
# the oracles: a decision may come from the plain-float twin only where it
# is the exact kernel's, and every returned value is the exact kernel's.
def exact_coincide(a, b, tol):
    return angle_between(a, b) <= tol


def exact_antipodal(a, b, tol):
    return angle_between(a, b) >= math.pi - tol


def exact_param_of(seg, p, tol):
    if abs(dot(p, seg.pole)) > math.sin(tol) + 1e-11:
        return None
    ta, tb = angle_between(seg.a, p), angle_between(seg.b, p)
    if ta + tb > seg.length + tol:
        return None
    return min(max(ta / seg.length, 0.0), 1.0)


def exact_intersection(s1, s2, tol):
    n1, n2 = s1.pole, s2.pole
    cr = cross(n1, n2)
    if norm(cr) <= math.sin(tol):
        if abs(dot(n1, s2.a)) > math.sin(tol):
            return []
        return geometry._collinear_overlap(s1, s2, tol)
    u = unit(cr)
    return [c for c in (u, neg(u))
            if exact_param_of(s1, c, tol) is not None and exact_param_of(s2, c, tol) is not None]


def _hits(hits):
    return [(_hex(h.a), _hex(h.b)) if isinstance(h, GeodesicSegment) else _hex(h) for h in hits]


TOLS = [EPS_SEP, 10 * EPS_SEP, 1e-8, 1e-6, 0.02, 0.05, 0.1, 0.12, 0.5, 1.0]
# where near a threshold an input is put: relative nudges of k * 2**-50, then
# k quarters of the filter margin, and absolute steps of about a rounding
# error of the construction (so that some land between twin and exact value)
NUDGES = [k * 2.0 ** -50 for k in range(-16, 17)] + [k * 2.5e-14 for k in range(-8, 9) if k]
STEPS = [k * 2.0 ** -56 for k in range(-12, 13)]
SCALE = st.one_of(st.just(1.0), st.floats(1e-3, 1e3), st.sampled_from([1e-170, 1e170]))


def _frame(rng):
    """A random unit point a and a unit u perpendicular to it."""
    a = unit(rng.standard_normal(3).tolist())
    return a, unit(cross(a, rng.standard_normal(3).tolist()))


def _at_angle(a, u, t):
    return tuple(math.cos(t) * x + math.sin(t) * y for x, y in zip(a, u))


def _scaled(s, v):
    return tuple(s * x for x in v)


def test_angle_twin_error_is_far_below_the_filter():
    assert 4 * 2.5e-14 == geometry._FILTER
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3000):
        a, u = _frame(rng)
        b = _scaled(rng.uniform(1e-3, 1e3), _at_angle(a, u, rng.uniform(0, math.pi)))
        worst = max(worst, abs(geometry._fangle(a, b) - angle_between(a, b)))
    assert worst <= 3e-15


@pytest.mark.parametrize("s", [1e-170, 1e170, math.inf, math.nan])
def test_twins_refuse_underflow_overflow_and_nonfinite(s):
    a = sphere_point(0.3, 0.5, 0.8)
    assert geometry._fangle(a, _scaled(s, E1)) is None
    assert geometry._fangle(_scaled(s, a), _scaled(s, E1)) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(TOLS), SCALE, SCALE)
def test_filtered_point_predicates_decide_as_the_exact_kernel(seed, tol, sa, sb):
    rng = np.random.default_rng(seed)
    a, u = _frame(rng)
    ts = [rng.uniform(0, math.pi)] + [tol * (1 + x) for x in NUDGES] + \
        [math.pi - tol * (1 + x) for x in NUDGES]
    for t in ts:
        x, y = _scaled(sa, a), _scaled(sb, _at_angle(a, u, t))
        assert points_coincide(x, y, tol) == exact_coincide(x, y, tol)
        assert antipodal(x, y, tol) == exact_antipodal(x, y, tol)
        # thresholds at the pair's own exact angle, give or take an ulp
        e = angle_between(x, y)
        for k in (-1, 0, 1):
            tk = e + k * math.ulp(e)
            assert points_coincide(x, y, tk) == exact_coincide(x, y, tk)
            assert antipodal(x, y, math.pi - tk) == exact_antipodal(x, y, math.pi - tk)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["plane", "before", "beyond"]),
       st.sampled_from(TOLS[:6]), SCALE)
def test_filtered_param_of_decides_and_measures_as_the_exact_kernel(seed, kind, tol, sp):
    rng = np.random.default_rng(seed)
    a, u = _frame(rng)
    seg = GeodesicSegment(a, _at_angle(a, u, rng.uniform(0.05, 3.0)))
    ps = [unit(rng.standard_normal(3).tolist())]
    if kind == "plane":
        # off the plane by sin(tol) + 1e-11, nudged, a few ulps and steps either way
        q = seg.point_at(rng.uniform(0, 1))
        lim = math.sin(tol) + 1e-11
        ds = [lim * (1 + x) for x in NUDGES] + [lim + k * math.ulp(lim) for k in range(-4, 5)] + \
            [lim + x for x in STEPS]
        ps += [tuple(math.sqrt(1 - d * d) * x + d * n for x, n in zip(q, seg.pole)) for d in ds]
    else:
        # on the circle, past an end by tol / 2 (nudged): ta + tb = length + tol
        v = unit(cross(seg.pole, seg.a))
        ts = [tol / 2 * (1 + x) for x in NUDGES] + [tol / 2 + x for x in STEPS]
        ps += [_at_angle(seg.a, v, -t if kind == "before" else seg.length + t) for t in ts]
    for p in ps:
        p = _scaled(sp, p)
        got, want = seg.param_of(p, tol), exact_param_of(seg, p, tol)
        assert got == want and (got is None or got.hex() == want.hex())
        assert seg.contains(p, tol) == (want is not None)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.tuples(COORD, COORD, COORD), st.sampled_from(TOLS[:6]),
       st.floats(1e-3, 1e3))
def test_contains_is_param_of_without_the_parameter(seed, p, tol, sp):
    rng = np.random.default_rng(seed)
    a, u = _frame(rng)
    seg = GeodesicSegment(a, _at_angle(a, u, rng.uniform(0.05, 3.0)))
    # near the ends (on the circle, tol / 2 off either way) and the plane
    v = unit(cross(seg.pole, seg.a))
    ends = [_at_angle(seg.a, v, t) for t in (-tol / 2, tol / 2, seg.length - tol / 2,
                                             seg.length + tol / 2)]
    lim = math.sin(tol) + 1e-11
    q = seg.point_at(rng.uniform(0, 1))
    planes = [tuple(math.sqrt(1 - d * d) * x + d * n for x, n in zip(q, seg.pole))
              for d in (lim * (1 - 2.0 ** -50), lim, lim * (1 + 2.0 ** -50), -lim)]
    for x in [p, seg.a, seg.b, q] + ends + planes:
        for y in (x, _scaled(sp, x)):
            want = exact_param_of(seg, y, tol) is not None
            assert seg.contains(y, tol) == want and (seg.param_of(y, tol) is not None) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([EPS_SEP, 1e-6, 0.1, 0.5]))
def test_filtered_same_circle_test_intersects_as_the_exact_kernel(seed, tol):
    rng = np.random.default_rng(seed)
    a, u = _frame(rng)
    s1 = GeodesicSegment(a, _at_angle(a, u, rng.uniform(0.05, 3.0)))
    pairs = [GeodesicSegment(rng.standard_normal(3).tolist(), rng.standard_normal(3).tolist())]
    # s2 on the circle through a and w, whose pole is t from s1's
    lo, hi = rng.uniform(-1.0, 0.5), rng.uniform(0.6, 2.0)
    for t in [tol * (1 + x) for x in NUDGES] + [tol + x for x in STEPS]:
        w = unit(_at_angle(u, s1.pole, t))
        pairs.append(GeodesicSegment(_at_angle(a, w, lo), _at_angle(a, w, hi)))
    for s2 in pairs:
        # the drawn tol, and tolerances whose sine is the exact |n1 x n2|
        e = math.asin(norm(cross(s1.pole, s2.pole)))
        for tk in [tol] + [e + k * math.ulp(e) for k in (-1, 0, 1)]:
            assert _hits(segment_intersection(s1, s2, tk)) == _hits(exact_intersection(s1, s2, tk))


def test_filter_skips_the_exact_dot_only_when_clear(monkeypatch):
    a = sphere_point(0.3, 0.5, 0.8)
    u = unit(cross(a, E1))
    far, close, near = (_at_angle(a, u, t)
                        for t in (0.5, 0.5 * EPS_SEP, EPS_SEP * (1 + 2.0 ** -50)))
    seg = GeodesicSegment(a, _at_angle(a, u, 1.0))
    off_plane, off_end = _at_angle(a, seg.pole, 0.5), _at_angle(a, u, -0.5)
    calls = []
    exact = geometry.dot
    monkeypatch.setattr(geometry, "dot", lambda a, b: calls.append(1) or exact(a, b))
    assert not points_coincide(a, far) and points_coincide(a, close) and not antipodal(a, far)
    assert seg.param_of(off_plane) is None and seg.param_of(off_end) is None
    assert not calls
    points_coincide(a, near)
    assert calls


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0, 2 * math.pi))
def test_contact_preimage_is_the_transposed_rotation(seed, t):
    # contact_angles takes the preimage from the matrix entries, without
    # building Rotations
    rng = np.random.default_rng(seed)
    axis, p = rng.standard_normal(3).tolist(), unit(rng.standard_normal(3).tolist())
    cols = zip(*geometry._axis_angle_matrix(*geometry._axis_terms(axis), t))
    want = Rotation.from_axis_angle(axis, t).inverse().apply(p)
    assert _hex(unit(tuple(dot(col, p) for col in cols))) == _hex(want)


# -- PointRegistry against the linear scan -------------------------------------


def scan_key(points, p, tol):
    """PointRegistry.key by linear scan alone."""
    for i, q in enumerate(points):
        if points_coincide(p, q, tol):
            return i
    points.append(unit(p))
    return len(points) - 1


def _outcome(fn):
    try:
        return fn()
    except GeometryError as err:
        return type(err).__name__


def _flip_zeros(p, mask):
    return tuple(-x if x == 0 and mask >> i & 1 else x for i, x in enumerate(p))


def _turned_from(p, ang, turn):
    """A point ang rad from p, in the tangent direction turn."""
    e1, e2 = geometry.tangent_frame(unit(p))
    e = geometry.add(geometry.scale(math.cos(turn), e1), geometry.scale(math.sin(turn), e2))
    return unit(geometry.add(geometry.scale(math.cos(ang), unit(p)), geometry.scale(math.sin(ang), e)))


_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
         (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
_OPS = ("new", "axis", "again", "zeros", "inside", "outside", "at_tol", "scaled", "tiny",
        "box_under", "box_over")


def _at_box_gap(prev, tol, turn, over):
    """A unit point in the tangent direction turn from the unit point prev
    whose largest coordinate gap from prev is just over or just under the
    box rule's tol + 1e-11 (by 1e-4 of it)."""
    target = (tol + 1e-11) * (1 + 1e-4 if over else 1 - 1e-4)

    def gap(ang):
        p = _turned_from(prev, ang, turn)
        return max(abs(x - y) for x, y in zip(p, prev))
    return _turned_from(prev, target * tol / gap(tol), turn)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2 * EPS_SEP, 1e-7]),
       st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 63), VEC3,
                          st.floats(0, 2 * math.pi)), min_size=1, max_size=40))
def test_point_registry_matches_linear_scan(tol, ops):
    # streams of repeated values, points just inside and just outside tol of
    # earlier ones, coordinate gaps just under and just over the box rule's
    # tol + 1e-11 (unit or scaled), and coordinates of 0.0 and -0.0 (equal
    # by value)
    reg, points, seen = geometry.PointRegistry(tol), [], []
    for op, k, v, turn in ops:
        prev = seen[k % len(seen)] if seen else _AXES[k % 6]
        if op == "new":
            p = unit(v) if 1e-3 < norm(v) < 1e300 else _AXES[k % 6]
        elif op == "axis":
            p = _flip_zeros(_AXES[k % 6], k >> 3)
        elif op == "again":
            p = tuple(list(prev))  # a new tuple, equal by value
        elif op == "zeros":
            p = _flip_zeros(prev, k)
        elif op == "scaled":
            p = geometry.scale(3.0, prev)
        elif op == "tiny":
            p = _flip_zeros((0.0, 0.0, 0.0) if k & 1 else (5e-324, 0.0, 0.0), k >> 1)
        elif op in ("box_under", "box_over"):
            p = _at_box_gap(unit(prev), tol, turn, op == "box_over")
            if k & 1:
                p = geometry.scale(3.0, p)  # not a unit query: no box
        else:
            ang = tol * {"inside": 1 - 1e-4, "outside": 1 + 1e-4, "at_tol": 1.0}[op]
            p = _turned_from(prev, ang, turn)
        got = _outcome(lambda: reg.key(p))
        want = _outcome(lambda: scan_key(points, p, tol))
        assert got == want, (op, p)
        if op != "tiny":
            seen.append(p)
    assert [repr(q) for q in reg.points] == [repr(q) for q in points]


def _box_cases(tol):
    """(stored point, query, whether the query coincides, whether the box
    rule must leave the stored point to ``points_coincide``): a unit query
    whose only coordinate gap g from a unit point lies just inside tol, just
    under tol + 1e-11 and just over it, and each query scaled by 3."""
    for phi in (0.3, 2.0, -1.2):
        q = (0.0, math.cos(phi), math.sin(phi))
        for g in (tol * (1 - 1e-6), tol + 1e-11 - 1e-13, tol + 1e-11 + 1e-13):
            for sign in (1.0, -1.0):
                p = (sign * g, q[1], q[2])  # |p|**2 = 1 + g**2
                hit = g < tol
                yield q, p, hit, g < tol + 1e-11
                yield q, geometry.scale(3.0, p), hit, True


@pytest.mark.parametrize("tol", [2 * EPS_SEP, 1e-7])
def test_box_rule_skips_only_beyond_tol_plus_1e_11(tol, monkeypatch):
    # the registry and vertex_at call points_coincide on a stored point
    # unless a unit query's coordinate gap exceeds tol + 1e-11, and answer
    # as the linear scan
    calls = []
    exact = geometry.points_coincide

    def counted(a, b, tol=EPS_SEP):
        calls.append((a, b))
        return exact(a, b, tol)
    monkeypatch.setattr(geometry, "points_coincide", counted)
    monkeypatch.setattr(arrangement, "points_coincide", counted)
    for q, p, hit, scanned in _box_cases(tol):
        assert exact(q, p, tol) == hit
        reg = geometry.PointRegistry(tol)
        reg.key(q)
        calls.clear()
        assert reg.key(p) == (0 if hit else 1)
        assert any(reg.points[0] in (a, b) for a, b in calls) == scanned
        bc = arrangement.BaseComplex()
        bc.new_vertex(q)
        calls.clear()
        assert bc.vertex_at(p, tol) == (0 if hit else None)
        assert bool(calls) == scanned


# the generator draw's tolerances (``generators._draw_points``)
_DRAW_TOLS = (0.02, 0.05, 0.1, 0.12)
# unit, |v|**2 within 1e-12 of 1, just beyond that, and far from unit
_SCALES = (1.0, 1 + 4e-13, 1 - 4e-13, 1 + 6e-13, 1 - 6e-13, 1 + 1e-6, 3.0, 0.5)


def _gap_point(p, target, turn):
    """A unit point in the tangent direction turn from the unit point p whose
    largest coordinate gap from p is within a few ulps of target (bisection
    on the angle)."""
    def gap(ang):
        q = _turned_from(p, ang, turn)
        return max(abs(x - y) for x, y in zip(q, p)), q

    lo, hi = 0.0, 4 * target  # the gap is at least the chord over sqrt(3)
    for _ in range(200):
        mid = (lo + hi) / 2
        if gap(mid)[0] < target:
            lo = mid
        else:
            hi = mid
    return min((gap(lo), gap(hi)), key=lambda gq: abs(gq[0] - target))[1]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_DRAW_TOLS), VEC3, VEC3, st.floats(0, 2 * math.pi),
       st.sampled_from(("random", "gap_under", "gap_over", "near_tol")),
       st.sampled_from(_SCALES), st.sampled_from(_SCALES))
def test_box_rule_is_exact_at_the_draw_tolerances(tol, v, w, turn, kind, sp, sq):
    # _box_apart(q, p, _box_limit(p, tol)) implies not points_coincide(p, q,
    # tol) at the draw's tolerances: over random pairs, pairs whose largest
    # coordinate gap lies 1e-13 under or over tol + 1e-11, and pairs an angle
    # of about tol apart, each point unit, near unit or not unit
    p = unit(v) if 1e-3 < norm(v) < 1e300 else _AXES[0]
    if kind == "random":
        q = unit(w) if 1e-3 < norm(w) < 1e300 else _AXES[1]
    elif kind == "near_tol":
        q = _turned_from(p, tol * (1 + 1e-4 * math.tanh(w[0])), turn)
    else:
        over = kind == "gap_over"
        q = _gap_point(p, tol + 1e-11 + (1e-13 if over else -1e-13), turn)
        lim = geometry._box_limit(p, tol)
        assert geometry._box_apart(q, p, lim) == over
    p, q = geometry.scale(sp, p), geometry.scale(sq, q)
    if geometry._box_apart(q, p, geometry._box_limit(p, tol)):
        assert not points_coincide(p, q, tol)


# -- the filtered searches against their full scans ------------------------------
#
# nearest_feature and segment_intersection's broad phase skip exact work on
# candidates that cannot win; each is compared with the search that does it
# all, written out here, on near-ties built to sit at the filters' edges.


def full_nearest_scan(segs, p):
    """nearest_feature without the filter: the exact nearest_point of every arc."""
    best = None
    for i, seg in enumerate(segs):
        d, x = seg.nearest_point(p)
        if best is None or d < best[1]:
            best = (i, d, x)
    return best


def _arc(a, u, length):
    return GeodesicSegment(a, _at_angle(a, u, length))


def _toward(v, p):
    """Unit tangent at v pointing along the arc toward p."""
    return unit(cross(cross(v, p), v))


# short, ordinary, long and almost half-circle arcs: the twin is untrusted
# below 1e-5 and above pi - 1e-5
LENGTHS = [1e-8, 2e-6, 1e-5 * (1 - 2.0 ** -40), 1e-4, 0.01, 0.3, 1.0, 2.0,
           math.pi - 1e-5 * (1 + 2.0 ** -40), math.pi - 2e-5, math.pi - 5e-6]


def _nearest_case(rng, kind):
    """(arcs, point): the point at a (near-)tie of its nearest arcs."""
    a, u = _frame(rng)
    lengths = [LENGTHS[i] for i in rng.integers(0, len(LENGTHS), 3)]
    if kind == "shared_vertex":
        # two arcs meeting at v; p on the bisector of the angle between them
        # (feet at equal distance) or of its outside (both nearest points v)
        v, b = a, _at_angle(a, u, lengths[0])
        c = _at_angle(v, unit(_at_angle(u, cross(v, u), rng.uniform(0.2, 3.0))), lengths[1])
        segs = [GeodesicSegment(b, v), GeodesicSegment(v, c)]
        mid = unit(geometry.add(_toward(v, b), _toward(v, c)))
        if rng.integers(0, 2):
            mid = neg(mid)
        p = _at_angle(v, mid, [1e-9, 1e-7, 1e-4, 0.3][rng.integers(0, 4)])
    elif kind == "mirror":
        # an arc and its mirror image across a plane through p
        p = a
        seg = _arc(*_frame(rng), lengths[0])
        m = unit(cross(p, rng.standard_normal(3).tolist()))
        k = lambda q: unit(tuple(x - 2 * dot(q, m) * y for x, y in zip(q, m)))
        segs = [seg, GeodesicSegment(k(seg.b), k(seg.a))]
    elif kind == "on_arc":
        # p on an arc's circle just past its end by e, so that the exact
        # angle (the foot passes the 1e-9 end test) is 0 or (nearly) that of a
        # second arc starting about e away, which the twin puts the other way
        seg = _arc(a, u, lengths[0])
        e = rng.choice([0.0, 2e-10, 4e-10, 5e-10, 6e-10]) * (1 + NUDGES[rng.integers(0, len(NUDGES))])
        p = _at_angle(_at_angle(a, u, lengths[0] + e), seg.pole, rng.choice([0.0, 1e-10, 1e-9]))
        w = unit(cross(p, rng.standard_normal(3).tolist()))
        s0 = rng.choice([0.5, 0.9, 1.0, 1.1, 2.0]) * max(e, 1e-10)
        segs = [seg, GeodesicSegment(_at_angle(p, w, s0), _at_angle(p, w, s0 + 0.2))]
    elif kind == "near_pole":
        # p within 1e-4 of an arc's pole, all arcs near pi/2 away
        seg = _arc(a, u, lengths[0])
        p = _at_angle(seg.pole, u, rng.choice([0.0, 1e-9, 1e-6, 1e-4 * (1 + 2.0 ** -40), 2e-4]))
        segs = [seg, _arc(_at_angle(a, u, 1.0), u, 0.5)]
    else:
        p = unit(rng.standard_normal(3).tolist())
        segs = []
    extra = [] if kind != "random" and rng.integers(0, 2) else lengths[2:]
    for length in extra + [rng.uniform(1e-3, 3.0) for _ in range(rng.integers(0, 3))]:
        b, w = _frame(rng)
        segs.append(_arc(b, w, length))
    order = rng.permutation(len(segs))
    return [segs[i] for i in order], p


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["shared_vertex", "mirror", "on_arc", "near_pole", "random"]))
def test_nearest_feature_picks_as_the_full_scan(seed, kind):
    rng = np.random.default_rng(seed)
    segs, p = _nearest_case(rng, kind)
    # the arcs in both orders, so that a tie is won by either arc
    for arcs in (segs, segs[::-1]):
        got, want = geometry.nearest_feature(arcs, p), full_nearest_scan(arcs, p)
        assert got[0] == want[0] and got[1].hex() == want[1].hex()
        seg = arcs[got[0]]
        assert _hex(got[2]) == _hex(want[2])
        # an endpoint comes back as the arc's own tuple (locate_point tests that)
        assert (got[2] is seg.a, got[2] is seg.b) == (want[2] is seg.a, want[2] is seg.b)
    # the twin errs by far less than the margin wherever it is trusted
    for seg in segs:
        w = geometry._fnearest(seg, p)
        if w is not None:
            assert abs(w - seg.nearest_point(p)[0]) < 1e-9


def test_nearest_feature_on_exact_ties_keeps_the_first_arc():
    # p beyond the shared vertex of two arcs: both give that vertex at the
    # same angle, and the scan keeps the first arc
    v = sphere_point(0.2, 0.3, 0.9)
    b, c = _at_angle(v, _toward(v, E1), 0.5), _at_angle(v, _toward(v, E2), 0.5)
    p = _at_angle(v, neg(unit(geometry.add(_toward(v, b), _toward(v, c)))), 0.1)
    s1, s2 = GeodesicSegment(b, v), GeodesicSegment(v, c)
    assert s1.nearest_point(p)[0] == s2.nearest_point(p)[0]
    assert geometry.nearest_feature([s1, s2], p)[0] == 0
    assert geometry.nearest_feature([s2, s1], p)[0] == 0


def _mid(seg):
    return unit(geometry.add(seg.a, seg.b))


def _pair_case(rng, kind, tol):
    """Two arcs whose reach bounds nearly touch, or arcs near pi long."""
    a, u = _frame(rng)
    L1, L2 = (LENGTHS[i] for i in rng.integers(2, len(LENGTHS), 2))
    s1 = _arc(a, u, L1)
    nudge = NUDGES[rng.integers(0, len(NUDGES))]
    if kind == "end_to_end":
        # s2 on s1's circle, tilted out of it, a gap g past s1's end (or
        # before its start): the midpoints are L1/2 + g + L2/2 apart
        g = rng.choice([-1e-6, -tol, -tol / 2, 0.0, tol / 2, tol, 2 * tol, 3 * tol,
                        3 * tol + 1e-7, 1e-6, 2e-6]) * (1 + nudge)
        w = unit(_at_angle(u, s1.pole, rng.choice([0.0, 1e-12, tol / 2, tol, 1e-6])))
        t0 = L1 + g if rng.integers(0, 2) else -g - L2
        s2 = GeodesicSegment(_at_angle(a, w, t0), _at_angle(a, w, t0 + L2))
    elif kind == "crossing_end":
        # s2 crosses s1's circle about tol / 2 (or 1e-6) beyond s1's end
        e = rng.choice([0.0, tol / 2, -tol / 2, 1e-6, -1e-6]) * (1 + nudge)
        x = _at_angle(a, u, L1 + e)
        w = unit(cross(s1.pole, x))  # along s1's circle at x
        v = unit(_at_angle(w, cross(x, w), rng.choice([1e-6, 0.3, 1.5])))
        k = rng.uniform(0, 1)
        s2 = GeodesicSegment(_at_angle(x, v, -k * L2), _at_angle(x, v, (1 - k) * L2))
    else:
        b, w = _frame(rng)
        s2 = _arc(b, w, L2)
    return s1, (s2 if rng.integers(0, 2) else s2.reversed())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["end_to_end", "crossing_end", "random"]),
       st.sampled_from([EPS_SEP, 10 * EPS_SEP, 1e-8, 1e-6, 1e-5, 0.1]))
def test_segment_intersection_broad_phase_intersects_as_the_full_test(seed, kind, tol):
    rng = np.random.default_rng(seed)
    s1, s2 = _pair_case(rng, kind, tol)
    for x, y in ((s1, s2), (s2, s1)):
        # a piece shorter than EPS_SEP raises DegenerateSegment, on both sides
        got = _outcome(lambda: segment_intersection(x, y, tol))
        want = _outcome(lambda: exact_intersection(x, y, tol))
        assert (got if isinstance(got, str) else _hits(got)) == \
            (want if isinstance(want, str) else _hits(want))
        # the bound the broad phase rests on, for each point it could lose
        bound = (x.length + y.length) / 2 + 3 * tol + 5e-10
        for h in ([] if isinstance(got, str) else got):
            for q in ((h.a, h.b) if isinstance(h, GeodesicSegment) else (h,)):
                if tol <= 1e-6:
                    assert angle_between(q, _mid(x)) + angle_between(q, _mid(y)) <= bound


def test_far_pair_and_far_arc_skip_the_exact_kernel(monkeypatch):
    s1 = GeodesicSegment(E1, sphere_point(1, 0.2, 0))
    far = GeodesicSegment(sphere_point(-1, 0, 0.3), sphere_point(-1, 0.2, 0.3))
    near = GeodesicSegment(sphere_point(1, 0.1, -0.1), sphere_point(1, 0.1, 0.1))
    p = sphere_point(1, 0.05, 0.01)
    dots, nearest = [], []
    exact_dot, exact_nearest = geometry.dot, GeodesicSegment.nearest_point
    monkeypatch.setattr(geometry, "dot", lambda a, b: dots.append(1) or exact_dot(a, b))
    monkeypatch.setattr(GeodesicSegment, "nearest_point",
                        lambda seg, q: nearest.append(seg) or exact_nearest(seg, q))
    assert segment_intersection(s1, far) == [] and segment_intersection(far, s1) == []
    assert not dots and "pole" not in vars(far)
    assert len(segment_intersection(s1, near)) == 1 and dots
    assert geometry.nearest_feature([far, s1, near], p)[0] == 1
    assert far not in nearest and s1 in nearest
