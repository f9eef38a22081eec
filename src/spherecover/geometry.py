"""Spherical geometry kernel: points, geodesic arcs, areas, rotations.

All points live on the unit sphere in R^3 and are plain numpy arrays of
shape (3,).  ``cross`` is computed on Python floats, with the same IEEE
multiplies and subtracts as ``np.cross`` but without its per-call dispatch.
Every dot product, and so every ``norm``, still goes through numpy's
``dot``: its rounding differs in the last ulp from a plain-float sum, and
the bytes of every surface file depend on it.  Incidence decisions use two
tolerances:

* ``EPS_UNIT`` (1e-12) for algebraic identities (unit norm, orthogonality),
* ``EPS_SEP`` (1e-9 rad) for deciding whether two points coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EPS_UNIT = 1e-12
EPS_SEP = 1e-9
CONTACT_TOL = 1e-10  # rotation angle to which a first contact is bisected


class GeometryError(ValueError):
    pass


class DegenerateSegment(GeometryError):
    """Segment endpoints coincide or are antipodal."""


class NotClosed(GeometryError):
    """Polygon boundary does not close up."""


class SelfIntersecting(GeometryError):
    """Polygon boundary crosses itself."""


class NoContact(GeometryError):
    """Rotation family never brings the target onto the curve."""


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, bit-identical to ``np.cross``."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, bit-identical to ``np.linalg.norm``."""
    return math.sqrt(float(v.dot(v)))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if n < 1e-15:
        raise GeometryError("cannot normalize a (near-)zero vector")
    return v / n


def sphere_point(x, y, z) -> np.ndarray:
    return unit((x, y, z))


def angle_between(a, b) -> float:
    """Angular distance in [0, pi], stable near 0 and pi."""
    return math.atan2(norm(cross(a, b)), float(np.dot(a, b)))


def tangent_frame(p):
    """Orthonormal frame (e1, e2) of the tangent plane at p, with e1 x e2 = p.

    e1 is perpendicular to the z axis, or to a fixed skew vector near the poles."""
    e1 = unit(cross(p, [0.412, -0.777, 0.318]) if abs(p[2]) > 0.9 else cross(p, [0, 0, 1]))
    return e1, unit(cross(p, e1))


def points_coincide(a, b, tol=EPS_SEP) -> bool:
    return angle_between(a, b) <= tol


def antipodal(a, b, tol=EPS_SEP) -> bool:
    return angle_between(a, b) >= math.pi - tol


@dataclass(frozen=True)
class GeodesicSegment:
    """Directed minor great-circle arc from ``a`` to ``b``.

    Endpoints must be distinct and non-antipodal so the arc is unique.
    ``length`` (the angle between the endpoints) is set on construction.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", unit(self.a))
        object.__setattr__(self, "b", unit(self.b))
        # one angle serves both degeneracy tests (those of points_coincide
        # and antipodal) and is the arc length
        ang = angle_between(self.a, self.b)
        if ang <= EPS_SEP:
            raise DegenerateSegment("segment endpoints coincide")
        if ang >= math.pi - EPS_SEP:
            raise DegenerateSegment("segment endpoints are antipodal")
        object.__setattr__(self, "length", ang)

    # Cached in the instance __dict__ (which a frozen dataclass still has).
    # Safe because __post_init__ stores its own unit copies of both
    # endpoints, so no later write to the input arrays reaches them.
    @cached_property
    def pole(self) -> np.ndarray:
        """Unit normal of the supporting great circle (right-hand rule a->b)."""
        return unit(cross(self.a, self.b))

    def point_at(self, t: float) -> np.ndarray:
        """Arc point at parameter t in [0, 1] (slerp)."""
        ang = self.length
        s = math.sin(ang)
        return unit(math.sin((1 - t) * ang) / s * self.a + math.sin(t * ang) / s * self.b)

    def tangent_at(self, t: float) -> np.ndarray:
        p = self.point_at(t)
        return unit(cross(self.pole, p))

    def param_of(self, p, tol=EPS_SEP):
        """Parameter of p on the arc, or None if p is not on it."""
        if abs(float(np.dot(p, self.pole))) > math.sin(tol) + EPS_UNIT * 10:
            return None
        ang = self.length
        ta = angle_between(self.a, p)
        tb = angle_between(self.b, p)
        if ta + tb > ang + tol:
            return None
        return min(max(ta / ang, 0.0), 1.0)

    def contains(self, p, tol=EPS_SEP) -> bool:
        return self.param_of(p, tol) is not None

    def nearest_point(self, p):
        """(angle, point) of the arc point nearest to p: the foot of the
        perpendicular from p when it lies on the arc, else the nearer endpoint
        (``a`` on a tie), returned as that endpoint object itself."""
        n = self.pole
        c = p - float(np.dot(p, n)) * n
        if norm(c) > 1e-12:
            foot = unit(c)
            if self.contains(foot, tol=1e-9):
                return angle_between(p, foot), foot
        da, db = angle_between(p, self.a), angle_between(p, self.b)
        return (da, self.a) if da <= db else (db, self.b)

    def reversed(self) -> "GeodesicSegment":
        return GeodesicSegment(self.b, self.a)


class PointRegistry:
    """Distinct points by linear scan: a point within ``tol`` of a registered
    one gets that point's id, any other point is stored (as a unit vector)
    under the next id."""

    def __init__(self, tol):
        self.points = []
        self.tol = tol

    def key(self, p) -> int:
        for i, q in enumerate(self.points):
            if points_coincide(p, q, self.tol):
                return i
        self.points.append(unit(p))
        return len(self.points) - 1


def geodesic_length(seg: GeodesicSegment) -> float:
    """Spherical length of a geodesic arc (= angle between its endpoints)."""
    return seg.length


def segment_intersection(s1: GeodesicSegment, s2: GeodesicSegment, tol=EPS_SEP):
    """Intersection of two geodesic arcs.

    Returns a list whose entries are points (transversal or touching
    intersections) or GeodesicSegments (shared subarcs when both arcs lie
    on one great circle).
    """
    n1, n2 = s1.pole, s2.pole
    cr = cross(n1, n2)
    if norm(cr) <= math.sin(tol):
        # Same great circle (or opposite orientation): interval overlap.
        if abs(float(np.dot(n1, s2.a))) > math.sin(tol):
            return []  # parallel circles cannot happen on a sphere unless equal
        return _collinear_overlap(s1, s2, tol)
    out = []
    u = unit(cr)
    for cand in (u, -u):
        if s1.contains(cand, tol) and s2.contains(cand, tol):
            out.append(cand)
    return out


def _collinear_overlap(s1, s2, tol):
    # Parametrize both arcs by angle along s1's circle, measured from s1.a.
    pole = s1.pole
    ref = s1.a
    perp = unit(cross(pole, ref))

    def ang(p):
        return math.atan2(float(np.dot(p, perp)), float(np.dot(p, ref))) % (2 * math.pi)

    a1, b1 = 0.0, s1.length
    a2, b2 = ang(s2.a), ang(s2.b)
    if (b2 - a2) % (2 * math.pi) > math.pi:
        a2, b2 = b2, a2  # s2 runs against s1's orientation; as sets this is fine
    # Intervals on the circle: [a1,b1] and [a2, a2+len2].
    len2 = (b2 - a2) % (2 * math.pi)
    pieces = []
    for shift in (0.0, -2 * math.pi):
        lo = max(a1, a2 + shift)
        hi = min(b1, a2 + shift + len2)
        if hi - lo > tol:
            pa = unit(math.cos(lo) * ref + math.sin(lo) * perp)
            pb = unit(math.cos(hi) * ref + math.sin(hi) * perp)
            pieces.append(GeodesicSegment(pa, pb))
        elif hi - lo > -tol:
            pieces.append(unit(math.cos((lo + hi) / 2) * ref + math.sin((lo + hi) / 2) * perp))
    return pieces


def turning_angle(t_in, t_out, at) -> float:
    """Signed exterior angle between tangents at a polygon vertex."""
    s = float(np.dot(cross(t_in, t_out), at))
    c = float(np.dot(t_in, t_out))
    return math.atan2(s, c)


def spherical_polygon_area(boundary, check_simple=True) -> float:
    """Area enclosed on the left of a closed geodesic polygon.

    The boundary is a cyclic list of GeodesicSegments, each ending where the
    next begins.  Area = 2*pi - sum of exterior turning angles (Gauss-Bonnet
    for geodesic boundaries); the result lies in (0, 4*pi).
    """
    k = len(boundary)
    if k == 0:
        raise NotClosed("empty boundary")
    for i, seg in enumerate(boundary):
        nxt = boundary[(i + 1) % k]
        if not points_coincide(seg.b, nxt.a):
            raise NotClosed("segment %d does not end where segment %d starts" % (i, (i + 1) % k))
    if check_simple:
        for i in range(k):
            for j in range(i + 1, k):
                hits = segment_intersection(boundary[i], boundary[j])
                for h in hits:
                    if isinstance(h, GeodesicSegment):
                        raise SelfIntersecting("segments %d and %d overlap" % (i, j))
                    endpoint = (
                        points_coincide(h, boundary[i].a) or points_coincide(h, boundary[i].b)
                    ) and (points_coincide(h, boundary[j].a) or points_coincide(h, boundary[j].b))
                    adjacent = j == i + 1 or (i == 0 and j == k - 1)
                    if not (endpoint and adjacent):
                        raise SelfIntersecting("segments %d and %d cross" % (i, j))
    total_turn = 0.0
    for i, seg in enumerate(boundary):
        nxt = boundary[(i + 1) % k]
        total_turn += turning_angle(seg.tangent_at(1.0), nxt.tangent_at(0.0), seg.b)
    area = 2 * math.pi - total_turn
    area %= 4 * math.pi
    if area <= 0 or area >= 4 * math.pi:
        raise GeometryError("polygon area %g outside (0, 4pi)" % area)
    return area


@dataclass(frozen=True)
class Rotation:
    """Orientation-preserving isometry of the sphere (det +1 orthogonal matrix)."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m @ m.T - np.eye(3))) > 1e-10:
            raise GeometryError("matrix is not orthogonal")
        if np.linalg.det(m) < 0:
            raise GeometryError("matrix reverses orientation")

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Rotation":
        k = unit(axis)
        kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        m = np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)
        return Rotation(m)

    def apply(self, x):
        if isinstance(x, GeodesicSegment):
            return GeodesicSegment(self.matrix @ x.a, self.matrix @ x.b)
        return unit(self.matrix @ np.asarray(x, dtype=float))

    def compose(self, other: "Rotation") -> "Rotation":
        """self after other: (self.compose(other)).apply(p) == self(other(p))."""
        return Rotation(self.matrix @ other.matrix)

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)

    def is_identity(self, tol=EPS_UNIT) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(3))) <= 10 * tol)


def rotate(r: Rotation, x):
    """Apply a rotation to a point, segment, or anything with a .rotated(r)."""
    if hasattr(x, "rotated"):
        return x.rotated(r)
    return r.apply(x)


def _circle_plane_roots(p0, axis, pole):
    """Angles t with pole . (R(axis,t) p0) = 0, as a sorted list in [0, 2pi)."""
    k = unit(axis)
    # R(k,t) p0 = cos t * p0 + sin t * (k x p0) + (1-cos t)(k.p0) k
    c0 = float(np.dot(pole, p0))
    c1 = float(np.dot(pole, cross(k, p0)))
    c2 = float(np.dot(pole, k)) * float(np.dot(k, p0))
    # equation: (c0 - c2) cos t + c1 sin t + c2 = 0
    A, B, C = c0 - c2, c1, c2
    r = math.hypot(A, B)
    if r < 1e-15:
        return [] if abs(C) > 1e-15 else [0.0]
    if abs(C) > r + 1e-15:
        return []
    phi = math.atan2(B, A)
    base = math.acos(max(-1.0, min(1.0, -C / r)))
    return sorted({(phi + base) % (2 * math.pi), (phi - base) % (2 * math.pi)})


def first_contact_rotation(curve, target, axis):
    """Smallest t* > 0 with R(axis, t*)^-1(target) on the curve.

    ``curve`` is a list of GeodesicSegments.  The preimage of the target
    travels along the circle {R(axis,-t) target}; contacts against each arc's
    great circle are found in closed form and verified on the arc, then the
    first one is polished by bisection on the on/off predicate to
    ``CONTACT_TOL``.

    Returns (Rotation, segment_index, parameter_on_segment).
    """
    p0 = unit(target)

    def pre(t):
        return Rotation.from_axis_angle(axis, t).inverse().apply(p0)

    best = None
    for idx, seg in enumerate(curve):
        if seg.contains(p0):
            raise GeometryError("target already lies on the curve")
        for t in _circle_plane_roots(p0, -unit(np.asarray(axis, dtype=float)), seg.pole):
            t %= 2 * math.pi
            if t <= CONTACT_TOL:
                continue
            prm = seg.param_of(pre(t), tol=10 * EPS_SEP)
            if prm is None:
                continue
            if best is None or t < best[0]:
                best = (t, idx, prm)
    if best is None:
        raise NoContact("rotation family never meets the curve")
    t_star, idx, prm = best
    seg = curve[idx]
    # Bisection polish: largest t below t_star with the preimage off the arc.
    lo, hi = max(0.0, t_star - 1e-4), t_star + 1e-4
    for _ in range(200):
        if hi - lo <= CONTACT_TOL:
            break
        mid = (lo + hi) / 2
        if seg.param_of(pre(mid), tol=10 * EPS_SEP) is None:
            lo = mid
        else:
            hi = mid
    t_star = hi
    prm = seg.param_of(pre(t_star), tol=1e-6)
    return Rotation.from_axis_angle(axis, t_star), idx, prm
