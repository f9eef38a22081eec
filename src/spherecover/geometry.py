"""Spherical geometry kernel: points, geodesic arcs, turning angles, rotations.

All points live on the unit sphere in R^3 and are immutable ``(x, y, z)``
tuples of floats; the kernel owns its arithmetic.  ``dot`` is the FMA chain
``fma(a2, b2, fma(a1, b1, a0*b0))``, each ``fma`` rounded once (Dekker's
exact product, then one ``math.fsum``), so every length, area and incidence
test rounds the same on every host and Python version.  ``norm`` squares
by ``_dot_self``, ``dot(v, v)`` bit for bit with one split per coordinate
in place of two.  ``Rotation`` takes
each product of a row as a ``dot`` (the identity's ``apply`` skips the row
dots where they would give back the point's own coordinates), and
``float_sum`` adds floats strictly left to right.  Incidence decisions use two tolerances:

* ``EPS_UNIT`` (1e-12) for algebraic identities (unit norm, orthogonality),
* ``EPS_SEP`` (1e-9 rad) for deciding whether two points coincide.

This module owns every decision taken from plain floats.  A test may take
its decision from a plain-float twin (``_fangle``, ``_fdot``) only where a
sound bound, stated next to the code, puts the twin clear of the
threshold; otherwise it evaluates its exact-kernel formula (``wedge_index``
has no twin, and ``contact_angles`` none beyond ``contains``'s).  So every
decision is the exact kernel's, and every value that is returned or stored
(lengths, parameters, points, areas) comes from the exact kernel.
``_fdot`` and ``cross`` stay the reference twins; ``_fangle``,
``angle_between``, ``unit``, ``GeodesicSegment.contains``, ``_fnearest``
and ``first_within``'s box rule write them (and ``norm``) out in place, as
the same expression with its operations in the same order, so bit for bit
(a comment names each call).  Other modules ask public questions and never
see a twin:

* ``points_coincide``, ``antipodal``, ``GeodesicSegment.contains`` and
  ``param_of``;
* ``first_within`` (the point scans), ``nearest_feature`` and
  ``nearest_to_arcs`` (the nearest arc), ``locate_on_arcs`` (on, beside or
  nearest an end of which arc) and ``wedge_index`` (the wedge a direction
  enters at a vertex);
* ``tangent_toward`` (the tangent at a point toward another) and
  ``azimuth_order`` (tangents at a point in counterclockwise order): with
  ``wedge_index`` and ``turning_angle``, every angle taken at a vertex;
* ``segment_intersection``, ``meet_only_at_shared_end``,
  ``clear_of_circles`` and ``contact_angles``.

Face areas are not computed here: ``arrangement.build_faces`` takes each
from its cycle's ``turning_angle`` sum by Gauss-Bonnet.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

EPS_UNIT = 1e-12
EPS_SEP = 1e-9
CONTACT_TOL = 1e-10  # least rotation angle taken as a first contact

# Veltkamp's splitter 2**27 + 1: x == hi + lo with both halves 26 bits wide,
# so the four partial products of two split floats are exact.
_SPLIT = 134217729.0
# the magnitudes of an fma step's fsum that ``dot`` keeps (see its docstring)
_TINY = 2.0 ** -900
_NO_UNDERFLOW = 2.0 ** -968  # |x*y| from which no partial product underflows
_MAX = sys.float_info.max
# A filtered test trusts its plain-float twin only this far (rad, or times
# the dot's sum of |a_i*b_i|) from the threshold; the twin errs by < 1e-14.
_FILTER = 1e-13
# range of the squared magnitudes (|a|**2 |b|**2) where a twin is trusted: no
# coordinate product overflows, and an underflowed one errs negligibly.
_FILTER_LO, _FILTER_HI = 2.0 ** -800, 2.0 ** 800
# A search skips a candidate only where a plain-float bound puts it more than
# this (rad) behind what can win; those bounds err by less than 2e-9 rad.
_PRUNE = 1e-7
# ``_fnearest_end`` decides only where p's plain-float lune values clear 0 by
# this; the lune values err by < 1e-15.
_LUNE = 1e-8
# ``first_within``'s box rule: a coordinate gap beyond tol + _BOX puts two
# unit points more than tol apart.
_BOX = 1e-11
# An arc is well conditioned when its length lies in [_WELL, pi - _WELL]:
# then sin(length) > 0.99e-5, and since its pole comes from a cross product
# rounded by < 6e-16, both endpoints lie within 1e-10 rad of the pole's circle.
_WELL = 1e-5


class GeometryError(ValueError):
    pass


class DegenerateSegment(GeometryError):
    """Segment endpoints coincide or are antipodal."""


class NoContact(GeometryError):
    """Rotation family never brings the target onto the curve."""


class memo:
    """``functools.cached_property`` without the lock that Python 3.11's takes
    on every first read: the first read stores the method's value in the
    instance ``__dict__`` (which a frozen dataclass still has), where every
    later read finds it ahead of this non-data descriptor."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _fma(x, y, s, r) -> float:
    """x*y + s rounded once, as IEEE fma rounds it, where ``dot``'s fsum gave
    r: r itself (a zero signed) if no partial product underflowed, otherwise
    from exact rationals, with an overflow rounded to an infinity."""
    p = x * y
    if abs(r) < _TINY and (not x or not y or abs(p) >= _NO_UNDERFLOW):
        return r or p + s  # an exact zero sum: p is exact, so p + s has its sign
    if not (math.isfinite(x) and math.isfinite(y)):
        return p + s  # the product is already exact: an infinity or nan
    if not math.isfinite(s):
        return s
    r = Fraction(x) * Fraction(y) + Fraction(s)
    if not r:
        return p + s
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def dot(a, b) -> float:
    """The FMA chain ``fma(a2, b2, fma(a1, b1, a0*b0))``: numpy's 3-vector dot
    on OpenBLAS's AVX-512 kernels, bit for bit, for all finite inputs (an
    overflow gives an infinity, as there).

    Each ``fma(x, y, s)`` rounds x*y + s once: the Veltkamp split halves of
    x and y give Dekker's four exact partial products, and ``fsum`` rounds
    their exact sum with s.  A partial product is inexact only if it
    underflows; then |x*y| < 2**-969 and the error is below 2**-1073, too
    little to move a sum of magnitude ``_TINY`` (2**-900) or more across a
    rounding boundary.  Any other sum -- zero (``fsum`` drops its sign),
    tiny, infinite, or nan from a split of |x| >= 2**996 -- goes to ``_fma``,
    and so does the whole chain where ``fsum`` refuses an intermediate
    overflow or inf - inf."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    s = a0 * b0
    try:
        t = a1 * _SPLIT
        ah = t - (t - a1)
        al = a1 - ah
        t = b1 * _SPLIT
        bh = t - (t - b1)
        bl = b1 - bh
        r = fsum((ah * bh, ah * bl, al * bh, al * bl, s))
        s = r if _TINY <= abs(r) <= _MAX else _fma(a1, b1, s, r)
        t = a2 * _SPLIT
        ah = t - (t - a2)
        al = a2 - ah
        t = b2 * _SPLIT
        bh = t - (t - b2)
        bl = b2 - bh
        r = fsum((ah * bh, ah * bl, al * bh, al * bl, s))
        return r if _TINY <= abs(r) <= _MAX else _fma(a2, b2, s, r)
    except (OverflowError, ValueError):
        return _fma(a2, b2, _fma(a1, b1, a0 * b0, math.nan), math.nan)


def float_sum(xs) -> float:
    """Sum of floats strictly left to right (from Python 3.12 the built-in
    ``sum`` compensates, which moves the last digit of a total)."""
    total = 0.0
    for x in xs:
        total += x
    return total


def cross(a, b) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _dot_self(v) -> float:
    """``dot(v, v)`` bit for bit, with one Veltkamp split per coordinate.

    For y == h + l split as in ``dot``, y*y is exactly h*h + 2*h*l + l*l, so
    each fma step's fsum takes (h*l)*2.0 for ``dot``'s h*l + l*h: the
    doubling is exact, also where h*l underflows, so the fsum's inputs sum to
    the same exact value.  A sum outside [``_TINY``, ``_MAX``], and any error
    that ``fsum`` raises, leaves the whole square to ``dot``."""
    x0, x1, x2 = v
    s = x0 * x0
    try:
        t = x1 * _SPLIT
        h = t - (t - x1)
        lo = x1 - h
        s = fsum((h * h, (h * lo) * 2.0, lo * lo, s))
        if _TINY <= s <= _MAX:
            t = x2 * _SPLIT
            h = t - (t - x2)
            lo = x2 - h
            r = fsum((h * h, (h * lo) * 2.0, lo * lo, s))
            if _TINY <= r <= _MAX:
                return r
    except (OverflowError, ValueError):
        pass
    return dot(v, v)


def norm(v) -> float:
    return math.sqrt(_dot_self(v))


def unit(v) -> tuple:
    n = math.sqrt(_dot_self(v))  # norm(v)
    if not 1e-15 <= n <= _MAX:
        raise GeometryError("cannot normalize a (near-)zero or non-finite vector")
    x, y, z = v
    return (x / n, y / n, z / n)


def add(a, b) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(s: float, v) -> tuple:
    return (s * v[0], s * v[1], s * v[2])


def neg(v) -> tuple:
    return (-v[0], -v[1], -v[2])


def sphere_point(x, y, z) -> tuple:
    return unit((x, y, z))


def angle_between(a, b) -> float:
    """Angular distance in [0, pi], stable near 0 and pi."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    # norm(cross(a, b))
    n = math.sqrt(_dot_self((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)))
    return math.atan2(n, dot(a, b))


def _fdot(a, b) -> float:
    """Plain-float twin of ``dot``: (a0*b0 + a1*b1) + a2*b2.

    Both it and the FMA chain lie within gamma_3 * sum |a_i*b_i| of the real
    a.b (Higham, section 3.1; gamma_3 = 3u/(1 - 3u), u = 2**-53), so they
    differ by at most 2*gamma_3*sum |a_i*b_i| < 7e-16 * sum |a_i*b_i|, with
    each underflowed product adding at most 2**-1075."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _fangle(a, b):
    """Plain-float twin of ``angle_between``, or None where it is not trusted.

    ``cross`` is the same plain-float expression in both, so the two atan2
    arguments are its norm and a.b, each from ``_fdot`` here and from the FMA
    chain there.  Those differ by at most 2*gamma_3*|a||b|, and the norm's by
    less after the square root.  atan2 is 1-Lipschitz in the perturbation of
    its arguments relative to their length, which is |a||b| up to rounding.
    With libm's error of an ulp or two, the twin stays within about 3e-15 rad
    of ``angle_between``.  That holds while no coordinate product overflows
    and an underflowed one, off by at most 2**-1075, is negligible beside
    |a||b|: so the twin answers only for |a|**2 |b|**2 (taken from its own
    arguments) in [2**-800, 2**800], and is None outside, or on inf or nan."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    # c = cross(a, b), then x, yy = _fdot(a, b), _fdot(c, c)
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    x = a0 * b0 + a1 * b1 + a2 * b2
    yy = c0 * c0 + c1 * c1 + c2 * c2
    if _FILTER_LO <= yy + x * x <= _FILTER_HI:
        return math.atan2(math.sqrt(yy), x)
    return None


def tangent_frame(p):
    """Orthonormal frame (e1, e2) of the tangent plane at p, with e1 x e2 = p.

    e1 is perpendicular to the z axis, or to a fixed skew vector near the poles."""
    e1 = unit(cross(p, (0.412, -0.777, 0.318)) if abs(p[2]) > 0.9 else cross(p, (0.0, 0.0, 1.0)))
    return e1, unit(cross(p, e1))


def tangent_toward(v, w) -> tuple:
    """Unit tangent at v of the great-circle arc from v toward w."""
    return unit(cross(cross(v, w), v))


def azimuth_order(at, tangents) -> list:
    """The indices of ``tangents`` at ``at`` in counterclockwise order: a
    stable sort by exact azimuth in ``tangent_frame(at)``, from -pi on."""
    e1, e2 = tangent_frame(at)
    az = [math.atan2(dot(t, e2), dot(t, e1)) for t in tangents]
    return sorted(range(len(tangents)), key=az.__getitem__)


def points_coincide(a, b, tol=EPS_SEP) -> bool:
    """angle_between(a, b) <= tol, from the twin where it is more than
    ``_FILTER`` from tol."""
    w = _fangle(a, b)
    if w is None or abs(w - tol) <= _FILTER:
        w = angle_between(a, b)
    return w <= tol


def antipodal(a, b, tol=EPS_SEP) -> bool:
    """angle_between(a, b) >= pi - tol (filtered)."""
    t = math.pi - tol
    w = _fangle(a, b)
    if w is None or abs(w - t) <= _FILTER:
        w = angle_between(a, b)
    return w >= t


def first_within(p, points, tol):
    """The index of the first of ``points`` within tol of p
    (``points_coincide``), or None; a None entry is skipped, and so is a
    point that the box rule puts beyond tol, without its angle.

    The box rule: some coordinate of q and p differs by more than lim = tol
    + ``_BOX``, and both are unit vectors within 1e-12 (|p|**2 and |q|**2
    by ``_fdot``; lim is inf for any other p).  Then p and q lie within
    5.1e-13 of their units, whose chord exceeds tol + 1e-11 - 1.1e-12; the
    angle is at least the chord, and the exact angle and its twin err by
    < 1e-14, so both decide it is above tol."""
    lim = tol + _BOX if abs(_fdot(p, p) - 1.0) <= 1e-12 else math.inf
    p0, p1, p2 = p
    for i, q in enumerate(points):
        if q is None:
            continue
        q0, q1, q2 = q
        if ((abs(q0 - p0) > lim or abs(q1 - p1) > lim or abs(q2 - p2) > lim)
                and abs(q0 * q0 + q1 * q1 + q2 * q2 - 1.0) <= 1e-12):  # _fdot(q, q)
            continue
        if points_coincide(p, q, tol):
            return i
    return None


@dataclass(frozen=True)
class GeodesicSegment:
    """Directed minor great-circle arc from ``a`` to ``b``.

    Endpoints must be distinct and non-antipodal so the arc is unique.
    ``length`` (the angle between the endpoints) is set on construction.
    """

    a: tuple
    b: tuple

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

    # the endpoints are immutable tuples, so the memo never goes stale
    @memo
    def pole(self) -> tuple:
        """Unit normal of the supporting great circle (right-hand rule a->b)."""
        return unit(cross(self.a, self.b))

    def point_at(self, t: float) -> tuple:
        """Arc point at parameter t in [0, 1] (slerp)."""
        ang = self.length
        s = math.sin(ang)
        return unit(add(scale(math.sin((1 - t) * ang) / s, self.a),
                        scale(math.sin(t * ang) / s, self.b)))

    def param_of(self, p, tol=EPS_SEP):
        """Parameter of p on the arc, or None if p is not on it (``contains``);
        the parameter is from the exact angle ta from ``a``."""
        if not self.contains(p, tol):
            return None
        return min(max(angle_between(self.a, p) / self.length, 0.0), 1.0)

    def contains(self, p, tol=EPS_SEP) -> bool:
        """Whether p lies on the arc, by two filtered tests: p off the arc's
        plane, |p . pole| > sin(tol) + 1e-11, and p beyond its ends, ta + tb >
        length + tol (ta, tb the angles from a and b).  No parameter is
        computed."""
        pole = self.pole
        n0, n1, n2 = pole
        p0, p1, p2 = p
        lim = math.sin(tol) + EPS_UNIT * 10
        # the pole is a unit vector: m bounds sum |p_i*pole_i| (see _fdot)
        m = abs(p0) + abs(p1) + abs(p2)
        w = p0 * n0 + p1 * n1 + p2 * n2  # _fdot(p, pole)
        if not (_FILTER_LO <= m * m <= _FILTER_HI and abs(abs(w) - lim) > _FILTER * m):
            w = dot(p, pole)
        if abs(w) > lim:
            return False
        ang = self.length
        wa, wb = _fangle(self.a, p), _fangle(self.b, p)
        if wa is None or wb is None or abs(wa + wb - (ang + tol)) <= _FILTER:
            wa, wb = angle_between(self.a, p), angle_between(self.b, p)
        return not wa + wb > ang + tol

    def nearest_point(self, p):
        """(angle, point) of the arc point nearest to p: the foot of the
        perpendicular from p when it lies on the arc, else the nearer endpoint
        (``a`` on a tie), returned as that endpoint object itself."""
        n = self.pole
        c = sub(p, scale(dot(p, n), n))
        if norm(c) > 1e-12:
            foot = unit(c)
            if self.contains(foot, tol=1e-9):
                return angle_between(p, foot), foot
        da, db = angle_between(p, self.a), angle_between(p, self.b)
        return (da, self.a) if da <= db else (db, self.b)

    def reversed(self) -> "GeodesicSegment":
        return GeodesicSegment(self.b, self.a)

    @memo
    def _lune(self):
        """(n x a, b x n) for the pole n, in plain floats: p lies in the lune
        of the circle's normals through the two ends where both its dots
        with them are >= 0 (see ``_fnearest``)."""
        n = self.pole
        return cross(n, self.a), cross(self.b, n)

    @memo
    def _reach(self):
        """(midpoint in plain floats, length / 2) of a well-conditioned arc,
        None for any other (see ``segment_intersection`` and ``_fnearest``)."""
        if not _WELL <= self.length <= math.pi - _WELL:
            return None
        m = add(self.a, self.b)
        r = math.sqrt(_fdot(m, m))
        return (m[0] / r, m[1] / r, m[2] / r), self.length / 2


def _fnearest(seg, p):
    """Plain-float twin of ``seg.nearest_point(p)[0]``, or None where it is not
    trusted: on an arc that is not well conditioned, and unless p is a unit
    vector at least 1e-4 rad from either pole of the arc's circle.

    It is the distance from p to the circle (atan2(|p.n|, |n x p|)) where p
    lies in the lune of the circle's normals through the two endpoints (the
    signs of p.(n x a) and p.(b x n)), and the nearer endpoint's angle
    elsewhere."""
    if seg._reach is None:
        return None
    n0, n1, n2 = seg.pole
    p0, p1, p2 = p
    # q = cross(n, p), then qq, s = _fdot(q, q), _fdot(p, n)
    q0, q1, q2 = n1 * p2 - n2 * p1, n2 * p0 - n0 * p2, n0 * p1 - n1 * p0
    qq = q0 * q0 + q1 * q1 + q2 * q2
    s = p0 * n0 + p1 * n1 + p2 * n2
    if not (qq >= 1e-8 and abs(qq + s * s - 1.0) <= 1e-9):
        return None
    (a0, a1, a2), (b0, b1, b2) = seg._lune
    # _fdot(p, na) and _fdot(p, nb)
    if p0 * a0 + p1 * a1 + p2 * a2 >= 0 and p0 * b0 + p1 * b1 + p2 * b2 >= 0:
        return math.atan2(abs(s), math.sqrt(qq))
    return min(_fangle(p, seg.a), _fangle(p, seg.b))


def _fnearest_end(seg, p):
    """Plain-float twin of which point ``seg.nearest_point(p)`` returns, for a
    p where ``_fnearest(seg, p)`` is not None: "foot" for the foot of the
    perpendicular, "a" or "b" for that end, None where it is not decided.

    With n the pole, the lune values sa = p.(n x a) and sb = p.(b x n) are
    |n x p| cos(eta) sin of the angles about n from a's foot a' on the
    circle to p's foot f and from f to b' (eta < 1e-10: the ends lie that
    close to the circle), up to 1e-15.  Where both exceed ``_LUNE``, f lies
    on the circle's arc a'b', of length at most L + 2*eta, so f's angles to
    a and b sum to at most L + 4*eta; the computed foot errs by < 1e-11
    (|n x p| >= 1e-4), so ``contains(foot, 1e-9)`` takes it: "foot".
    Where one is below -``_LUNE``, f lies beyond that end by an angle psi in
    (1e-8, pi - 1e-8), and the angles sum to at least L + min(2*psi,
    2*pi - 2*L) - 4*eta > L + 1.5e-8: the foot is refused, and the nearer
    end by exact angle is returned (a on a tie).  The twin angles err by
    < 3e-15, so an end whose twin is more than ``_FILTER`` below the
    other's is that one."""
    na, nb = seg._lune
    sa, sb = _fdot(p, na), _fdot(p, nb)
    if sa > _LUNE and sb > _LUNE:
        return "foot"
    if sa < -_LUNE or sb < -_LUNE:
        da, db = _fangle(p, seg.a), _fangle(p, seg.b)
        if da < db - _FILTER:
            return "a"
        if db < da - _FILTER:
            return "b"
    return None


def nearest_feature(segs, p, twins=None):
    """(index, angle, point) of the first arc of ``segs`` whose
    ``nearest_point(p)`` angle is least, that angle and point; None for no arcs.
    ``twins``, if given, is ``[_fnearest(seg, p) for seg in segs]``.

    Filtered: the exact ``nearest_point`` runs only on the arcs whose twin
    (``_fnearest``) is untrusted or within ``_PRUNE`` of the least trusted
    twin.  That keeps every arc the full scan can pick.  Let d be the
    distance from p to the arc between the endpoints' feet on the pole's
    circle; the endpoints lie within eta < 1e-10 of that circle.  The twin
    is within eta of d (plus rounding).  ``nearest_point`` is too where its
    foot is refused (the foot is then off that arc, so d is an endpoint's
    distance), and within 5e-10 + 2*eta where the foot is taken (a foot
    passing the 1e-9 end test lies within that of the arc; the plane test
    passes, as |n x p| >= 1e-4 keeps the foot within 1e-11 of the plane).
    So twin and exact angle differ by < 1e-9, and an arc whose twin exceeds
    another's by more than ``_PRUNE`` has the larger exact angle."""
    if twins is None:
        twins = [_fnearest(seg, p) for seg in segs]
    cut = min((w for w in twins if w is not None), default=math.inf) + _PRUNE
    best = None
    for i, (seg, w) in enumerate(zip(segs, twins)):
        if w is not None and w > cut:
            continue
        d, x = seg.nearest_point(p)
        if best is None or d < best[1]:
            best = (i, d, x)
    return best


def nearest_to_arcs(points, segs):
    """(k, angle, point) for the first of ``points`` whose ``nearest_feature``
    angle to the arcs ``segs`` is least: its index, that angle and the arc
    point ``nearest_point`` gives."""
    best = None
    for k, p in enumerate(points):
        _, d, x = nearest_feature(segs, p)
        if best is None or d < best[1]:
            best = (k, d, x)
    return best


# ``locate_on_arcs`` runs ``param_of`` only on an arc whose nearest twin is
# untrusted or at most this (rad); a point ``contains`` takes is nearer.
_ON_ARC = 1e-8


def locate_on_arcs(segs, p):
    """Where the unit point p lies against the arcs ``segs``, as the full
    exact scan decides it: ("on", i, t) for the first arc i that contains p
    (``param_of`` gives t); else, for the first arc i whose
    ``nearest_point`` is nearest (``nearest_feature``), ("side", i, left)
    where that point is the foot of the perpendicular, left whether
    p . pole > 0, or ("end", i, "a") or ("end", i, "b") where it is that
    end of the arc.

    Each arc's nearest twin (``_fnearest``) is computed first, and the exact
    kernel runs only where the twins leave the answer open:

    1. ``param_of`` runs only on the arcs whose twin is untrusted or at
       most ``_ON_ARC`` (1e-8): a point that ``contains`` takes (tol =
       EPS_SEP) lies within 1.5e-9 of the arc, where a trusted twin errs by
       < 2e-9 (see ``nearest_feature``).
    2. Where every twin is trusted, ``nearest_feature`` would run
       ``nearest_point`` only on the candidates, the arcs whose twin is
       within ``_PRUNE`` of the least.  ``_fnearest_end`` tells what each
       returns.  A foot on the one candidate is the answer; so is one end
       point, equal by value, of every candidate: its exact angles from p
       tie, so the scan keeps the first candidate.
    3. Anywhere else ``nearest_feature`` decides.

    The side is the sign of p . pole from ``_fdot`` where that is more than
    ``_FILTER`` from 0 (both are unit vectors), else from ``dot``."""
    twins = []
    for i, seg in enumerate(segs):
        w = _fnearest(seg, p)
        if w is None or w <= _ON_ARC:
            t = seg.param_of(p)
            if t is not None:
                return ("on", i, t)
        twins.append(w)
    pick = None if None in twins else _twin_pick(segs, p, twins)
    if pick is None:
        i, _, x = nearest_feature(segs, p, twins)
        pick = (i, "a" if x is segs[i].a else "b" if x is segs[i].b else "foot")
    i, end = pick
    if end != "foot":
        return ("end", i, end)
    pole = segs[i].pole
    side = _fdot(p, pole)
    if abs(side) <= _FILTER:
        side = dot(p, pole)
    return ("side", i, side > 0)


def _twin_pick(segs, p, twins):
    """(i, "foot" | "a" | "b") by ``locate_on_arcs``'s decision 2, or None."""
    cut = min(twins) + _PRUNE
    near = [i for i, w in enumerate(twins) if w <= cut]
    first = None
    for i in near:
        end = _fnearest_end(segs[i], p)
        if end is None or (end == "foot" and len(near) > 1):
            return None
        if end == "foot":
            return (i, end)
        x = segs[i].a if end == "a" else segs[i].b
        if first is None:
            first = (i, end, x)
        elif x != first[2]:
            return None
    return first[:2]


def wedge_index(at, p, tangents) -> int:
    """The index of the tangent, of the unit ``tangents`` at ``at``, whose
    counterclockwise wedge holds the direction toward p: the first whose
    exact azimuth, in the frame of tangents[0], least precedes it."""
    t = tangent_toward(at, p)
    e1 = unit(tangents[0])
    e2 = unit(cross(at, e1))
    tau = 2 * math.pi

    def az(vec):
        return math.atan2(dot(vec, e2), dot(vec, e1)) % tau
    target = az(t)
    return min(range(len(tangents)), key=lambda i: (target - az(tangents[i])) % tau)


class PointRegistry:
    """Distinct points by linear scan: a point within ``tol`` of a registered
    one gets that point's id, any other point is stored (as a unit vector)
    under the next id.

    Reuse rule: a point equal by value to one stored earlier gets that one's
    id without a scan.  That is the id the scan would give, since the
    registry only appends: the scan tests the same earlier points as before,
    none of which coincided with the point, and then stops at its stored
    unit vector (it is recorded only if it coincides with that).  The scan
    is ``first_within``.  A point is
    stored only if its norm is at least 1e-15 (``unit`` accepts it), so its
    cross product and dot with a unit vector are never both zero, and its
    coordinates of 0.0 and -0.0, equal by value, decide alike.  A point
    that matched an earlier one is not recorded: a near-zero point can match
    on the sign of a zero dot."""

    def __init__(self, tol):
        self.points = []
        self.tol = tol
        self._ids = {}  # point stored under an id -> that id

    def key(self, p) -> int:
        i = self._ids.get(p)
        if i is not None:
            return i
        i = first_within(p, self.points, self.tol)
        if i is not None:
            return i
        q = unit(p)
        i = len(self.points)
        self.points.append(q)
        if points_coincide(p, q, self.tol):
            self._ids[p] = i
        return i


def segment_intersection(s1: GeodesicSegment, s2: GeodesicSegment, tol=EPS_SEP):
    """Intersection of two geodesic arcs.

    Returns a list whose entries are points (transversal or touching
    intersections) or GeodesicSegments (shared subarcs when both arcs lie
    on one great circle).

    Broad phase: for two well-conditioned arcs and tol <= 1e-6 it returns []
    at once where the plain-float angle between their midpoints M1, M2
    exceeds (L1 + L2)/2 + 3*tol + ``_PRUNE``.  That is sound, because every
    returned point q has qM1 + qM2 <= (L1 + L2)/2 + 3*tol + 5e-10.  For a
    unit q at angles ta, tb from the ends of an arc of length L, cos(qM) =
    (cos ta + cos tb) / (2 cos(L/2)) = cos((ta+tb)/2) cos((ta-tb)/2) /
    cos(L/2) >= cos((ta+tb)/2), as |ta - tb| <= L; so qM <= (ta + tb)/2
    while that is at most pi/2.  A point that ``contains`` accepts has
    ta + tb <= L + tol.  A point or piece end of ``_collinear_overlap`` lies
    on the circle C through s1.a, within tol/2 of both arcs' angle intervals
    on C.  An endpoint at distance e from C adds at most 2e to ta + tb, and
    s1's endpoints lie within 2e-10 of C, s2's within tol + 2e-10."""
    r1, r2 = s1._reach, s2._reach
    if (r1 is not None and r2 is not None and tol <= 1e-6
            and _fangle(r1[0], r2[0]) > r1[1] + r2[1] + 3 * tol + _PRUNE):
        return []
    n1, n2 = s1.pole, s2.pole
    cr = cross(n1, n2)
    lim = math.sin(tol)
    # the poles are unit vectors: |cr| <= 1 and the twin errs by < 1e-15
    r = math.sqrt(_fdot(cr, cr))
    if abs(r - lim) <= _FILTER:
        r = norm(cr)
    if r <= lim:
        # Same great circle (or opposite orientation): interval overlap.
        if abs(dot(n1, s2.a)) > lim:
            return []  # parallel circles cannot happen on a sphere unless equal
        return _collinear_overlap(s1, s2, tol)
    out = []
    u = unit(cr)
    for cand in (u, neg(u)):
        if s1.contains(cand, tol) and s2.contains(cand, tol):
            out.append(cand)
    return out


def meet_only_at_shared_end(s1: GeodesicSegment, s2: GeodesicSegment) -> bool:
    """True only where ``segment_intersection(s1, s2)`` (tol = EPS_SEP) is
    one point within 3e-12 of the one endpoint the arcs share.

    The guards: exactly one endpoint of s1 equals one of s2 by value; both
    lengths lie in [0.1, pi - 0.1]; and r, the plain-float norm of
    cross(s1.pole, s2.pole), is at least 0.01.  r is what
    ``segment_intersection`` compares with sin(tol), so it takes the
    transversal branch, and the broad phase, being sound, returns [] only
    where that branch would.  Each pole is unit(a x b), whose cross product
    errs by < 1e-15 against |a x b| = sin L >= 0.0998, so the shared end P
    lies within 1e-14 of both great circles.  These cross at an angle whose
    sine is r (up to 1e-15), so P lies within 2e-14/0.01 of u or -u, and u
    = unit(cr) errs by < 1e-13: the candidate next to P is within 3e-12 of
    it and passes both ``contains`` tests (|u . pole| < 1e-13 against sin(tol),
    and ta + tb <= L + 6e-12).  The other candidate lies at least pi - 3e-12
    from P, an end of both arcs, so its ta + tb exceeds L + tol by more
    than 0.099 rad.
    """
    a1, b1, a2, b2 = s1.a, s1.b, s2.a, s2.b
    if (a1 == a2) + (a1 == b2) + (b1 == a2) + (b1 == b2) != 1:
        return False
    lo, hi = 0.1, math.pi - 0.1
    if not (lo <= s1.length <= hi and lo <= s2.length <= hi):
        return False
    c = cross(s1.pole, s2.pole)
    return math.sqrt(_fdot(c, c)) >= 0.01


def clear_of_circles(points, targets, poles) -> bool:
    """True only where, by plain floats, each of ``points`` lies more than
    2 EPS_SEP (the chord's sine) from each of its ``targets`` (a list of
    unit points per point) and from their antipodes, and more than 1e-8
    (|p . n|, n a unit normal) from the great circle of each of ``poles``
    and of each chord from another point to one of its targets.  The
    margins lie far above the twins' errors (< 1e-15)."""
    circles = [(-1, n) for n in poles]
    for k, (p, ts) in enumerate(zip(points, targets)):
        for v in ts:
            c = cross(p, v)
            s = math.sqrt(_fdot(c, c))
            if s <= 2 * EPS_SEP:
                return False
            circles.append((k, scale(1 / s, c)))
    return all(abs(_fdot(p, n)) > 1e-8
               for k, p in enumerate(points) for j, n in circles if j != k)


def _collinear_overlap(s1, s2, tol):
    # Parametrize both arcs by angle along s1's circle, measured from s1.a.
    pole = s1.pole
    ref = s1.a
    perp = unit(cross(pole, ref))

    def on_circle(x):
        return unit(add(scale(math.cos(x), ref), scale(math.sin(x), perp)))

    def ang(p):
        return math.atan2(dot(p, perp), dot(p, ref)) % (2 * math.pi)

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
            pieces.append(GeodesicSegment(on_circle(lo), on_circle(hi)))
        elif hi - lo > -tol:
            pieces.append(on_circle((lo + hi) / 2))
    return pieces


def turning_angle(t_in, t_out, at) -> float:
    """Signed exterior angle between tangents at a polygon vertex."""
    return math.atan2(dot(cross(t_in, t_out), at), dot(t_in, t_out))


_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _matmul(m, n) -> tuple:
    """m @ n, each entry the ``dot`` of a row of m and a column of n."""
    cols = tuple(zip(*n))
    return tuple(tuple(dot(row, col) for col in cols) for row in m)


def _axis_terms(axis) -> tuple:
    """(kx, kx @ kx) of the unit axis k, kx the matrix of k x ."""
    k0, k1, k2 = unit(axis)
    kx = ((0.0, -k2, k1), (k2, 0.0, -k0), (-k1, k0, 0.0))
    return kx, _matmul(kx, kx)


def _axis_angle_matrix(kx, kk, angle) -> tuple:
    """Rows of Rodrigues' rotation I + sin(angle) kx + (1 - cos(angle)) kk."""
    s, c = math.sin(angle), 1 - math.cos(angle)
    return tuple(
        tuple((_IDENTITY[i][j] + s * kx[i][j]) + c * kk[i][j] for j in range(3))
        for i in range(3))


@dataclass(frozen=True)
class Rotation:
    """Orientation-preserving isometry of the sphere (det +1 orthogonal matrix).

    ``matrix`` holds the three rows as float tuples.  ``apply`` takes the
    ``dot`` of each row with the point, ``compose`` of each row with each
    column, and ``inverse`` is the transpose.
    """

    matrix: tuple = _IDENTITY

    def __post_init__(self):
        m = tuple(tuple(float(x) for x in row) for row in self.matrix)
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise GeometryError("matrix is not 3 x 3")
        object.__setattr__(self, "matrix", m)
        # the identity, zeros of either sign (see ``apply``)
        object.__setattr__(self, "_identity", m == _IDENTITY)
        # tolerance and sign tests only, so plain float sums suffice
        err = max(abs(m[i][0] * m[j][0] + m[i][1] * m[j][1] + m[i][2] * m[j][2]
                      - _IDENTITY[i][j]) for i in range(3) for j in range(3))
        if not err <= 1e-10:
            raise GeometryError("matrix is not orthogonal")
        (a, b, c), (d, e, f), (g, h, k) = m
        if a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g) < 0:
            raise GeometryError("matrix reverses orientation")

    @staticmethod
    def identity() -> "Rotation":
        return _IDENTITY_ROTATION

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Rotation":
        return Rotation(_axis_angle_matrix(*_axis_terms(axis), angle))

    def _times(self, x) -> tuple:
        m0, m1, m2 = self.matrix
        return (dot(m0, x), dot(m1, x), dot(m2, x))

    def apply(self, x):
        if isinstance(x, GeodesicSegment):
            return GeodesicSegment(self._times(x.a), self._times(x.b))
        if self._identity and type(x) is tuple and x[0] and x[1] and x[2]:
            # each row's dot adds exact +-0 products to its one nonzero x_i,
            # so returns x_i itself; a zero x_i could come back as -0.0 or 0.0
            return unit(x)
        return unit(self._times(x))

    def compose(self, other: "Rotation") -> "Rotation":
        """self after other: (self.compose(other)).apply(p) == self(other(p))."""
        return Rotation(_matmul(self.matrix, other.matrix))

    def inverse(self) -> "Rotation":
        return Rotation(tuple(zip(*self.matrix)))

_IDENTITY_ROTATION = Rotation()


def contact_angles(curve, targets, axis):
    """First contacts of the rotation family R(axis, t) with ``curve``, a list
    of GeodesicSegments, one per point of ``targets``: (t, segment_index) of
    the least t > ``CONTACT_TOL`` (the first arc on a tie) at which
    R(axis, t)^-1(target) meets the great circle of an arc and lies on the
    arc within 10 * EPS_SEP, or None where it never meets the curve.  The
    contact rotation is ``Rotation.from_axis_angle(axis, t)``.

    One search per axis.  With k the unit of -axis, R(-axis, t) p0 is
    cos t p0 + sin t (k x p0) + (1 - cos t)(k.p0) k, so its plane equation
    against an arc's pole is (c0 - c2) cos t + c1 sin t + c2 = 0 with
    c0 = pole.p0, c1 = pole.(k x p0) and c2 = (pole.k)(k.p0).  The axis
    terms and each arc's pole.k are computed once per axis, k x p0 and k.p0
    once per target.  A target's roots over all arcs are tried in
    (t, arc index) order, and the first whose preimage lies on its arc is
    its contact; the preimage's coordinates are the rotation matrix's
    columns, each taken by ``dot`` with p0, as
    ``Rotation.from_axis_angle(axis, t).inverse().apply`` takes them.

    Raises GeometryError if a target lies on the curve (the first such
    target in order)."""
    kx, kk = _axis_terms(axis)
    k = unit(neg(unit(axis)))
    poles = [(seg.pole, dot(seg.pole, k)) for seg in curve]
    tau = 2 * math.pi
    out = []
    for target in targets:
        p0 = unit(target)
        if any(seg.contains(p0) for seg in curve):
            raise GeometryError("target already lies on the curve")
        kp, k_p0 = cross(k, p0), dot(k, p0)
        roots = []
        for idx, (pole, pole_k) in enumerate(poles):
            c2 = pole_k * k_p0
            A, B = dot(pole, p0) - c2, dot(pole, kp)
            r = math.hypot(A, B)
            if r < 1e-15 or abs(c2) > r + 1e-15:
                continue  # no root, or the one root t = 0
            phi = math.atan2(B, A)
            base = math.acos(max(-1.0, min(1.0, -c2 / r)))
            for t in {(phi + base) % tau, (phi - base) % tau}:
                t %= tau
                if t > CONTACT_TOL:
                    roots.append((t, idx))
        roots.sort()
        for t, idx in roots:
            cols = tuple(zip(*_axis_angle_matrix(kx, kk, t)))
            pre = unit(tuple(dot(col, p0) for col in cols))
            if curve[idx].contains(pre, tol=10 * EPS_SEP):
                out.append((t, idx))
                break
        else:
            out.append(None)
    return out
