"""Arrangement of a closed spherical polygonal curve plus scaffold edges.

The base complex is an oriented planar map on the sphere: vertices with
geometric positions, undirected edges encoded as dart pairs, an explicit
counterclockwise rotation system per vertex, and faces traced from it.
CURVE edges carry honest geodesic geometry; SCAFFOLD edges are auxiliary
(tips for special points, transient chords) and matter combinatorially.

Darts: edge e yields darts 2e (a -> b) and 2e+1 (b -> a); reversal is ^1.
Faces lie on the LEFT of the darts in their boundary cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .geometry import (
    EPS_SEP,
    GeodesicSegment,
    PointRegistry,
    Rotation,
    angle_between,
    antipodal,
    clear_of_circles,
    cross,
    dot,
    first_within,
    float_sum,
    locate_on_arcs,
    meet_only_at_shared_end,
    neg,
    points_coincide,
    segment_intersection,
    tangent_frame,
    turning_angle,
    unit,
    wedge_index,
)

CURVE = "curve"
SCAFFOLD = "scaffold"

FULL_SPHERE = 4 * math.pi


class ArrangementError(ValueError):
    pass


class OverlappingInput(ArrangementError):
    """Two input segments share a subarc and are not exact +- duplicates."""


class TooManySegments(ArrangementError):
    pass


class ScaffoldBlocked(ArrangementError):
    """No crossing-free geodesic from an interior point to the face boundary."""


@dataclass(frozen=True)
class SpecialSet:
    """The q >= 3 distinguished points a_1..a_q."""

    points: tuple

    def __post_init__(self):
        pts = tuple(unit(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 3:
            raise ArrangementError("special set needs q >= 3 points")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if points_coincide(pts[i], pts[j]):
                    raise ArrangementError("special points %d and %d coincide" % (i, j))

    @property
    def q(self) -> int:
        return len(self.points)

    def labels(self):
        return ["a%d" % (i + 1) for i in range(len(self.points))]


@dataclass(frozen=True)
class CurveInput:
    """Closed polygonal curve given by its cyclic vertex list."""

    points: tuple
    max_segments: int = 64

    def __post_init__(self):
        pts = tuple(unit(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        k = len(pts)
        if k < 2:
            raise ArrangementError("curve needs at least 2 points")
        if k > self.max_segments:
            raise TooManySegments("curve has %d segments > %d" % (k, self.max_segments))
        for i in range(k):
            a, b = pts[i], pts[(i + 1) % k]
            if points_coincide(a, b):
                raise ArrangementError("consecutive curve points %d, %d coincide" % (i, (i + 1) % k))
            if antipodal(a, b):
                raise ArrangementError("consecutive curve points %d, %d are antipodal" % (i, (i + 1) % k))

    # Cached in the instance __dict__ (which a frozen dataclass still has);
    # the points are immutable tuples, so it never goes stale.
    @cached_property
    def segments(self) -> tuple:
        k = len(self.points)
        return tuple(GeodesicSegment(self.points[i], self.points[(i + 1) % k]) for i in range(k))

    @cached_property
    def ends_apart(self) -> bool:
        """Whether the arcs' distinct ends lie pairwise more than 1e-6 apart."""
        ends = list(dict.fromkeys(s.a for s in self.segments))
        return all(first_within(x, ends[:i], 1e-6) is None for i, x in enumerate(ends))

    @cached_property
    def meetings(self) -> tuple:
        """(i, j, segment_intersection(arc i, arc j)) for each pair of arcs
        i < j where that list is not empty, leaving out, where ``ends_apart``,
        the pairs that ``meet_only_at_shared_end``: the meetings that
        ``build_curve_graph`` registers beside the arcs' ends."""
        segs = self.segments
        out = []
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if self.ends_apart and meet_only_at_shared_end(segs[i], segs[j]):
                    continue
                hits = segment_intersection(segs[i], segs[j])
                if hits:
                    out.append((i, j, hits))
        return tuple(out)

    def face_count(self):
        """The faces of the arrangement, E - V + 2 of ``build_curve_graph``'s
        graph, for special and marker points that lie on no arc; or None
        where that is not known exact.

        Where ``ends_apart`` holds and the arcs have no ``meetings``, the
        graph registers the distinct ends and nothing else, each under its
        own id, and has one edge per distinct pair of ends of an arc."""
        if not self.ends_apart or self.meetings:
            return None
        segs = self.segments
        pairs = {frozenset((s.a, s.b)) for s in segs}
        return len(pairs) - len({s.a for s in segs}) + 2


@dataclass
class Edge:
    a: int
    b: int
    kind: str
    length: float


@dataclass
class Face:
    cycle: list  # darts, face on the left of each
    area: float


class BaseComplex:
    """Planar spherical map: vertices, dart-encoded edges, rotation system, faces.

    Cache rule: ``dart_segment`` and ``dart_tangent`` keep each dart's result
    together with the tail and head vertex tuples it was built from, and reuse
    it only while both are still the same objects.  Points are immutable
    tuples, so a vertex only moves by replacing its entry (``vertices[v] =
    p``), and a returned segment or tangent is shared.  ``copy`` shares the
    vertex tuples and starts with empty caches.  ``build_curve_graph`` seeds
    a curve edge's forward dart with the segment it measured the edge by,
    where ``unit`` fixes both stored vertices bit for bit: that segment's
    ends are those vertices, so it is the one ``dart_segment`` would build.
    """

    def __init__(self):
        self.vertices = []  # (x, y, z) tuples or None (deleted)
        self.fans = []  # per vertex: darts leaving it, ccw cyclic order
        self.edges = []  # Edge or None
        self.faces = []  # Face or None
        self.specials = {}  # vertex id -> label
        self.markers = set()  # fixture branch anchors (scaffolded like specials)
        self.traversal = []  # input curve as a dart word (may be empty)
        self.meta = {}
        self._dart_face = None
        self._segments = {}  # dart -> (tail, head, GeodesicSegment)
        self._tangents = {}  # dart -> (tail, head, tangent at tail)

    # -- dart helpers ------------------------------------------------------

    def tail(self, d: int) -> int:
        e = self.edges[d >> 1]
        return e.a if d % 2 == 0 else e.b

    def head(self, d: int) -> int:
        return self.tail(d ^ 1)

    def kind(self, d: int) -> str:
        return self.edges[d >> 1].kind

    def length(self, d: int) -> float:
        return self.edges[d >> 1].length

    def _per_dart(self, cache, d, build):
        """build(tail, head) of dart d, cached by the class's rule."""
        ed = self.edges[d >> 1]
        v, w = self.vertices[ed.a], self.vertices[ed.b]
        if d & 1:
            v, w = w, v
        hit = cache.get(d)
        if hit is not None and hit[0] is v and hit[1] is w:
            return hit[2]
        out = build(v, w)
        cache[d] = (v, w, out)
        return out

    def dart_segment(self, d: int) -> GeodesicSegment:
        return self._per_dart(self._segments, d, GeodesicSegment)

    def live_edges(self):
        return [e for e in range(len(self.edges)) if self.edges[e] is not None]

    def live_faces(self):
        return [f for f in range(len(self.faces)) if self.faces[f] is not None]

    def live_vertices(self):
        return [v for v in range(len(self.vertices)) if self.vertices[v] is not None]

    # -- derived incidence -------------------------------------------------

    def _invalidate(self):
        self._dart_face = None

    def _index_darts(self):
        df = {}
        for f in self.live_faces():
            for d in self.faces[f].cycle:
                if d in df:
                    raise ArrangementError("dart %d appears in two face cycles" % d)
                df[d] = f
        self._dart_face = df

    def face_of_dart(self, d: int) -> int:
        if self._dart_face is None:
            self._index_darts()
        return self._dart_face[d]

    def left_face(self, d: int) -> int:
        return self.face_of_dart(d)

    def special_tips_by_face(self):
        """{face: [special scaffold tips hanging inside it]}."""
        tips = {}
        for v in self.specials:
            fan = self.fans[v]
            if len(fan) == 1 and self.kind(fan[0]) == SCAFFOLD:
                tips.setdefault(self.face_of_dart(fan[0]), []).append(v)
        return tips

    def _face_successors(self, vertices) -> dict:
        """The rotation system's successor map over the fans of ``vertices``:
        {d: the next dart of d's left face}, the dart before d ^ 1 in its fan."""
        nxt = {}
        for v in vertices:
            fan = self.fans[v]
            if fan:
                before = fan[-1]
                for d in fan:
                    nxt[d ^ 1] = before
                    before = d
        return nxt

    def trace_faces(self):
        """Recompute face cycles from the rotation system (areas not assigned):
        one per dart not yet traced, in fan order of the live vertices.

        A walk takes at most as many steps as the successor map has darts;
        one that has not closed by then (a fan that lists a dart twice) is
        refused."""
        vertices = self.live_vertices()
        nxt = self._face_successors(vertices)
        seen = set()
        cycles = []
        for v in vertices:
            for d in self.fans[v]:
                if d in seen:
                    continue
                cyc, cur = [], d
                for _ in range(len(nxt)):
                    cyc.append(cur)
                    cur = nxt.get(cur)
                    if cur == d:
                        break
                else:
                    raise ArrangementError("the face walk from dart %d does not close" % d)
                seen.update(cyc)
                cycles.append(cyc)
        return cycles

    def euler_check(self, v=None, e=None, f=None):
        """V - E + F == 2, from the given counts of live ids, else from the live ids."""
        if v is None:
            v, e, f = len(self.live_vertices()), len(self.live_edges()), len(self.live_faces())
        if v - e + f != 2:
            raise ArrangementError("Euler formula violated: V-E+F = %d" % (v - e + f))

    def check(self):
        """Structural consistency: fans vs edges, stored cycles vs the rotation
        system, Euler, finite non-negative edge lengths, finite positive face
        areas summing to 4pi.

        The stored cycles are compared with the successor map in one pass:
        each stored successor is the map's, no cycle lists a dart twice, and
        the stored darts cover the map.  A cycle stored by two faces is
        refused after the Euler test, which already refuses it when the
        rotation system is a sphere's."""
        vertices, edges, faces = self.live_vertices(), self.live_edges(), self.live_faces()
        listed = 0
        for v in vertices:
            fan = self.fans[v]
            listed += len(fan)
            for d in fan:
                # a negative dart would index an edge from the end of the list
                if d < 0:
                    raise ArrangementError("fan of %d holds negative dart %d" % (v, d))
                ed = self.edges[d >> 1]
                if ed is None:
                    raise ArrangementError("fan of %d holds dead dart %d" % (v, d))
                tail = ed.b if d & 1 else ed.a
                if tail != v:
                    raise ArrangementError("dart %d in fan of %d has tail %d" % (d, v, tail))
        # every dart listed is a live dart (one past the last edge raised IndexError)
        # and leaves its own fan, so each gives the map one key
        nxt = self._face_successors(vertices)
        if len(nxt) < listed:
            v, d = next((v, d) for v in vertices for i, d in enumerate(self.fans[v])
                        if d in self.fans[v][:i])
            raise ArrangementError("fan of %d lists dart %d twice" % (v, d))
        if len(nxt) < 2 * len(edges):
            d = next(d for e in edges for d in (2 * e, 2 * e + 1) if d ^ 1 not in nxt)
            raise ArrangementError("dart %d missing from fan" % d)
        # now the map is a permutation of the live darts: a cycle whose first dart
        # is a key and whose successors are the map's holds keys only, and if it
        # lists a dart twice, it lists its first dart twice
        seen, stored = set(), 0
        for f in faces:
            cyc = self.faces[f].cycle
            if (not cyc or cyc[0] not in nxt or cyc.count(cyc[0]) > 1
                    or list(map(nxt.get, cyc)) != cyc[1:] + cyc[:1]):
                raise ArrangementError("stored face cycles disagree with rotation system")
            seen.update(cyc)
            stored += len(cyc)
        if len(seen) < len(nxt):
            raise ArrangementError("stored face cycles disagree with rotation system")
        self.euler_check(len(vertices), len(edges), len(faces))
        if len(seen) < stored:
            raise ArrangementError("two faces store one face cycle")
        lengths = [self.edges[e].length for e in edges]
        if not (all(map(math.isfinite, lengths)) and min(lengths, default=0.0) >= 0):
            raise ArrangementError("edge length is not finite and non-negative")
        areas = [self.faces[f].area for f in faces]
        if not (all(map(math.isfinite, areas)) and min(areas, default=1.0) > 0):
            raise ArrangementError("face area is not finite and positive")
        total = float_sum(areas)
        if abs(total - FULL_SPHERE) > 1e-9:
            raise ArrangementError("face areas sum to %r, not 4pi" % total)

    # -- geometry-backed queries -------------------------------------------

    def vertex_at(self, p, tol=EPS_SEP):
        """The first live vertex within tol of p (``first_within``), or None."""
        return first_within(p, self.vertices, tol)

    def dart_tangent(self, d: int) -> tuple:
        return self._per_dart(self._tangents, d, _tangent_at_tail)

    def azimuth_order(self, v: int, darts):
        e1, e2 = tangent_frame(self.vertices[v])
        def az(d):
            t = self.dart_tangent(d)
            return math.atan2(dot(t, e2), dot(t, e1))
        return sorted(darts, key=az)

    def locate_point(self, p):
        """Classify p against the complex: ('vertex', v) | ('edge', e, t) | ('face', f).

        Snapping priority vertex > edge > face at EPS_SEP.  Only CURVE edges
        give edge hits and decide the side; SCAFFOLD edges are always
        skipped, whether their embedding is honest or nominal, so a point on
        a bridge is located in the face the bridge hangs in.  The nearest
        curve feature decides the face (``locate_on_arcs``): a side of an
        arc, or the wedge at an end vertex that the direction toward p
        enters between its curve darts (``wedge_index``; scaffold edges
        never separate faces at a vertex).
        """
        p = unit(p)
        v = self.vertex_at(p)
        if v is not None:
            return ("vertex", v)
        edges = [e for e in self.live_edges() if self.edges[e].kind == CURVE]
        if not edges:
            raise ArrangementError("complex has no curve edges")
        kind, i, x = locate_on_arcs([self.dart_segment(2 * e) for e in edges], p)
        e = edges[i]
        if kind == "on":
            return ("edge", e, x)
        if kind == "side":
            return ("face", self.left_face(2 * e if x else 2 * e + 1))
        v = self.edges[e].a if x == "a" else self.edges[e].b
        fan = [d for d in self.fans[v] if self.kind(d) == CURVE]
        i = wedge_index(self.vertices[v], p, [self.dart_tangent(d) for d in fan])
        return ("face", self.left_face(fan[i]))

    # -- combinatorial edits (used by surgery) ------------------------------

    def new_vertex(self, p) -> int:
        self.vertices.append(unit(p))
        self.fans.append([])
        return len(self.vertices) - 1

    def _new_edge(self, a, b, kind, length) -> int:
        self.edges.append(Edge(a, b, kind, length))
        return len(self.edges) - 1

    def _new_face(self, cycle, area) -> int:
        self.faces.append(Face(list(cycle), area))
        return len(self.faces) - 1

    def split_edge(self, e: int, p) -> tuple:
        """Split edge e at point p into e1 (tail side) and e2 (head side).

        Face cycles and fans are rewired.  Returns the new vertex and the
        replacement darts in cycle order, as {old dart: [new darts]}.
        """
        ed = self.edges[e]
        x = self.new_vertex(p)
        la = angle_between(self.vertices[ed.a], p)
        lb = angle_between(self.vertices[ed.b], p)
        e1 = self._new_edge(ed.a, x, ed.kind, la)
        e2 = self._new_edge(x, ed.b, ed.kind, lb)
        d_fwd, d_rev = 2 * e, 2 * e + 1
        rep = {d_fwd: [2 * e1, 2 * e2], d_rev: [2 * e2 + 1, 2 * e1 + 1]}
        for f in self.live_faces():
            cyc = self.faces[f].cycle
            out = []
            for d in cyc:
                out.extend(rep.get(d, [d]))
            self.faces[f].cycle = out
        self.fans[ed.a][self.fans[ed.a].index(d_fwd)] = 2 * e1
        self.fans[ed.b][self.fans[ed.b].index(d_rev)] = 2 * e2 + 1
        self.fans[x] = [2 * e2, 2 * e1 + 1]
        self.edges[e] = None
        self._invalidate()
        return x, rep

    def add_bridge(self, face: int, attach_vertex: int, corner_pos: int, tip_point) -> tuple:
        """Attach a dangling SCAFFOLD edge from a boundary corner into the face.

        ``corner_pos`` indexes the face cycle: the new slit is inserted at the
        corner before dart ``cycle[corner_pos]`` (whose tail must be
        ``attach_vertex``).  Returns (tip vertex, edge id).
        """
        cyc = self.faces[face].cycle
        if self.tail(cyc[corner_pos]) != attach_vertex:
            raise ArrangementError("corner does not sit at the attachment vertex")
        t = self.new_vertex(tip_point)
        e = self._new_edge(attach_vertex, t, SCAFFOLD,
                           angle_between(self.vertices[attach_vertex], tip_point))
        d_out, d_in = 2 * e, 2 * e + 1
        self.faces[face].cycle = cyc[:corner_pos] + [d_out, d_in] + cyc[corner_pos:]
        # The corner before cycle[corner_pos] is the fan wedge starting at that
        # dart and running ccw; the new dart lands inside it.
        fan = self.fans[attach_vertex]
        fan.insert(fan.index(cyc[corner_pos]) + 1, d_out)
        self.fans[t] = [d_in]
        self._invalidate()
        return t, e

    def insert_chord(self, face: int, pos_a: int, pos_b: int) -> tuple:
        """Insert a SCAFFOLD chord between the corners before cycle[pos_a] and
        cycle[pos_b].

        Splits ``face`` into two; returns (edge id, face id containing old
        cycle[pos_a] tail side, other face id).  The edge's forward dart runs
        from tail(cycle[pos_a]) to tail(cycle[pos_b]).  The parent area splits
        evenly (functionals only consume counts times total area).
        """
        cyc = self.faces[face].cycle
        if pos_a == pos_b:
            raise ArrangementError("chord endpoints coincide")
        va, vb = self.tail(cyc[pos_a]), self.tail(cyc[pos_b])
        ln = angle_between(self.vertices[va], self.vertices[vb]) if va != vb else 0.0
        e = self._new_edge(va, vb, SCAFFOLD, ln)
        d_ab, d_ba = 2 * e, 2 * e + 1
        if pos_a < pos_b:
            cyc_a = [d_ba] + cyc[pos_a:pos_b]
            cyc_b = [d_ab] + cyc[pos_b:] + cyc[:pos_a]
        else:
            cyc_a = [d_ba] + cyc[pos_a:] + cyc[:pos_b]
            cyc_b = [d_ab] + cyc[pos_b:pos_a]
        area = self.faces[face].area
        fa = self._new_face(cyc_a, area / 2)
        fb = self._new_face(cyc_b, area - area / 2)
        self.faces[face] = None
        self.fans[va].insert(self.fans[va].index(cyc[pos_a]) + 1, d_ab)
        self.fans[vb].insert(self.fans[vb].index(cyc[pos_b]) + 1, d_ba)
        self._invalidate()
        return e, fa, fb

    def delete_edge_merge(self, e: int) -> int:
        """Delete edge e whose sides lie in two distinct faces; merge them.

        Returns the merged face id.
        """
        d, dr = 2 * e, 2 * e + 1
        fa, fb = self.face_of_dart(d), self.face_of_dart(dr)
        if fa == fb:
            raise ArrangementError("edge %d has one face on both sides" % e)
        ca, cb = self.faces[fa].cycle, self.faces[fb].cycle
        ia, ib = ca.index(d), cb.index(dr)
        merged = ca[ia + 1:] + ca[:ia] + cb[ib + 1:] + cb[:ib]
        area = self.faces[fa].area + self.faces[fb].area
        f = self._new_face(merged, area)
        self.faces[fa] = None
        self.faces[fb] = None
        for dd in (d, dr):
            self.fans[self.tail(dd)].remove(dd)
        self.edges[e] = None
        self._invalidate()
        return f

    def absorb_tip(self, tip: int, target: int, first=None) -> None:
        """Delete the scaffold tip ``tip`` with its slit; ``target`` takes the
        tip's special label.

        The slit's face cycle loses the two slit darts and starts at dart
        ``first`` when one is given, else keeps its order.
        """
        d_in = self.fans[tip][0]
        e = d_in >> 1
        face = self.face_of_dart(d_in)
        cyc = [d for d in self.faces[face].cycle if d >> 1 != e]
        if first is not None:
            i = cyc.index(first)
            cyc = cyc[i:] + cyc[:i]
        self.faces[face].cycle = cyc
        self.fans[self.head(d_in)].remove(d_in ^ 1)
        self.fans[tip] = []
        label = self.specials.pop(tip, None)
        self.markers.discard(tip)
        self.vertices[tip] = None
        self.edges[e] = None
        if label is not None:
            self.specials[target] = label
        self._invalidate()

    def rotated(self, r: Rotation) -> "BaseComplex":
        """Geometric image under a rotation (combinatorics untouched)."""
        out = self.copy()
        for v in out.live_vertices():
            out.vertices[v] = r.apply(out.vertices[v])
        return out

    def copy(self) -> "BaseComplex":
        out = BaseComplex()
        out.vertices = list(self.vertices)
        out.fans = [list(f) for f in self.fans]
        out.edges = [None if e is None else Edge(e.a, e.b, e.kind, e.length) for e in self.edges]
        out.faces = [None if f is None else Face(list(f.cycle), f.area) for f in self.faces]
        out.specials = dict(self.specials)
        out.markers = set(self.markers)
        out.traversal = list(self.traversal)
        out.meta = dict(self.meta)
        return out


def _tangent_at_tail(v, w) -> tuple:
    """Unit tangent at v of the great-circle arc from v toward w."""
    return unit(cross(cross(v, w), v))


def _same_bits(p, q) -> bool:
    """p == q, with the sign of each zero coordinate equal too (``all(p)``:
    p has no zero coordinate)."""
    return p == q and (all(p) or all(math.copysign(1.0, x) == math.copysign(1.0, y)
                                     for x, y in zip(p, q)))


def build_arrangement(curve: CurveInput, special: SpecialSet, markers=()) -> BaseComplex:
    """Arrangement of the curve: split at mutual crossings and at special or
    marker points lying on it; faces traced with Gauss-Bonnet areas.

    The composition of ``build_curve_graph`` and ``build_faces``.  Off-curve
    special/marker points are recorded for attach_scaffold.
    """
    return build_faces(build_curve_graph(curve, special, markers))


def build_curve_graph(curve: CurveInput, special: SpecialSet, markers=()) -> BaseComplex:
    """First phase of ``build_arrangement``: the registry, the intersections
    and the edges, with no fans or faces yet.

    Every special and marker point waits in ``meta["pending_interior_points"]``
    for ``build_faces``.  An arrangement that completes passes
    ``euler_check``, and ``build_faces`` adds no vertex or edge, so its face
    count is E - V + 2 of this graph: a caller can refuse on the face count
    before the faces are traced, or before this graph where
    ``curve.face_count()`` knows it.  The arcs' meetings come from
    ``curve.meetings``, computed once per curve.
    """
    segs = curve.segments
    tagged = list(zip(special.points, special.labels())) + [(unit(m), None) for m in markers]

    reg = PointRegistry(2 * EPS_SEP)
    register, points = reg.key, reg.points

    seg_pts = [dict() for _ in segs]  # param -> point id
    for i, s in enumerate(segs):
        seg_pts[i][0.0] = register(s.a)
        seg_pts[i][1.0] = register(s.b)
    # Where the curve's distinct vertices lie pairwise more than 1e-6 apart
    # (``ends_apart``), each is stored as itself (up to rounding) under an id
    # that comes before every crossing's, and no other stored point lies
    # within 2 EPS_SEP of it.  So the point that segment_intersection returns
    # for two arcs meeting only at a shared end, within 3e-12 of it, registers
    # nothing and gets that end's id, and any parameter key it adds next to 0
    # or 1 carries the same id: the edges between distinct consecutive ids do
    # not change.  ``curve.meetings`` leaves those pairs out.
    for i, j, hits in curve.meetings:
        for h in hits:
            if isinstance(h, GeodesicSegment):
                same = points_coincide(segs[i].a, segs[j].a) and points_coincide(segs[i].b, segs[j].b)
                antv = points_coincide(segs[i].a, segs[j].b) and points_coincide(segs[i].b, segs[j].a)
                if not (same or antv):
                    raise OverlappingInput("segments %d and %d share a subarc" % (i, j))
                continue
            pid = register(h)
            ti, tj = segs[i].param_of(h, 1e-8), segs[j].param_of(h, 1e-8)
            if ti is not None:
                seg_pts[i][round(ti, 12)] = pid
            if tj is not None:
                seg_pts[j][round(tj, 12)] = pid
    for p, _lab in tagged:
        for i, s in enumerate(segs):
            t = s.param_of(p)
            if t is not None:
                seg_pts[i][round(t, 12)] = register(p)

    bc = BaseComplex()
    vid = {}
    for pid, p in enumerate(points):
        vid[pid] = bc.new_vertex(p)
    # An edge's segment GeodesicSegment(points[pa], points[pb]) has the ends
    # unit(points[pa]) and unit(points[pb]), the vertices new_vertex stored:
    # where these are the input arc's ends bit for bit, it is that arc.
    # Where unit fixes both vertices, ``dart_segment`` would build the same
    # segment again, so it is seeded into the dart cache.
    fixed = [_same_bits(unit(q), q) for q in bc.vertices]

    edge_lookup = {}  # frozenset(point ids) -> edge id (dedup of +- duplicates)
    traversal = []
    for i, s in enumerate(segs):
        ts = sorted(seg_pts[i])
        for k in range(len(ts) - 1):
            pa, pb = seg_pts[i][ts[k]], seg_pts[i][ts[k + 1]]
            if pa == pb:
                continue
            key = frozenset((pa, pb))
            if key in edge_lookup:
                e = edge_lookup[key]
                traversal.append(2 * e if bc.edges[e].a == vid[pa] else 2 * e + 1)
                continue
            va, vb = vid[pa], vid[pb]
            tail, head = bc.vertices[va], bc.vertices[vb]
            if _same_bits(tail, s.a) and _same_bits(head, s.b):
                seg = s
            else:
                seg = GeodesicSegment(points[pa], points[pb])
            e = bc._new_edge(va, vb, CURVE, seg.length)
            if fixed[va] and fixed[vb]:
                bc._segments[2 * e] = (tail, head, seg)
            edge_lookup[key] = e
            traversal.append(2 * e)
    bc.traversal = traversal
    bc.meta["pending_interior_points"] = tagged
    return bc


def build_faces(bc: BaseComplex) -> BaseComplex:
    """Second phase of ``build_arrangement``, in place: fans, faces with
    their areas, and the tags.

    Refuses an isolated vertex, a face of non-positive area and areas not
    summing to 4pi.  Pending points on the curve become special or marker
    vertices; the others stay pending for attach_scaffold.
    """
    # each vertex's forward darts in edge order, then its reverse darts
    fwd, rev = [[] for _ in bc.vertices], [[] for _ in bc.vertices]
    for e in bc.live_edges():
        fwd[bc.edges[e].a].append(2 * e)
        rev[bc.edges[e].b].append(2 * e + 1)
    for v in bc.live_vertices():
        darts = fwd[v] + rev[v]
        if not darts:
            raise ArrangementError("isolated curve vertex %d" % v)
        bc.fans[v] = bc.azimuth_order(v, darts)

    for cyc in bc.trace_faces():
        area = 2 * math.pi - _cycle_turning(bc, cyc)
        area %= FULL_SPHERE
        if area <= 0:
            raise ArrangementError("face with non-positive area")
        bc._new_face(cyc, area)

    total = float_sum(bc.faces[f].area for f in bc.live_faces())
    if abs(total - FULL_SPHERE) > 1e-9:
        raise ArrangementError("areas sum to %r instead of 4pi" % total)

    pending = []
    for p, lab in bc.meta["pending_interior_points"]:
        v = bc.vertex_at(p)
        if v is not None:
            if lab is None:
                bc.markers.add(v)
            else:
                bc.specials[v] = lab
        else:
            pending.append((p, lab))
    bc.meta["pending_interior_points"] = pending
    bc.euler_check()
    return bc


def _cycle_turning(bc: BaseComplex, cyc) -> float:
    total = 0.0
    for k, d in enumerate(cyc):
        nxt = cyc[(k + 1) % len(cyc)]
        t_in = neg(bc.dart_tangent(d ^ 1))
        t_out = bc.dart_tangent(nxt)
        turn = turning_angle(t_in, t_out, bc.vertices[bc.tail(nxt)])
        if nxt == (d ^ 1):
            # dead-end reversal: the face wraps around the tip, interior
            # angle 2*pi, exterior angle exactly -pi
            turn = -math.pi
        total += turn
    return total


def attach_scaffold(bc: BaseComplex) -> BaseComplex:
    """Bridge every interior special/marker point to a curve-arrangement vertex.

    Each pending point becomes a degree-1 vertex hanging inside its face on a
    SCAFFOLD edge; faces stay disks with unchanged areas.  A visible geodesic
    to the nearest vertex is preferred; when every view is blocked the nearest
    vertex is used with a nominal embedding (bridges are auxiliary and never
    enter a functional).

    The composition, on a copy, of ``locate_pending`` and ``attach_bridges``,
    so every point is located, and refused if it is not strictly inside a
    face or its face has no attachable vertex, before the first bridge is
    built.
    """
    out = bc.copy()
    attach_bridges(out, locate_pending(out))
    return out


def _attachable(bc: BaseComplex, cycle) -> set:
    """Vertices of a face cycle a bridge may attach to: not special, not a marker."""
    return {bc.tail(d) for d in cycle} - bc.specials.keys() - bc.markers


def locate_pending(bc: BaseComplex) -> list:
    """The face of each pending interior point, in order, before any bridge.

    Refuses (ScaffoldBlocked) a point that is not strictly inside a face and a
    face with no attachable vertex, as attach_scaffold always has.  A bridge
    is a SCAFFOLD edge, which ``locate_point`` skips, and keeps every face id
    and every attachable vertex, so locating against the bridgeless complex
    gives each point the answer it got after the earlier bridges.  The one
    thing a bridge adds that ``locate_point`` sees is its tip, a vertex at
    the earlier point: a point within EPS_SEP of an earlier one is refused
    here, as ``vertex_at`` refused it there.
    """
    faces, earlier = [], []  # the unit vectors of the points located so far
    for p, _lab in bc.meta.get("pending_interior_points", []):
        loc = bc.locate_point(p)
        u = unit(p)
        if loc[0] != "face" or any(points_coincide(q, u) for q in earlier):
            raise ScaffoldBlocked("interior point is not strictly inside a face")
        if not _attachable(bc, bc.faces[loc[1]].cycle):
            raise ScaffoldBlocked("face has no attachable vertex")
        faces.append(loc[1])
        earlier.append(u)
    return faces


def attach_bridges(bc: BaseComplex, faces) -> None:
    """Bridge each pending point into its face from ``locate_pending``, in place."""
    for (p, lab), f in zip(bc.meta.pop("pending_interior_points", []), faces):
        cyc = bc.faces[f].cycle
        cands = sorted(_attachable(bc, cyc),
                       key=lambda v: (angle_between(bc.vertices[v], p), v))
        v_pick = next((v for v in cands if _segment_clear(bc, p, v)), cands[0])
        try:
            corner = _corner_pos_toward(bc, f, v_pick, p)
        except ScaffoldBlocked:
            corner = next(pos for pos, d in enumerate(cyc) if bc.tail(d) == v_pick)
        t, _e = bc.add_bridge(f, v_pick, corner, p)
        if lab is None:
            bc.markers.add(t)
        else:
            bc.specials[t] = lab
    bc.check()


def bridges_cannot_fail(bc: BaseComplex, faces) -> bool:
    """True if ``attach_bridges(bc, faces)`` cannot raise; False if undecided.

    With ``faces`` from ``locate_pending``, only geometry near a degeneracy
    is left to raise.  ``clear_of_circles`` excludes it, with each point's
    targets the attachable vertices of its face and the poles those of the
    edges: its margins lie far above rounding, so no probe or bridge
    segment is degenerate, no tangent at a bridge reaches ``unit``'s 1e-15
    floor, and since a probe runs on a circle through its point,
    ``segment_intersection`` never takes it for collinear with an edge.

    Curve segments and tangents were built by ``build_faces`` and
    ``locate_pending``.  ``add_bridge`` gets a corner at the picked vertex.
    ``check`` holds: a bridge puts its dart pair into one face cycle and the
    matching fan wedge, so the fans still trace the stored cycles and V - E
    + F stays 2; its length is an angle; faces and areas do not change.
    """
    pending = bc.meta.get("pending_interior_points", [])
    return clear_of_circles([p for p, _lab in pending],
                            [[bc.vertices[v] for v in _attachable(bc, bc.faces[f].cycle)]
                             for f in faces],
                            [bc.dart_segment(2 * e).pole for e in bc.live_edges()])


def _segment_clear(bc: BaseComplex, p, v) -> bool:
    """True if the geodesic p -> vertex v touches the complex only at v."""
    pv = bc.vertices[v]
    if points_coincide(p, pv):
        return False
    if antipodal(p, pv):
        return False
    probe = GeodesicSegment(p, pv)
    end = probe.b
    for e in bc.live_edges():
        seg = bc.dart_segment(2 * e)
        # an edge met only at the probe's own end passes the test below
        if (seg.a == end or seg.b == end) and meet_only_at_shared_end(probe, seg):
            continue
        for h in segment_intersection(probe, seg):
            if isinstance(h, GeodesicSegment):
                return False
            if not points_coincide(h, pv):
                return False
    for w in bc.live_vertices():
        if w != v and probe.contains(bc.vertices[w]):
            return False
    return True


def _corner_pos_toward(bc: BaseComplex, f: int, v: int, p) -> int:
    """Position in face f's cycle of the corner at v whose wedge contains p's direction."""
    pv = bc.vertices[v]
    t = unit(cross(cross(pv, p), pv))
    cyc = bc.faces[f].cycle
    e1, e2 = tangent_frame(pv)

    def az(vec):
        return math.atan2(dot(vec, e2), dot(vec, e1)) % (2 * math.pi)

    best = None
    for pos, d in enumerate(cyc):
        if bc.tail(d) != v:
            continue
        out_t = bc.dart_tangent(d)
        in_t = bc.dart_tangent(cyc[pos - 1] ^ 1)
        # wedge spans ccw from the outgoing dart to the reversed incoming dart
        span = (az(in_t) - az(out_t)) % (2 * math.pi)
        if span == 0.0:
            span = 2 * math.pi
        off = (az(t) - az(out_t)) % (2 * math.pi)
        if off <= span and (best is None or span < best[0]):
            best = (span, pos)
    if best is None:
        raise ScaffoldBlocked("no corner of the face at the attachment vertex sees the point")
    return best[1]
