"""Covering surfaces as face copies over a base complex with a side pairing.

A *side* is one directed boundary edge of one face copy, addressed as
``(copy, pos)`` where ``pos`` indexes the base face's boundary cycle.  The
pairing is a fixed-point-free involution matching sides over the same base
edge with opposite directions; unpaired sides are *free* and concatenate
into the boundary walk(s).

A *corner* reuses the ``(copy, pos)`` address: the corner of that copy at
``tail(cycle[pos])``, between the incoming side ``(copy, pos-1)`` and the
outgoing side ``(copy, pos)``.  Vertex preimages ("vertex sheets") are the
orbits of corners under rotation across paired sides; a chain (cut by free
sides) is a boundary sheet, a cycle an interior one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrangement import CURVE, SCAFFOLD, BaseComplex
from .geometry import GeodesicSegment, PointRegistry, Rotation, float_sum, points_coincide

DISK = "disk"
ANNULUS = "annulus"
CLOSED = "closed"

FOUR_PI = 4 * math.pi
SUBARC_TOL = 1e-7  # point identification in the geometric closed-subarc check


class SurfaceError(ValueError):
    pass


class InvalidSurface(SurfaceError):
    pass


@dataclass
class VertexSheet:
    """One preimage of a base vertex: a corner orbit with its local data."""

    index: int
    vertex: int
    corners: tuple
    interior: bool
    ell: int          # corners in the orbit
    fan: int          # corners in one full turn of the base fan
    degree: int       # exponent of the local normal form
    multiplicity: int # v_f
    folded: bool
    special: bool
    in_side: tuple = None   # free side arriving at a boundary sheet
    out_side: tuple = None  # free side leaving it

    @property
    def branch_index(self) -> int:
        return self.multiplicity - 1

    @property
    def is_branch(self) -> bool:
        return self.multiplicity >= 2


@dataclass
class BoundaryWalk:
    """One boundary component: free sides in order and their dart word."""

    sides: tuple
    darts: tuple
    length: float

    def __len__(self):
        return len(self.sides)


@dataclass
class FunctionalReport:
    area: float
    boundary_length: float
    n_bar: dict              # special label -> interior preimage count
    n_point: dict            # special label -> n(f, a) with the boundary correction
    n_face: dict             # base face id -> number of copies
    n_component: dict        # component id -> covering number
    components: dict         # component id -> tuple of face ids
    n_bar_special: int
    b_special: int
    b_nonspecial: int
    reduced_area: float
    ratio: float             # H = R/L, None when the boundary is empty
    covering_sum: int
    topology: str
    degree: int              # CLOSED only, else None
    sheets: list
    flags: list


class SurfaceComplex:
    """Face copies over a base with an orientation-reversing side pairing.

    ``_cache`` holds the tables derived from the copies, the pairing and the
    base's combinatorics (cycles, fans, edge kinds, lengths and areas): the
    free sides, ``sheets``, ``walks``, ``multiplicities``, ``n_face``,
    ``components`` and the ``functionals`` report.  Each is computed once per
    state; a cached value is shared by every caller, who must not modify it.
    ``free_sides`` alone returns a fresh list each call, which a caller may
    reorder.  ``add_copy``, ``pair`` and ``unpair`` invalidate the cache,
    and ``rotated`` hands it on; a direct write to ``.pairing``, ``.copies``
    or the base must be followed by ``surgery._remap_pairing`` or
    ``invalidate()`` before the next read.  Across a base edit a side
    follows its dart into the face that now holds it; ``_remap_pairing`` is
    the one place that applies this rule."""

    def __init__(self, base: BaseComplex, copies, pairing):
        self.base = base
        self.copies = list(copies)
        self.pairing = dict(pairing)
        self._cache = {}

    # -- bookkeeping ---------------------------------------------------------

    def copy(self) -> "SurfaceComplex":
        return SurfaceComplex(self.base.copy(), list(self.copies), dict(self.pairing))

    def rotated(self, r: Rotation) -> "SurfaceComplex":
        """This surface over ``base.rotated(r)``, keeping its cached tables.

        A rotation moves vertex positions only, and ``BaseComplex.copy``
        keeps every cycle, fan, edge kind, length and area, so each cached
        table is the one the image would compute."""
        out = SurfaceComplex(self.base.rotated(r), self.copies, self.pairing)
        out._cache = dict(self._cache)
        return out

    def invalidate(self):
        self._cache = {}

    def live_copy_ids(self):
        return [c for c in range(len(self.copies)) if self.copies[c] is not None]

    def cycle_of(self, c: int):
        return self.base.faces[self.copies[c]].cycle

    def dart_of(self, side) -> int:
        c, p = side
        return self.cycle_of(c)[p]

    def sides(self):
        for c in self.live_copy_ids():
            for p in range(len(self.cycle_of(c))):
                yield (c, p)

    def free_sides(self):
        """The unpaired sides in ``sides()`` order, as a new list."""
        free = self._cache.get("free")
        if free is None:
            free = self._cache["free"] = [s for s in self.sides() if s not in self.pairing]
        return list(free)

    def add_copy(self, face_id: int) -> int:
        self.copies.append(face_id)
        self.invalidate()
        return len(self.copies) - 1

    def pair(self, s1, s2):
        if s1 in self.pairing or s2 in self.pairing:
            raise SurfaceError("side already paired")
        if self.dart_of(s1) != (self.dart_of(s2) ^ 1):
            raise SurfaceError("pairing must join sides over opposite darts")
        self.pairing[s1] = s2
        self.pairing[s2] = s1
        self.invalidate()

    def unpair(self, s):
        t = self.pairing.pop(s)
        self.pairing.pop(t)
        self.invalidate()
        return t

    # -- corner navigation ----------------------------------------------------

    def corner_vertex(self, corner) -> int:
        return self.base.tail(self.dart_of(corner))

    def corner_in_side(self, corner):
        c, p = corner
        return (c, (p - 1) % len(self.cycle_of(c)))

    def corner_out_side(self, corner):
        return corner

    def step_cw(self, corner):
        """Cross the outgoing side; None when it is free."""
        s = self.corner_out_side(corner)
        if s not in self.pairing:
            return None
        c2, p2 = self.pairing[s]
        return (c2, (p2 + 1) % len(self.cycle_of(c2)))

    def step_ccw(self, corner):
        s = self.corner_in_side(corner)
        if s not in self.pairing:
            return None
        return self.pairing[s]

    # -- vertex sheets ----------------------------------------------------------

    def sheets(self):
        if "sheets" in self._cache:
            return self._cache["sheets"]
        corner_sheet = {}
        sheets = []
        all_corners = list(self.sides())
        # each step crosses a paired side, so a chain or an orbit of an
        # involutive pairing takes at most len(pairing) of them
        bound = len(self.pairing) + 1
        # boundary chains start just after a free incoming side
        for corner in all_corners:
            if corner in corner_sheet:
                continue
            if self.corner_in_side(corner) in self.pairing:
                continue
            chain = [corner]
            cur = self.step_cw(corner)
            while cur is not None:
                if len(chain) > bound:
                    raise InvalidSurface("chain from corner %r does not end" % (corner,))
                chain.append(cur)
                cur = self.step_cw(cur)
            idx = len(sheets)
            for x in chain:
                if x in corner_sheet:
                    raise InvalidSurface("corner %r reached from two chains" % (x,))
                corner_sheet[x] = idx
            sheets.append(self._make_sheet(idx, chain, interior=False))
        for corner in all_corners:
            if corner in corner_sheet:
                continue
            cyc = [corner]
            cur = self.step_cw(corner)
            while cur != corner:
                if cur is None:
                    raise InvalidSurface("open chain without a free end")
                if len(cyc) > bound:
                    raise InvalidSurface("orbit of corner %r does not close" % (corner,))
                cyc.append(cur)
                cur = self.step_cw(cur)
            idx = len(sheets)
            for x in cyc:
                corner_sheet[x] = idx
            sheets.append(self._make_sheet(idx, cyc, interior=True))
        self._cache["sheets"] = (sheets, corner_sheet)
        return self._cache["sheets"]

    def _make_sheet(self, idx, corners, interior):
        v = self.corner_vertex(corners[0])
        ell = len(corners)
        m = len(self.base.fans[v])
        if interior:
            if ell % m != 0:
                raise InvalidSurface("interior corner orbit of %d corners over fan of %d" % (ell, m))
            mult = ell // m
            deg = mult
            folded = False
        else:
            k, r = divmod(ell, m)
            folded = r == 0
            mult = k if folded else k + 1
            deg = 2 * k if folded else 2 * k + 1
        in_side = self.corner_in_side(corners[0]) if not interior else None
        out_side = self.corner_out_side(corners[-1]) if not interior else None
        return VertexSheet(
            index=idx, vertex=v, corners=tuple(corners), interior=interior,
            ell=ell, fan=m, degree=deg, multiplicity=mult, folded=folded,
            special=v in self.base.specials, in_side=in_side, out_side=out_side,
        )

    def sheet_list(self):
        return self.sheets()[0]

    # -- boundary walks -----------------------------------------------------------

    def walk_successor(self, side):
        """The free side after ``side`` around its head's sheet; each step
        crosses a paired side, so more than len(pairing) of them raise."""
        c, p = side
        corner = (c, (p + 1) % len(self.cycle_of(c)))
        for _ in range(len(self.pairing) + 1):
            s = self.corner_out_side(corner)
            if s not in self.pairing:
                return s
            corner = self.step_cw(corner)
        raise InvalidSurface("no boundary successor of side %r" % (side,))

    def walks(self):
        if "walks" in self._cache:
            return self._cache["walks"]
        free = set(self.free_sides())
        out = []
        seen = set()
        for s0 in sorted(free):
            if s0 in seen:
                continue
            run = [s0]
            seen.add(s0)
            s = self.walk_successor(s0)
            while s != s0:
                if s in seen:
                    raise InvalidSurface("boundary successor collides between walks")
                run.append(s)
                seen.add(s)
                s = self.walk_successor(s)
            darts = tuple(self.dart_of(x) for x in run)
            length = float_sum(self.base.length(d) for d in darts)
            out.append(BoundaryWalk(tuple(run), darts, length))
        self._cache["walks"] = out
        return out

    def boundary_walk(self) -> BoundaryWalk:
        ws = self.walks()
        if len(ws) != 1:
            raise SurfaceError("surface has %d boundary walks" % len(ws))
        return ws[0]

    # -- global invariants -----------------------------------------------------------

    def euler_characteristic(self) -> int:
        sheets, _ = self.sheets()
        n_edges = len(self.pairing) // 2 + len(self.free_sides())
        return len(sheets) - n_edges + len(self.live_copy_ids())

    def topology_kind(self) -> str:
        chi = self.euler_characteristic()
        nb = len(self.walks())
        if (chi, nb) == (1, 1):
            return DISK
        if (chi, nb) == (0, 2):
            return ANNULUS
        if (chi, nb) == (2, 0):
            return CLOSED
        raise InvalidSurface("chi=%d with %d boundary walks is not an allowed type" % (chi, nb))

    def multiplicities(self):
        """Per live base edge e: (m+, m-) = free sides over dart 2e / 2e+1."""
        if "mult" in self._cache:
            return self._cache["mult"]
        out = {e: [0, 0] for e in self.base.live_edges()}
        for s in self.free_sides():
            d = self.dart_of(s)
            out[d >> 1][d & 1] += 1
        self._cache["mult"] = {e: tuple(v) for e, v in out.items()}
        return self._cache["mult"]

    def n_face(self):
        """Per live base face: the number of copies over it (cached)."""
        if "n_face" in self._cache:
            return self._cache["n_face"]
        out = {f: 0 for f in self.base.live_faces()}
        for c in self.live_copy_ids():
            out[self.copies[c]] += 1
        self._cache["n_face"] = out
        return out

    def components(self):
        """Components of (sphere minus boundary image): faces unioned across
        scaffold edges and zero-multiplicity curve edges (cached)."""
        if "components" in self._cache:
            return self._cache["components"]
        parent = {f: f for f in self.base.live_faces()}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        mult = self.multiplicities()
        for e in self.base.live_edges():
            if self.base.edges[e].kind == SCAFFOLD or sum(mult[e]) == 0:
                a = find(self.base.face_of_dart(2 * e))
                b = find(self.base.face_of_dart(2 * e + 1))
                if a != b:
                    parent[a] = b
        comps = {}
        for f in self.base.live_faces():
            comps.setdefault(find(f), []).append(f)
        self._cache["components"] = {root: tuple(sorted(fs)) for root, fs in comps.items()}
        return self._cache["components"]

    # -- connectivity -----------------------------------------------------------------

    def copy_components(self):
        """Live copies grouped by the copy graph (an edge per paired side).

        Each group is sorted; groups come in order of their smallest copy."""
        seen = set()
        groups = []
        for root in self.live_copy_ids():
            if root in seen:
                continue
            seen.add(root)
            group = [root]
            stack = [root]
            while stack:
                c = stack.pop()
                for p in range(len(self.cycle_of(c))):
                    t = self.pairing.get((c, p))
                    if t is not None and t[0] not in seen:
                        seen.add(t[0])
                        group.append(t[0])
                        stack.append(t[0])
            groups.append(sorted(group))
        return groups

    def connected(self) -> bool:
        return len(self.copy_components()) == 1


def validate(s: SurfaceComplex, strict_scaffold=True):
    """Check every structural invariant; returns a list of violation strings.

    ``strict_scaffold=False`` tolerates free scaffold sides (the transient
    state right after cutting along a scaffold lift)."""
    bad = []
    live = set(s.live_copy_ids())
    if not live:
        return ["surface has no face copies"]
    for side, other in s.pairing.items():
        ok_side = side[0] in live and side[1] < len(s.cycle_of(side[0]))
        ok_other = other[0] in live and other[1] < len(s.cycle_of(other[0]))
        if not (ok_side and ok_other):
            bad.append("pairing references dead side %r or %r" % (side, other))
            continue
        if s.pairing.get(other) != side:
            bad.append("pairing is not an involution at %r" % (side,))
        if other == side:
            bad.append("pairing fixes %r" % (side,))
        if s.dart_of(side) != (s.dart_of(other) ^ 1):
            bad.append("paired sides %r,%r do not project to opposite darts" % (side, other))
    if bad:
        return bad
    if strict_scaffold:
        for side in s.free_sides():
            if s.base.kind(s.dart_of(side)) != CURVE:
                bad.append("scaffold side %r is free" % (side,))
    if not s.connected():
        bad.append("surface is not connected")
    if bad:
        return bad
    try:
        sheets, _ = s.sheets()
        walks = s.walks()
        kind = s.topology_kind()
    except InvalidSurface as err:
        return [str(err)]
    if kind == CLOSED:
        nf = s.n_face()
        vals = set(nf.values())
        if len(vals) != 1:
            bad.append("closed surface with non-uniform covering numbers %r" % (nf,))
        else:
            d = vals.pop()
            b_total = sum(sh.branch_index for sh in sheets)
            if b_total != 2 * d - 2:
                bad.append("Riemann-Hurwitz residual %d" % (b_total - (2 * d - 2)))
    # edge relation: n(left) - m+ = n(right) - m-
    nf = s.n_face()
    for e, (mp, mm) in s.multiplicities().items():
        if s.base.edges[e].kind != CURVE:
            continue
        lhs = nf[s.base.face_of_dart(2 * e)] - mp
        rhs = nf[s.base.face_of_dart(2 * e + 1)] - mm
        if lhs != rhs:
            bad.append("edge relation fails at edge %d: %d != %d" % (e, lhs, rhs))
    for root, fs in s.components().items():
        vals = {nf[f] for f in fs}
        if len(vals) != 1:
            bad.append("covering number not constant on component %r" % (fs,))
    return bad


def require_valid(s: SurfaceComplex, context="", strict_scaffold=True):
    bad = validate(s, strict_scaffold=strict_scaffold)
    if bad:
        raise InvalidSurface((context + ": " if context else "") + "; ".join(bad))


def functionals(s: SurfaceComplex) -> FunctionalReport:
    """All the surface functionals: A, L, n-bar, B, R, H, covering sum (cached)."""
    if "functionals" in s._cache:
        return s._cache["functionals"]
    sheets = s.sheet_list()
    walks = s.walks()
    kind = s.topology_kind()
    area = float_sum(s.base.faces[s.copies[c]].area for c in s.live_copy_ids())
    length = float_sum(w.length for w in walks)

    label_of = s.base.specials
    n_bar = {lab: 0 for lab in label_of.values()}
    n_point = {lab: 0 for lab in label_of.values()}
    flags = []
    per_vertex = {}
    for sh in sheets:
        per_vertex.setdefault(sh.vertex, []).append(sh)
    for v, lab in label_of.items():
        shs = per_vertex.get(v, [])
        n_bar[lab] = sum(1 for sh in shs if sh.interior)
        n_point[lab] = sum(sh.multiplicity for sh in shs) - sum(1 for sh in shs if not sh.interior)
        if any((not sh.interior) and sh.folded for sh in shs):
            flags.append("special point %s lies on a folded image point" % lab)

    b_special = sum(sh.branch_index for sh in sheets if sh.special)
    b_nonspecial = sum(sh.branch_index for sh in sheets if not sh.special)

    nf = s.n_face()
    comps = s.components()
    n_comp = {root: nf[fs[0]] for root, fs in comps.items()}
    cov_sum = sum(n_comp.values())

    n_bar_eq = sum(n_bar.values())
    reduced = (len(n_bar) - 2) * area - FOUR_PI * n_bar_eq
    ratio = reduced / length if length > 1e-15 else None
    degree = None
    if kind == CLOSED:
        degree = set(nf.values()).pop()

    s._cache["functionals"] = FunctionalReport(
        area=area, boundary_length=length, n_bar=n_bar, n_point=n_point,
        n_face=nf, n_component=n_comp, components=comps,
        n_bar_special=n_bar_eq, b_special=b_special, b_nonspecial=b_nonspecial,
        reduced_area=reduced, ratio=ratio, covering_sum=cov_sum,
        topology=kind, degree=degree, sheets=sheets, flags=flags,
    )
    return s._cache["functionals"]


# -- closed subarc relation ---------------------------------------------------


def closed_subarc_match(word1, junctions1, word2):
    """Matching of Def closed-subarc on cyclic symbol words.

    word2 must be obtainable from a cyclic rotation of word1 by deleting
    disjoint contiguous subwords each of which starts and ends at the same
    junction key.  Returns the witness (rotation, kept index runs) or None.

    word1 must be a closed walk: ``junctions1[i]`` is the tail of
    ``word1[i]``, and its head, the next tail, is a function of the symbol;
    else SurfaceError.  A symbol of word2 fits a position that holds it with
    the head of word2's symbol before it (cyclically) as tail.  A kept symbol
    fixes the junction after it, so each earlier fitting position is one
    closed deletion away, and one backward scan decides a rotation: each
    symbol of word2, last first, is kept at its latest fitting position
    before the one kept after it.  The first rotation at which word2[0] fits
    and the scan keeps all of word2 wins.
    """
    word1, junctions1, word2 = list(word1), list(junctions1), list(word2)
    n = len(word1)
    head = {}
    for sym, nxt in zip(word1, junctions1[1:] + junctions1[:1]):
        if head.setdefault(sym, nxt) != nxt:
            raise SurfaceError("closed-subarc match: word1 is not a closed walk")
    if not word2 or any(sym not in head for sym in word2):
        return None
    needs = [head[sym] for sym in word2[-1:] + word2[:-1]]  # the tail each symbol fits
    ww, jj = word1 + word1, junctions1 + junctions1
    for rot in range(n):
        if jj[rot] != needs[0] or ww[rot] != word2[0]:
            continue
        kept, p = [], rot + n
        for sym, need in zip(reversed(word2), reversed(needs)):
            p -= 1
            while p >= rot and not (jj[p] == need and ww[p] == sym):
                p -= 1
            if p < rot:
                break
            kept.append(p - rot)
        else:
            runs = []
            for i in reversed(kept):
                if runs and runs[-1][1] == i:
                    runs[-1] = (runs[-1][0], i + 1)
                else:
                    runs.append((i, i + 1))
            return {"rotation": rot, "kept_runs": runs}
    return None


def is_closed_subarc(w2: BoundaryWalk, w1: BoundaryWalk, base: BaseComplex):
    """True when w2 is a closed subarc of w1 (walks over one base complex)."""
    junction1 = [base.tail(d) for d in w1.darts]
    witness = closed_subarc_match(w1.darts, junction1, w2.darts)
    return (witness is not None), witness


def geometric_walk(s: SurfaceComplex, rot: Rotation = None):
    """Boundary walk as a list of (tail point, head point) geodesic steps.

    The rotation is applied once per walk vertex, which is the head of one
    step and the tail of the next: both get the one rotated point, the value
    a second ``apply`` of the same vertex would give."""
    r = rot if rot is not None else Rotation.identity()
    base, at = s.base, {}

    def point(v):
        p = at.get(v)
        if p is None:
            p = at[v] = r.apply(base.vertices[v])
        return p

    return [(point(base.tail(d)), point(base.head(d))) for d in s.boundary_walk().darts]


def is_closed_subarc_geometric(steps2, steps1):
    """Closed-subarc matching of geometric walks (point-id refined words).

    Every step of both walks is cut at the step ends of both walks lying
    inside it (further than ``SUBARC_TOL`` from its ends, in the order of
    their parameters, ties in cut-list order), and each piece becomes the
    symbol (tail id, midpoint id, head id) of one ``PointRegistry``.

    Reuse rule: a step equal by value to an earlier step, in either walk,
    gets the earlier one's segment, pieces and symbols, and a cut point equal
    by value to an earlier one gets its parameter on a segment.  That is
    exact: a segment, its parameters and pieces are functions of the point
    values, and the registry gives a value-equal point the id it gave before
    and stores nothing new for it, so the ids handed out in order are the
    same.

    Own-end rule: a cut point equal by value to its own step's ``seg.a`` or
    ``seg.b`` is skipped without a parameter.  Its parameter would be the
    angle from ``seg.a`` over the length, 0 or exactly ``length / length ==
    1``, so it never lies inside the step.

    Equal-walk rule: when ``steps2 == steps1`` by value, the reuse rule gives
    both walks one word, which the match takes at rotation 0.  So the
    witness is ``{"rotation": 0, "kept_runs": [(0, n)]}`` for the n pieces
    of ``steps1``, counted by the same cut rule without piece segments,
    midpoints or point ids; with no piece (n == 0) there is no match."""
    segs = {}  # step (a, b) -> its segment, built in the order of the steps
    for a, b in (*steps1, *steps2):
        if (a, b) not in segs:
            segs[a, b] = GeodesicSegment(a, b)
    segs1 = [segs[a, b] for a, b in steps1]
    segs2 = [segs[a, b] for a, b in steps2]
    # seg.a is unit(a) and seg.b is unit(b), the cut points
    cuts = [g.a for g in segs1] + [g.b for g in segs1] + [g.a for g in segs2] + [g.b for g in segs2]
    distinct = list(dict.fromkeys(cuts))

    def pieces(seg):
        """The (tail, head) point pairs of seg's pieces: seg cut at the cut
        points inside it, less the pieces whose ends coincide."""
        t_of = {}
        for p in distinct:
            if p == seg.a or p == seg.b:  # own end: never inside
                continue
            t = seg.param_of(p, SUBARC_TOL)
            if t is not None and SUBARC_TOL < t * seg.length and (1 - t) * seg.length > SUBARC_TOL:
                t_of[p] = t
        # from the full cut list, so equal parameters keep its order and multiplicity
        inside = [(t_of[p], p) for p in cuts if p in t_of]
        inside.sort(key=lambda x: x[0])
        pts = [seg.a] + [p for _, p in inside] + [seg.b]
        return [(a, b) for a, b in zip(pts, pts[1:]) if not points_coincide(a, b, SUBARC_TOL)]

    if steps2 == steps1:
        counts = {step: len(pieces(segs[step])) for step in dict.fromkeys(steps1)}
        n = sum(counts[step] for step in steps1)
        return (True, {"rotation": 0, "kept_runs": [(0, n)]}) if n else (False, None)

    reg = PointRegistry(SUBARC_TOL)

    def symbols(seg):
        out = []
        for a, b in pieces(seg):
            piece = GeodesicSegment(a, b)
            # ids go out in the order tail, head, midpoint
            ka = reg.key(piece.a)
            kb = reg.key(piece.b)
            out.append((ka, reg.key(piece.point_at(0.5)), kb))
        return out

    syms = {}  # step (a, b) -> the symbols of its pieces

    def word(steps):
        w = []
        for a, b in steps:
            if (a, b) not in syms:
                syms[a, b] = symbols(segs[a, b])
            w += syms[a, b]
        return w

    w1 = word(steps1)
    w2 = word(steps2)
    witness = closed_subarc_match(w1, [ka for ka, _, _ in w1], w2)
    return (witness is not None), witness


# H may fall by this much (rounding) in a better-than step
_H_TOL = 1e-9


def better_than_clauses(new: FunctionalReport, old: FunctionalReport):
    """The value clauses of the better-than order, each as (holds, new, old):
    H does not fall (by more than ``_H_TOL``), and neither the covering sum
    nor any n-bar grows."""
    return {
        "H": (new.ratio >= old.ratio - _H_TOL, new.ratio, old.ratio),
        "sum": (new.covering_sum <= old.covering_sum, new.covering_sum, old.covering_sum),
        "n_bar": (all(new.n_bar.get(lab, 0) <= old.n_bar[lab] for lab in old.n_bar),
                  new.n_bar, old.n_bar),
    }


def is_better_than(s2: SurfaceComplex, s1: SurfaceComplex, rot: Rotation = None):
    """The partial order of the improvement pipeline, with a per-clause report."""
    r1, r2 = functionals(s1), functionals(s2)
    if r1.ratio is None or r2.ratio is None:
        raise SurfaceError("better-than needs two surfaces with boundary")
    report = better_than_clauses(r2, r1)
    ok, witness = is_closed_subarc_geometric(
        geometric_walk(s2), geometric_walk(s1, rot))
    report["boundary"] = (ok, witness)
    return all(v[0] for v in report.values()), report
