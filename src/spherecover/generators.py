"""Seeded generators for base complexes and random disk/closed coverings."""

from __future__ import annotations

import math
import random

from .arrangement import (
    CURVE,
    SCAFFOLD,
    ArrangementError,
    BaseComplex,
    CurveInput,
    SpecialSet,
    attach_bridges,
    attach_scaffold,
    bridges_cannot_fail,
    build_arrangement,
    build_curve_graph,
    build_faces,
    locate_pending,
)
from .geometry import GeometryError, first_within, sphere_point
from .surface import SurfaceComplex, SurfaceError, functionals, require_valid
from .surgery import SurfacePath, cut_to_boundary


FILTER_TRIES = 300  # seeded variants generate_disk_covering_filtered draws
NO_FAN_HOST = "no marker face can host the fan"


class GenerationStuck(RuntimeError):
    pass


def _sph(lon, lat):
    return sphere_point(math.cos(lat) * math.cos(lon),
                        math.cos(lat) * math.sin(lon),
                        math.sin(lat))


def make_base(curve_points, special_points, markers=()) -> BaseComplex:
    bc = build_arrangement(CurveInput(tuple(curve_points)),
                           SpecialSet(tuple(special_points)), markers=markers)
    return attach_scaffold(bc)


def _close_scaffold_sides(s: SurfaceComplex):
    """Pair every free scaffold side with its boundary-walk successor.

    Scaffold edges hang as trees inside faces, so around their tips the walk
    always turns straight back: innermost free scaffold sides are followed by
    their own reversal, and sewing those repeatedly consumes the whole tree.
    """
    guard = 0
    while True:
        guard += 1
        if guard > 20000:
            raise GenerationStuck("scaffold closure did not terminate")
        cand = None
        for side in s.free_sides():
            d = s.dart_of(side)
            if s.base.kind(d) != SCAFFOLD:
                continue
            nxt = s.walk_successor(side)
            if nxt != side and s.dart_of(nxt) == (d ^ 1):
                cand = (side, nxt)
                break
        if cand is None:
            if any(s.base.kind(s.dart_of(x)) == SCAFFOLD for x in s.free_sides()):
                raise GenerationStuck("free scaffold sides without sewable successor")
            return
        side, nxt = cand
        s.pair(side, nxt)


def _count_branches(s: SurfaceComplex) -> int:
    return sum(1 for sh in s.sheet_list() if sh.is_branch)


def _random_curve_points(rng):
    style = rng.choice(["convex", "convex", "eight", "crossing"])
    if style == "convex":
        k = rng.choice([3, 3, 4, 5])
        lat0 = rng.uniform(-0.35, 0.35)
        return [_sph(2 * math.pi * i / k + rng.uniform(-0.3, 0.3),
                     lat0 + rng.uniform(-0.35, 0.35)) for i in range(k)]
    if style == "eight":
        # two lobes through one pinch point
        lonp = rng.uniform(0, 2 * math.pi)
        p = _sph(lonp, rng.uniform(-0.15, 0.15))
        a = rng.uniform(0.55, 0.8)
        lobe1 = [_sph(lonp + dx, a + rng.uniform(-0.1, 0.1))
                 for dx in (-0.7, 0.7)]
        lobe2 = [_sph(lonp + dx, -a + rng.uniform(-0.1, 0.1))
                 for dx in (0.7, -0.7)]
        return [p, lobe1[0], lobe1[1], p, lobe2[0], lobe2[1]]
    # a plain quadrilateral, whatever the style's name says: its two arcs
    # between the bands at latitude a and -a span disjoint longitudes, so no
    # two arcs cross and the arrangement has 2 faces
    a = rng.uniform(0.3, 0.55)
    lon = rng.uniform(0, 2 * math.pi)
    return [
        _sph(lon + 0.0, a + rng.uniform(-0.05, 0.05)),
        _sph(lon + 2.6, a + rng.uniform(-0.05, 0.05)),
        _sph(lon + 0.9, -a + rng.uniform(-0.05, 0.05)),
        _sph(lon + 3.6, -a + rng.uniform(-0.05, 0.05)),
    ]


def _apart(p, others, tol) -> bool:
    """Whether p lies more than tol from each of ``others`` (``first_within``)."""
    return first_within(p, others, tol) is None


def _draw_points(rng, curve, pts, q, with_marker):
    """(specials, markers) of an attempt on ``curve``, whose points as drawn
    are ``pts``: q special points and one marker if ``with_marker``, else
    none; or None where the draw gives up.

    A special lies more than 0.12 from every earlier special, 0.02 from
    every arc and 0.1 from every curve point; a marker more than 0.05 from
    every arc and 0.12 from every special and curve point."""
    segs = curve.segments
    specials = []
    fails = 0
    lat_side = rng.choice([1, -1])
    while len(specials) < q and fails < 200:
        p = _sph(rng.uniform(0, 2 * math.pi), lat_side * rng.uniform(0.95, 1.4))
        if (_apart(p, specials, 0.12) and not any(seg.contains(p, 0.02) for seg in segs)
                and _apart(p, pts, 0.1)):
            specials.append(p)
        else:
            fails += 1
    if len(specials) < q:
        return None
    if not with_marker:
        return specials, []
    for _try in range(80):
        p = _sph(rng.uniform(0, 2 * math.pi), rng.uniform(-0.3, 0.3))
        if not any(seg.contains(p, 0.05) for seg in segs) and _apart(p, specials + pts, 0.12):
            return specials, [p]
    return None


def random_base(rng, q=3, with_marker=False, min_clean_faces=0, fan=None):
    """A random small polygonal curve plus q well-separated special points.

    ``min_clean_faces`` asks for at least that many faces without special
    tips, so cap-limited accretion has room to grow.  ``fan``, if given, is
    ``(fan_m, max_sheets, special_face_cap)`` of ``generate_disk_covering``:
    the base must have a marker whose face allows ``fan_m`` copies, else
    GenerationStuck is raised for the first base that passes the rest.

    Each attempt draws a curve, then its points (``_draw_points``).
    Building a base draws nothing from ``rng``, so each refusal is made at
    the earliest point where it is exact, and the attempts are those of
    building and scaffolding every base in full:

    - the face count, before the curve graph where ``curve.face_count()``
      knows it (the drawn points lie on no arc: the draw keeps them 0.02
      from the arcs, and ``contains`` is monotone in its tolerance), else
      after the graph: an arrangement that completes has E - V + 2 faces
      (``build_curve_graph``), and one that does not is refused too;
    - the clean faces and the fan host, after ``locate_pending``: bridges
      keep every face and give each special or marker point a tip in its
      located face, so both are known before any bridge is built;
    - a base with no fan host is refused before its bridges whenever
      ``bridges_cannot_fail``.  Otherwise the bridges are built first, since
      a base whose bridges fail is a draw again and not a failure.
    """
    for _attempt in range(400):
        pts = _random_curve_points(rng)
        try:
            curve = CurveInput(tuple(pts))
            curve.segments  # a degenerate arc refuses the curve
        except (ArrangementError, GeometryError):
            continue
        drawn = _draw_points(rng, curve, pts, q, with_marker)
        if drawn is None:
            continue
        specials, markers = drawn
        try:
            n_faces = curve.face_count()
            if n_faces is not None and n_faces - 1 < min_clean_faces:
                continue
            bc = build_curve_graph(curve, SpecialSet(tuple(specials)), markers=markers)
            if len(bc.live_edges()) - len(bc.live_vertices()) + 1 < min_clean_faces:
                continue
            faces = locate_pending(build_faces(bc))
        except (ArrangementError, GeometryError):
            continue
        pending = bc.pending
        special_faces = {f for (_p, lab), f in zip(pending, faces) if lab is not None}
        if len(bc.live_faces()) - len(special_faces) < min_clean_faces:
            continue
        hosted = fan is None or _hosts_fan(bc, pending, faces, special_faces, *fan)
        if not hosted and bridges_cannot_fail(bc, faces):
            raise GenerationStuck(NO_FAN_HOST)
        try:
            attach_bridges(bc, faces)
        except (ArrangementError, GeometryError):
            continue
        if not hosted:
            raise GenerationStuck(NO_FAN_HOST)
        return bc
    raise GenerationStuck("could not build a random base")


def _face_cap(f, special_faces, max_sheets, special_face_cap):
    """Copies allowed over face f: ``special_face_cap`` over a face holding a
    special tip, if set, else ``max_sheets``."""
    if special_face_cap is not None and f in special_faces:
        return special_face_cap
    return max_sheets


def _hosts_fan(bc, pending, faces, special_faces, fan_m, max_sheets, special_face_cap):
    """Whether a marker's face allows ``fan_m`` copies, decided before the
    bridges: a marker on the curve keeps its fan, a pending one becomes a tip
    in its located face."""
    marker_faces = [bc.face_of_dart(bc.fans[v][0]) for v in bc.markers]
    marker_faces += [f for (_p, lab), f in zip(pending, faces) if lab is None]
    return any(_face_cap(f, special_faces, max_sheets, special_face_cap) >= fan_m
               for f in marker_faces)


def branched_fan(bc: BaseComplex, face: int, marker: int, m: int) -> SurfaceComplex:
    """m copies of one face cross-sewn cyclically at a marker slit: a disk
    covering with one interior branch point of multiplicity m over the marker."""
    s = SurfaceComplex(bc, [face] * m, {})
    cyc = s.cycle_of(0)
    slit_out = next(p for p, d in enumerate(cyc) if bc.head(d) == marker)
    slit_in = next(p for p, d in enumerate(cyc) if bc.tail(d) == marker)
    for i in range(m):
        s.pair((i, slit_out), ((i + 1) % m, slit_in))
    _close_scaffold_sides(s)
    require_valid(s, "branched fan")
    return s


def generate_disk_covering(seed, max_sheets=8, max_faces=32, q=3,
                           branch_budget=6, sew_prob=0.35, special_face_cap=None,
                           with_marker=False, fan_m=0, slits=0, max_n_face=None) -> SurfaceComplex:
    """Random disk covering by seeded accretion.

    Two always-safe moves keep the surface a connected disk with one
    boundary walk: glue a fresh face copy along a free side, or sew two
    boundary-adjacent free sides whose darts are mutually reverse.  Scaffold
    sides are closed at the end by successor sews around the tips.
    ``special_face_cap`` limits the copies over faces holding special tips
    (low interior covering numbers of the special set keep H large).

    A glue that would put more than ``max_n_face`` copies over one base face
    raises GenerationStuck, the earliest point where that refusal is exact: no
    later step removes a copy (sews, scaffold closure and slits only pair
    and cut), and on a valid covering the largest ``n_component`` is the
    largest ``n_face``, so the covering would exceed the bound too.  The
    covering sum gets no such bound: during accretion it can exceed its
    final value.
    """
    rng = random.Random(repr(seed))
    clean = 2 if special_face_cap == 0 else 0
    fan = (fan_m, max_sheets, special_face_cap) if fan_m >= 2 else None
    bc = random_base(rng, q=q, with_marker=with_marker, min_clean_faces=clean, fan=fan)
    special_faces = bc.special_tips_by_face()
    caps = {f: _face_cap(f, special_faces, max_sheets, special_face_cap)
            for f in bc.live_faces()}
    start_candidates = [f for f in bc.live_faces() if caps[f] > 0]
    if not start_candidates:
        raise GenerationStuck("no admissible start face")
    if fan:
        # random_base made sure that some marker's face can host the fan
        v = next(v for v in bc.markers if caps[bc.face_of_dart(bc.fans[v][0])] >= fan_m)
        s = branched_fan(bc, bc.face_of_dart(bc.fans[v][0]), v, fan_m)
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
        # glue a fresh copy
        n_face = s.n_face()
        rng.shuffle(free)
        for side in free:
            f_new = s.base.face_of_dart(s.dart_of(side) ^ 1)
            if n_face[f_new] >= caps[f_new] or len(s.live_copy_ids()) >= max_faces:
                continue
            if max_n_face is not None and n_face[f_new] >= max_n_face:
                raise GenerationStuck("more than %d copies over one face" % max_n_face)
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


def _random_slit(s: SurfaceComplex, rng):
    """Cut one interior edge open from the boundary: plants a folded point."""
    sheets, corner_sheet = s.sheets()
    cands = []
    for side in s.sides():
        if side not in s.pairing:
            continue
        if s.base.kind(s.dart_of(side)) != "curve":
            continue
        c, p = side
        tail_sheet = sheets[corner_sheet[(c, p)]]
        head_corner = (c, (p + 1) % len(s.cycle_of(c)))
        head_sheet = sheets[corner_sheet[head_corner]]
        if tail_sheet.interior or not head_sheet.interior:
            continue
        if head_sheet.special or head_sheet.is_branch:
            continue
        cands.append(side)
    if not cands:
        return None
    side = cands[rng.randrange(len(cands))]
    try:
        return cut_to_boundary(s, SurfacePath([side]))
    except SurfaceError:
        return None


def generate_disk_covering_filtered(seed, max_sum=None, max_degree=None, **kw):
    """Draw seeded variants until the covering meets the filters.

    Variants cycle through the number of special points, the cap on copies
    over special faces, marker presence, and the sew rate, so the accepted
    population exercises every pipeline path.

    Each attempt gets ``max_n_face``, the smaller bound, as the covering sum
    is at least the largest ``n_component``.  An attempt draws from its own
    rng and no draw here depends on an outcome, so a stopped attempt is one
    the filter refuses anyway, and every accepted covering stays the same."""
    rng = random.Random(repr(("filter", seed)))
    bound = min((b for b in (max_sum, max_degree) if b is not None), default=None)
    for k in range(FILTER_TRIES):
        params = dict(kw, max_n_face=bound)
        if "q" not in kw:
            params["q"] = rng.choice([3, 3, 4, 5])
        if "special_face_cap" not in kw:
            params["special_face_cap"] = rng.choice([0, 0, 1, 1, 2])
        if "fan_m" not in kw:
            params["fan_m"] = rng.choice([0, 0, 2, 2, 3])
        if "with_marker" not in kw:
            params["with_marker"] = params["fan_m"] >= 2 or rng.random() < 0.4
        if "sew_prob" not in kw:
            params["sew_prob"] = rng.choice([0.2, 0.35, 0.5])
        if "slits" not in kw:
            params["slits"] = rng.choice([0, 0, 0, 1, 2])
        try:
            s = generate_disk_covering((seed, k), **params)
        except GenerationStuck:
            continue
        rep = functionals(s)
        if rep.ratio is None or rep.ratio < 0:
            continue
        if max_sum is not None and rep.covering_sum > max_sum:
            continue
        if max_degree is not None and max(rep.n_component.values()) > max_degree:
            continue
        return s
    raise GenerationStuck("no admissible covering after %d tries" % FILTER_TRIES)


def generate_closed_cyclic_cover(d, q=3, branch_special=True) -> SurfaceComplex:
    """Degree-d cyclic cover of the sphere branched over two curve vertices.

    The branch vertices carry a single sheet of multiplicity d each
    (branch index d-1); the remaining specials hang on scaffold tips.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    a = _sph(0.0, 0.35)
    b = _sph(2.0, -0.2)
    c = _sph(4.1, 0.1)
    if branch_special:
        specials = [a, b] + [_sph(1.0 + k, 1.1) for k in range(q - 2)]
    else:
        specials = [_sph(1.0 + 0.8 * k, 1.1) for k in range(q)]
    bc = make_base([a, b, c], specials)
    faces = bc.live_faces()
    if len(faces) != 2:
        raise GenerationStuck("triangle arrangement should have two faces")
    f_in, f_out = faces
    copies = []
    for i in range(d):
        copies.append(f_in)
    for i in range(d):
        copies.append(f_out)
    s = SurfaceComplex(bc, copies, {})

    def edge_between(u, v):
        for e in bc.live_edges():
            if bc.edges[e].kind == CURVE and {bc.edges[e].a, bc.edges[e].b} == {u, v}:
                return e
        raise GenerationStuck("edge not found")

    vc = [bc.vertex_at(a), bc.vertex_at(b), bc.vertex_at(c)]
    e_ab = edge_between(vc[0], vc[1])
    e_bc = edge_between(vc[1], vc[2])
    e_ca = edge_between(vc[2], vc[0])
    cyc_in = bc.faces[f_in].cycle
    cyc_out = bc.faces[f_out].cycle

    def pos_over(face_cycle, e):
        for p, dd in enumerate(face_cycle):
            if (dd >> 1) == e:
                return p
        raise GenerationStuck("face cycle misses edge")

    for e, shift in ((e_ab, 0), (e_bc, 1), (e_ca, 1)):
        p_in = pos_over(cyc_in, e)
        p_out = pos_over(cyc_out, e)
        for i in range(d):
            s.pair((i, p_in), (d + (i + shift) % d, p_out))
    # close scaffold slits with identity pairings (tips stay unbranched)
    for c in range(len(copies)):
        cyc = s.cycle_of(c)
        for p, dd in enumerate(cyc):
            if s.base.kind(dd) == SCAFFOLD and (c, p) not in s.pairing:
                prev = cyc.index(dd ^ 1)
                s.pair((c, p), (c, prev))
    require_valid(s, "closed cyclic cover")
    if s.topology_kind() != "closed":
        raise GenerationStuck("cyclic cover is not closed")
    return s
