"""Independent brute-force recomputation of the surface functionals.

Everything here walks the complex with code paths distinct from
``surface.functionals``: counterclockwise corner orbits, per-copy tallies,
and the length/area identities from the boundary multiplicities.  Any
mismatch is reported with a witness.
"""

from __future__ import annotations

import math

from .arrangement import CURVE, SCAFFOLD
from .geometry import float_sum
from .surface import FOUR_PI, SurfaceComplex, functionals


def _ccw_orbits(s: SurfaceComplex):
    """Corner orbits computed with ccw steps (independent of sheets())."""
    corners = list(s.sides())
    orbits = []
    seen = set()
    for c0 in corners:
        if c0 in seen:
            continue
        # rewind ccw to a free end if one exists
        start = c0
        hops = 0
        while True:
            prev = s.step_ccw(start)
            if prev is None or prev == c0:
                break
            start = prev
            hops += 1
            if hops > len(corners):
                break
        orbit = [start]
        seen.add(start)
        cur = s.step_cw(start)
        while cur is not None and cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = s.step_cw(cur)
        orbits.append((orbit, cur == start))
    return orbits


def oracle_verify(s: SurfaceComplex) -> list:
    """Cross-check functionals against independent recomputation.

    Returns a list of mismatch strings (empty means everything agrees)."""
    bad = []
    rep = functionals(s)

    n_face = {f: 0 for f in s.base.live_faces()}
    for c in s.live_copy_ids():
        n_face[s.copies[c]] += 1
    for f, n in rep.n_face.items():
        if n_face.get(f) != n:
            bad.append("n(face %d): functionals %d, recount %r" % (f, n, n_face.get(f)))

    orbits = _ccw_orbits(s)
    per_vertex_interior = {}
    for orbit, is_cycle in orbits:
        v = s.base.tail(s.dart_of(orbit[0]))
        if is_cycle:
            per_vertex_interior[v] = per_vertex_interior.get(v, 0) + 1
    for v, lab in s.base.specials.items():
        if per_vertex_interior.get(v, 0) != rep.n_bar[lab]:
            bad.append("n_bar(%s): functionals %d, ccw orbits %d"
                       % (lab, rep.n_bar[lab], per_vertex_interior.get(v, 0)))

    area = float_sum(s.base.faces[s.copies[c]].area for c in s.live_copy_ids())
    if abs(area - rep.area) > 1e-9:
        bad.append("area per-copy %r vs functionals %r" % (area, rep.area))
    area_comp = float_sum(
        rep.n_component[root] * float_sum(s.base.faces[f].area for f in fs)
        for root, fs in rep.components.items())
    if abs(area_comp - rep.area) > 1e-9:
        bad.append("area by components %r vs %r" % (area_comp, rep.area))

    length_sides = float_sum(s.base.length(s.dart_of(side)) for side in s.free_sides())
    if abs(length_sides - rep.boundary_length) > 1e-9:
        bad.append("boundary length %r vs %r" % (length_sides, rep.boundary_length))
    mult = s.multiplicities()
    length_mult = float_sum((mp + mm) * s.base.edges[e].length
                            for e, (mp, mm) in mult.items()
                            if s.base.edges[e].kind == CURVE)
    if abs(length_mult - rep.boundary_length) > 1e-9:
        bad.append("L by multiplicities %r vs %r" % (length_mult, rep.boundary_length))

    n_edges = len(s.pairing) // 2 + len(s.free_sides())
    chi = len(orbits) - n_edges + len(s.live_copy_ids())
    expect = {"disk": 1, "annulus": 0, "closed": 2}[rep.topology]
    if chi != expect:
        bad.append("chi by ccw orbits %d, expected %d" % (chi, expect))

    for e, (mp, mm) in mult.items():
        if s.base.edges[e].kind != CURVE:
            continue
        lhs = n_face[s.base.face_of_dart(2 * e)] - mp
        rhs = n_face[s.base.face_of_dart(2 * e + 1)] - mm
        if lhs != rhs:
            bad.append("edge relation at arc %d: %d != %d" % (e, lhs, rhs))
        if s.base.edges[e].kind == SCAFFOLD and mp + mm:
            bad.append("scaffold arc %d on the boundary" % e)

    if rep.topology == "closed":
        identity = -8 * math.pi - FOUR_PI * rep.b_nonspecial
        if abs(rep.reduced_area - identity) > 1e-9:
            bad.append("closed-surface reduced area %r, identity gives %r"
                       % (rep.reduced_area, identity))
    b_by_sheets = sum(sh.branch_index for sh in rep.sheets)
    if b_by_sheets != rep.b_special + rep.b_nonspecial:
        bad.append("branch index totals disagree")
    return bad
