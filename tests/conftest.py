"""Shared fixture builders for the test suite."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

from spherecover.arrangement import (
    CURVE,
    ArrangementError,
    CurveInput,
    SpecialSet,
    attach_scaffold,
    build_arrangement,
)
from spherecover.generators import _close_scaffold_sides, _sph
from spherecover.geometry import GeodesicSegment, add, norm, scale, sub, unit
from spherecover.surface import SurfaceComplex, functionals, geometric_walk


def tool_module(name):
    """``tools/<name>.py``, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def hunt_module():
    return tool_module("hunt")


def sph(lon, lat):
    return _sph(lon, lat)


def face_interior_point(bc, f):
    """A point strictly inside face f (offset from a curve boundary dart)."""
    for d in bc.faces[f].cycle:
        if bc.kind(d) != CURVE:
            continue
        seg = bc.dart_segment(d)
        mid = seg.point_at(0.5)
        for eps in (1e-3, 1e-5, 1e-7):
            along, off = scale(math.cos(eps), mid), scale(math.sin(eps), seg.pole)
            # pole side = left side of the dart
            for cand in (unit(add(along, off)), unit(sub(along, off))):
                if bc.locate_point(cand) == ("face", f):
                    return cand
    raise ArrangementError("could not sample interior of face %d" % f)


def canonical_form(s):
    """Canonical signature of the labeled combinatorial map (projection kept)."""
    live = s.live_copy_ids()
    best = None
    min_face = min(s.copies[c] for c in live)
    for root in [c for c in live if s.copies[c] == min_face]:
        order = {root: 0}
        queue = [root]
        sig = []
        while queue:
            c = queue.pop(0)
            row = [s.copies[c]]
            for p in range(len(s.cycle_of(c))):
                t = s.pairing.get((c, p))
                if t is None:
                    row.append((-1, -1))
                else:
                    if t[0] not in order:
                        order[t[0]] = len(order)
                        queue.append(t[0])
                    row.append((order[t[0]], t[1]))
            sig.append(tuple(row))
        cand = tuple(sig)
        if best is None or cand < best:
            best = cand
    return best


def isomorphic(s1, s2):
    """Combinatorial isomorphism over the same base (projection-preserving)."""
    if sorted(s1.copies[c] for c in s1.live_copy_ids()) != sorted(
            s2.copies[c] for c in s2.live_copy_ids()):
        return False
    return canonical_form(s1) == canonical_form(s2)


def polygonal_family_membership(s, length_cap, nbar_cap, segment_cap):
    """Membership report for the polygonal family with caps (L, M, N)."""
    rep = functionals(s)
    steps = geometric_walk(s)
    poles = [GeodesicSegment(a, b).pole for a, b in steps]
    breaks = sum(
        1 for i in range(len(poles))
        if norm(sub(poles[i], poles[(i + 1) % len(poles)])) > 1e-7)
    segments = max(breaks, 1)
    report = {
        "boundary_length": rep.boundary_length,
        "max_n_bar": max(rep.n_bar.values()) if rep.n_bar else 0,
        "segments": segments,
        "length_ok": rep.boundary_length <= length_cap + 1e-9,
        "n_bar_ok": all(v <= nbar_cap for v in rep.n_bar.values()),
        "segments_ok": segments <= segment_cap,
    }
    report["member"] = report["length_ok"] and report["n_bar_ok"] and report["segments_ok"]
    return report


def equator_triangle_base(special_positions, marker_positions=()):
    pts = [sph(0.0, 0.0), sph(2.1, 0.0), sph(4.2, 0.0)]
    bc = build_arrangement(CurveInput(tuple(pts)),
                           SpecialSet(tuple(special_positions)),
                           markers=marker_positions)
    return attach_scaffold(bc), pts


def south_face(bc):
    """The face whose interior point has the most negative z coordinate."""
    best = None
    for f in bc.live_faces():
        p = face_interior_point(bc, f)
        if best is None or p[2] < best[1]:
            best = (f, p[2])
    return best[0]


def add_south_tip(bc, attach_pt, tip_pt, name):
    """Hang one tip at a given curve vertex inside its adjacent south face."""
    v = bc.vertex_at(attach_pt)
    f = south_face(bc)
    cyc = bc.faces[f].cycle
    corner = next(pos for pos, d in enumerate(cyc) if bc.tail(d) == v)
    t, e = bc.add_bridge(f, v, corner, sph(*tip_pt))
    if name == "marker":
        bc.markers.add(t)
    else:
        bc.specials[t] = name
    return t


def identity_hemisphere():
    """One-sheet covering of the southern hemisphere; H = 1."""
    bc, _ = equator_triangle_base([sph(2.4, 1.25), sph(3.3, 1.25), sph(4.2, 1.25)])
    s = SurfaceComplex(bc, [south_face(bc)], {})
    _close_scaffold_sides(s)
    return s


def f4_double_cover(marker_lonlat=(0.7, -0.5)):
    """Double cover of the south hemisphere branched at a marker; H = 1."""
    bc, pts = equator_triangle_base(
        [sph(2.4, 1.25), sph(3.3, 1.25), sph(4.2, 1.25)])
    mk = add_south_tip(bc, pts[0], marker_lonlat, "marker")
    f = south_face(bc)
    s = SurfaceComplex(bc, [f, f], {})
    cyc = s.cycle_of(0)
    so = next(p for p, d in enumerate(cyc) if bc.head(d) == mk)
    si = next(p for p, d in enumerate(cyc) if bc.tail(d) == mk)
    s.pair((0, so), (1, si))
    s.pair((1, so), (0, si))
    _close_scaffold_sides(s)
    return s


def double_cover_cut(extra_south, swap_names, cut_edge_idx=1, cut_copy=0):
    """Degree-2 cover of the sphere, identity over curve edges, swap monodromy
    at the named south tips (attached at vertex A), cut open along one lift of
    a curve edge to make a disk.

    extra_south: list of (name, (lon, lat)); names 'marker' or special labels.
    """
    bc, pts = equator_triangle_base(
        [sph(2.4, 1.25), sph(3.3, 1.25), sph(4.2, 1.25)])
    for name, ll in extra_south:
        add_south_tip(bc, pts[0], ll, name)
    bc.check()
    faces = bc.live_faces()
    copies = []
    for f in faces:
        copies += [f, f]
    idx = {(f, i): 2 * faces.index(f) + i for f in faces for i in (0, 1)}
    s = SurfaceComplex(bc, copies, {})
    for e in bc.live_edges():
        if bc.edges[e].kind != "curve":
            continue
        fL, fR = bc.face_of_dart(2 * e), bc.face_of_dart(2 * e + 1)
        pL = bc.faces[fL].cycle.index(2 * e)
        pR = bc.faces[fR].cycle.index(2 * e + 1)
        for i in (0, 1):
            s.pair((idx[(fL, i)], pL), (idx[(fR, i)], pR))

    def tipname(v):
        return "marker" if v in bc.markers else bc.specials.get(v)

    for v in list(bc.markers) + list(bc.specials):
        d_in = bc.fans[v][0]
        f = bc.face_of_dart(d_in)
        cyc = bc.faces[f].cycle
        po, pi = cyc.index(d_in ^ 1), cyc.index(d_in)
        if tipname(v) in swap_names:
            s.pair((idx[(f, 0)], po), (idx[(f, 1)], pi))
            s.pair((idx[(f, 1)], po), (idx[(f, 0)], pi))
        else:
            s.pair((idx[(f, 0)], po), (idx[(f, 0)], pi))
            s.pair((idx[(f, 1)], po), (idx[(f, 1)], pi))
    if cut_edge_idx is not None:
        ce = [e for e in bc.live_edges() if bc.edges[e].kind == "curve"][cut_edge_idx]
        fL = bc.face_of_dart(2 * ce)
        pL = bc.faces[fL].cycle.index(2 * ce)
        s.unpair((idx[(fL, cut_copy)], pL))
    return s


def f4_with_north(marker_at=1, a1_south=True):
    """South double cover (marker fan) plus one north copy glued to sheet one.

    With ``a1_south`` the first special hangs inside the south face, so the
    boundary has a special point on its left (the sink configuration).
    """
    specials = [sph(1.0, -0.9) if a1_south else sph(2.4, 1.25),
                sph(3.3, 1.25), sph(4.2, 1.25)]
    bc, pts = equator_triangle_base(specials)
    mk = add_south_tip(bc, pts[marker_at], (1.9, -0.35), "marker")
    f_s = south_face(bc)
    f_n = [f for f in bc.live_faces() if f != f_s][0]
    s = SurfaceComplex(bc, [f_s, f_s, f_n], {})
    cyc_s = s.cycle_of(0)
    cyc_n = bc.faces[f_n].cycle
    so = next(p for p, d in enumerate(cyc_s) if bc.head(d) == mk)
    si = next(p for p, d in enumerate(cyc_s) if bc.tail(d) == mk)
    s.pair((0, so), (1, si))
    s.pair((1, so), (0, si))
    for e in bc.live_edges():
        if bc.edges[e].kind != "curve":
            continue
        ps = next(p for p, d in enumerate(cyc_s) if (d >> 1) == e)
        pn = next(p for p, d in enumerate(cyc_n) if (d >> 1) == e)
        s.pair((0, ps), (2, pn))
    _close_scaffold_sides(s)
    return s


@pytest.fixture
def hemisphere():
    return identity_hemisphere()


@pytest.fixture
def f4():
    return f4_double_cover()
