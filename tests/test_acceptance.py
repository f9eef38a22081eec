"""Acceptance suite: one test per acceptance criterion, pass/fail per line.

Tolerances are pinned here: 1e-9 absolute on areas/lengths/ratios, 1e-10 on
rotation invariance, 1e-12 on the octant area, integer equality elsewhere.
"""

import math
import random
import time

import numpy as np
import pytest

from spherecover.generators import (
    GenerationStuck,
    generate_closed_cyclic_cover,
    generate_disk_covering,
    generate_disk_covering_filtered,
)
from spherecover.geometry import (
    GeodesicSegment,
    Rotation,
    sphere_point,
)
from spherecover.normalize import certify, normalize
from spherecover.oracle import oracle_verify
from spherecover.surface import (
    CLOSED,
    DISK,
    functionals,
    geometric_walk,
    validate,
)
from spherecover.surgery import (
    SurfacePath,
    cut_interior,
    cut_to_boundary,
    sew,
    sew_annulus,
)

from conftest import isomorphic

FOUR_PI = 4 * math.pi
TOL_AREA = 1e-9
TOL_ROT = 1e-10
TOL_OCTANT = 1e-12


def _report(name, ok, detail=""):
    print("%s: %s%s" % (name, "PASS" if ok else "FAIL",
                        (" (%s)" % detail) if detail else ""))
    assert ok, "%s failed: %s" % (name, detail)


# -- criteria 1 and 2: closed covers ------------------------------------------------


def _closed_sweep():
    out = []
    for d in (1, 2, 3, 4):
        for q in (3, 4, 5):
            for branch_special in (True, False):
                out.append((d, q, branch_special,
                            generate_closed_cyclic_cover(d, q=q,
                                                         branch_special=branch_special)))
    return out


def test_criterion_1_closed_reduced_area_identity():
    t0 = time.time()
    worst = 0.0
    for d, q, bs, s in _closed_sweep():
        assert validate(s) == []
        rep = functionals(s)
        identity = -8 * math.pi - FOUR_PI * rep.b_nonspecial
        worst = max(worst, abs(rep.reduced_area - identity))
        assert rep.reduced_area <= -8 * math.pi + TOL_AREA
    elapsed = time.time() - t0
    _report("criterion 1 (closed R identity, %d covers, %.2fs)" % (24, elapsed),
            worst <= TOL_AREA and elapsed < 5.0, "max residual %.2e" % worst)


def test_criterion_2_riemann_hurwitz():
    bad = 0
    for d, q, bs, s in _closed_sweep():
        rep = functionals(s)
        residual = rep.b_special + rep.b_nonspecial - (2 * rep.degree - 2)
        if rep.degree != d or residual != 0:
            bad += 1
    _report("criterion 2 (Riemann-Hurwitz residual 0 on the sweep)", bad == 0,
            "%d failures" % bad)


# -- criterion 3: functional consistency on 500 random coverings ----------------------


def test_criterion_3_functional_consistency():
    count, mismatches = 0, 0
    seed = 0
    t0 = time.time()
    while count < 500 and seed < 1500:
        seed += 1
        try:
            s = generate_disk_covering(("c3", seed), max_sheets=8)
        except GenerationStuck:
            continue
        count += 1
        rep = functionals(s)
        area_comp = sum(
            rep.n_component[root] * sum(s.base.faces[f].area for f in fs)
            for root, fs in rep.components.items())
        mult = s.multiplicities()
        length_mult = sum((mp + mm) * s.base.edges[e].length
                          for e, (mp, mm) in mult.items()
                          if s.base.edges[e].kind == "curve")
        ok = abs(area_comp - rep.area) <= TOL_AREA
        ok = ok and abs(length_mult - rep.boundary_length) <= TOL_AREA
        nf = rep.n_face
        for e, (mp, mm) in mult.items():
            if s.base.edges[e].kind != "curve":
                continue
            if nf[s.base.face_of_dart(2 * e)] - mp != nf[s.base.face_of_dart(2 * e + 1)] - mm:
                ok = False
        ok = ok and oracle_verify(s) == []
        if not ok:
            mismatches += 1
    _report("criterion 3 (functionals on %d random coverings, %.1fs)"
            % (count, time.time() - t0),
            count >= 500 and mismatches == 0, "%d mismatches" % mismatches)


# -- criterion 4: surgery deltas -----------------------------------------------------


def _interior_edge_paths(s, max_len=2):
    """Single- and two-edge candidate paths classified by endpoints."""
    sheets, corner_sheet = s.sheets()

    def tail_sheet(side):
        return sheets[corner_sheet[side]]

    def head_sheet(side):
        c, p = side
        return sheets[corner_sheet[(c, (p + 1) % len(s.cycle_of(c)))]]

    singles = []
    for side in s.sides():
        if side not in s.pairing:
            continue
        t, h = tail_sheet(side), head_sheet(side)
        if h.interior and not h.is_branch and not (h.special and not h.interior):
            singles.append((side, t, h))
    return singles


def _run_cut_checks(s, rng, stats):
    singles = _interior_edge_paths(s)
    rng.shuffle(singles)
    for side, t, h in singles[:3]:
        pre = functionals(s)
        ell = s.base.length(s.dart_of(side))
        lab = s.base.specials.get(h.vertex)
        if not t.interior:
            try:
                cut = cut_to_boundary(s, SurfacePath([side]))
            except Exception:
                continue
            post = functionals(cut)
            ok = abs(post.boundary_length - pre.boundary_length - 2 * ell) <= TOL_AREA
            ok = ok and abs(post.area - pre.area) <= TOL_AREA
            for k in pre.n_bar:
                want = pre.n_bar[k] - (1 if k == lab else 0)
                ok = ok and post.n_bar[k] == want
            stats["cut"] += 1
            stats["cut_ok"] += ok
            # inverse sew: Lemma glue (A) clauses + round trip
            a = side
            b = cut.walk_successor(a)
            sewn, case = sew(cut, [a], [b])
            post2 = functionals(sewn)
            ok2 = case == "A"
            ok2 = ok2 and abs(post2.boundary_length - post.boundary_length + 2 * ell) <= TOL_AREA
            ok2 = ok2 and abs(post2.area - post.area) <= TOL_AREA
            for k in pre.n_bar:
                ok2 = ok2 and post2.n_bar[k] == pre.n_bar[k]
            ok2 = ok2 and isomorphic(sewn, s)
            stats["sew"] += 1
            stats["sew_ok"] += ok2
        else:
            try:
                ann = cut_interior(s, SurfacePath([side]))
            except Exception:
                continue
            post = functionals(ann)
            drop = (1 if lab else 0) + (1 if s.base.specials.get(t.vertex) else 0)
            ok = abs(post.area - pre.area) <= TOL_AREA
            for k in pre.n_bar:
                want = pre.n_bar[k]
                if k == lab:
                    want -= 1
                if k == s.base.specials.get(t.vertex):
                    want -= 1
                ok = ok and post.n_bar[k] == want
            ok = ok and post.topology == "annulus"
            stats["cutin"] += 1
            stats["cutin_ok"] += ok
            inner = min(ann.walks(), key=len)
            back = sew_annulus(ann, [inner.sides[0]], [inner.sides[1]])
            post2 = functionals(back)
            ok2 = abs(post2.area - pre.area) <= TOL_AREA
            for k in pre.n_bar:
                ok2 = ok2 and post2.n_bar[k] == pre.n_bar[k]
            ok2 = ok2 and isomorphic(back, s)
            stats["annulus"] += 1
            stats["annulus_ok"] += ok2


def test_criterion_4_surgery_deltas():
    rng = random.Random(41)
    stats = {k: 0 for k in ("cut", "cut_ok", "sew", "sew_ok", "cutin", "cutin_ok",
                            "annulus", "annulus_ok", "caseB", "caseB_ok")}
    seed = 0
    t0 = time.time()
    while stats["cut"] + stats["cutin"] < 200 and seed < 400:
        seed += 1
        try:
            s = generate_disk_covering(("c4", seed), special_face_cap=2,
                                       with_marker=(seed % 3 == 0))
        except GenerationStuck:
            continue
        _run_cut_checks(s, rng, stats)
    # sew case B: cut a closed cover open along one edge lift, sew it shut
    for d in (2, 3):
        closed = generate_closed_cyclic_cover(d)
        side = next(x for x in list(closed.pairing)
                    if closed.base.edges[closed.dart_of(x) >> 1].kind == "curve")
        disk = closed.copy()
        disk.unpair(side)
        pre = functionals(disk)
        walk = disk.boundary_walk()
        sewn, case = sew(disk, [walk.sides[0]], [walk.sides[1]])
        post = functionals(sewn)
        seam_specials = sum(
            1 for v in (disk.base.tail(walk.darts[0]), disk.base.head(walk.darts[0]))
            if v in disk.base.specials)
        ok = case == "B" and post.topology == "closed"
        ok = ok and abs(post.area - pre.area) <= TOL_AREA
        ok = ok and post.n_bar_special == pre.n_bar_special + seam_specials
        stats["caseB"] += 1
        stats["caseB_ok"] += ok
    total = stats["cut"] + stats["cutin"]
    all_ok = (stats["cut_ok"] == stats["cut"] and stats["sew_ok"] == stats["sew"]
              and stats["cutin_ok"] == stats["cutin"]
              and stats["annulus_ok"] == stats["annulus"]
              and stats["caseB_ok"] == stats["caseB"])
    _report("criterion 4 (%d surgeries incl. %d annulus + %d closed sews, %.1fs)"
            % (total, stats["annulus"], stats["caseB"], time.time() - t0),
            total >= 200 and all_ok, str(stats))


# -- criteria 5 and 6: the pipeline batch ----------------------------------------------


BATCH = None


def _pipeline_batch():
    global BATCH
    if BATCH is not None:
        return BATCH
    inputs = []
    seed = 0
    while len(inputs) < 100 and seed < 400:
        seed += 1
        try:
            s = generate_disk_covering_filtered(("c5", seed), max_sum=6, max_degree=4)
        except GenerationStuck:
            continue
        inputs.append(s)
    BATCH = inputs
    return BATCH


def _clean(s):
    return all((sh.special or not sh.is_branch)
               and (sh.special or sh.interior or not sh.folded)
               for sh in s.sheet_list())


def _polygonal_segments(steps, tol=1e-9):
    """Maximal geodesic runs of a boundary polyline (cyclic)."""
    poles = []
    for a, b in steps:
        poles.append(GeodesicSegment(a, b).pole)
    n = len(poles)
    breaks = 0
    for i in range(n):
        if np.linalg.norm(np.subtract(poles[i], poles[(i + 1) % n])) > 1e-7:
            breaks += 1
    return max(breaks, 1)


def test_criterion_5_pipeline_certificate():
    inputs = _pipeline_batch()
    assert len(inputs) >= 100
    t0 = time.time()
    failures = []
    results = []
    for k, s in enumerate(inputs):
        try:
            out, trace = normalize(s)
            ok, report = certify(out, s, trace)
            good = ok and _clean(out) and trace.iterations <= trace.iteration_bound
            results.append((s, out, trace))
            if not good:
                failures.append((k, {c: v[0] for c, v in report.items()}))
        except Exception as err:
            failures.append((k, repr(err)))
    elapsed = time.time() - t0
    test_criterion_5_pipeline_certificate.results = results
    _report("criterion 5 (pipeline on %d coverings, %.1fs)" % (len(inputs), elapsed),
            not failures and elapsed < 60.0, str(failures[:3]))


def test_criterion_6_polygonal_closure():
    results = getattr(test_criterion_5_pipeline_certificate, "results", None)
    if results is None:
        test_criterion_5_pipeline_certificate()
        results = test_criterion_5_pipeline_certificate.results
    bad = 0
    for s, out, trace in results:
        rep_in, rep_out = functionals(s), functionals(out)
        n_in = _polygonal_segments(geometric_walk(s))
        n_out = _polygonal_segments(geometric_walk(out))
        ok = n_out <= n_in
        ok = ok and rep_out.boundary_length <= rep_in.boundary_length + TOL_AREA
        ok = ok and all(rep_out.n_bar[k] <= rep_in.n_bar[k] for k in rep_in.n_bar)
        if not ok:
            bad += 1
    _report("criterion 6 (polygonal family closure on %d runs)" % len(results),
            bad == 0, "%d violations" % bad)


# -- criterion 7: geometry kernel -----------------------------------------------------


def test_criterion_7_geometry_kernel():
    # every area is an arrangement face's: build_faces's Gauss-Bonnet sum
    # over the face cycle, the one routine behind the functional A
    from spherecover.arrangement import CurveInput, SpecialSet, build_arrangement
    from conftest import sph
    specials = SpecialSet((sph(1, 1.2), sph(3, 1.2), sph(5, 1.2)))

    def left_area(pts):
        bc = build_arrangement(CurveInput(tuple(pts)), specials)
        return bc.faces[bc.left_face(bc.traversal[0])].area

    n = sphere_point(0, 0, 1)
    e1, e2 = sphere_point(1, 0, 0), sphere_point(0, 1, 0)
    octant = abs(left_area((e1, e2, n)) - math.pi / 2)
    ok = octant <= TOL_OCTANT

    # arrangement areas sum to 4 pi
    for pts in [
        tuple(sph(t, 0.0) for t in (0.0, 2.1, 4.2)),
        (sphere_point(1, 0, 0.3), sphere_point(0, 1, -0.3),
         sphere_point(0, 1, 0.3), sphere_point(1, 0, -0.3)),
    ]:
        bc = build_arrangement(CurveInput(pts), specials)
        total = sum(bc.faces[f].area for f in bc.live_faces())
        ok = ok and abs(total - FOUR_PI) <= TOL_AREA

    rng = np.random.default_rng(7)
    worst_len, worst_area = 0.0, 0.0
    for _ in range(1000):
        r = Rotation.from_axis_angle(rng.standard_normal(3),
                                     rng.uniform(0, 2 * math.pi))
        a = sphere_point(*rng.standard_normal(3))
        b = sphere_point(*rng.standard_normal(3))
        try:
            seg = GeodesicSegment(a, b)
        except Exception:
            continue
        worst_len = max(worst_len, abs(r.apply(seg).length - seg.length))
        worst_area = max(worst_area, abs(
            left_area([r.apply(p) for p in (e1, e2, n)]) - math.pi / 2))
    ok = ok and worst_len <= TOL_ROT and worst_area <= TOL_ROT
    _report("criterion 7 (geometry kernel)", ok,
            "octant %.1e, rot len %.1e, rot area %.1e" % (octant, worst_len, worst_area))
