import importlib
import json
import math
import pathlib
import random

import pytest

from spherecover import io
from spherecover.arrangement import CURVE
from spherecover.generators import generate_disk_covering, GenerationStuck
from spherecover.normalize import normalize
from spherecover.surface import (
    ANNULUS,
    CLOSED,
    DISK,
    SurfaceComplex,
    functionals,
    geometric_walk,
    is_closed_subarc_geometric,
    validate,
)
from spherecover.surgery import (
    ALONG_BOUNDARY,
    FROM_INTERIOR,
    ImagesMismatch,
    NotSimple,
    PreconditionViolated,
    SurfacePath,
    absorb_tip_into_vertex,
    canonical_form,
    cut_interior,
    cut_to_boundary,
    delete_edge_surface,
    insert_chord_surface,
    isomorphic,
    lift_path,
    sew,
    sew_annulus,
    split_edge_surface,
    _split_components,
)

from conftest import (
    equator_triangle_base,
    f4_double_cover,
    f4_with_north,
    identity_hemisphere,
    south_face,
    sph,
)

# the module (the package's ``normalize`` attribute is the function)
nm = importlib.import_module("spherecover.normalize")

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"


def _sheet_of(s, corner):
    sheets, corner_sheet = s.sheets()
    return sheets[corner_sheet[corner]]


def _cut_candidates(s, want_special_end=None, boundary_start=True):
    """Paired sides usable as single-edge cut paths."""
    sheets, corner_sheet = s.sheets()
    out = []
    for side in s.sides():
        if side not in s.pairing:
            continue
        c, p = side
        tail = sheets[corner_sheet[(c, p)]]
        head = sheets[corner_sheet[(c, (p + 1) % len(s.cycle_of(c)))]]
        if boundary_start and tail.interior:
            continue
        if not boundary_start and not tail.interior:
            continue
        if not head.interior:
            continue
        if head.is_branch:
            continue
        if want_special_end is not None and head.special != want_special_end:
            continue
        out.append((side, tail, head))
    return out


def test_lift_path_unbranched(hemisphere):
    s = f4_with_north()
    # from a regular interior sheet toward a neighbour: exactly one lift
    sheets, _ = s.sheets()
    start = next(sh for sh in sheets if sh.interior and sh.multiplicity == 1)
    d0 = next(d for d in s.base.fans[start.vertex])
    res = lift_path(s, [d0], start.index, FROM_INTERIOR)
    assert len(res.lifts) == 1


def test_lift_path_branch_has_d_lifts(f4):
    sheets, _ = f4.sheets()
    branch = next(sh for sh in sheets if sh.is_branch)
    d0 = f4.base.fans[branch.vertex][0]
    res = lift_path(f4, [d0], branch.index, FROM_INTERIOR)
    assert len(res.lifts) == branch.multiplicity == 2
    # both lifts stop on the boundary at the far end of the bridge
    assert res.stop == "hit_boundary"
    ends = {lf.end_sheet for lf in res.lifts}
    assert len(ends) == 2
    # lifts have pairwise disjoint interiors (edge sets disjoint)
    edges = [frozenset(lf.steps[t][1] for t in range(len(lf.steps))) for lf in res.lifts]
    assert edges[0].isdisjoint(edges[1])


def test_lift_along_boundary_runs():
    s = f4_with_north()
    sheets, _ = s.sheets()
    branch = next(sh for sh in sheets if sh.is_branch and not sh.interior)
    d0 = s.dart_of(branch.out_side)
    res = lift_path(s, [d0], branch.index, ALONG_BOUNDARY)
    assert len(res.lifts) == branch.multiplicity
    assert res.lifts[0].is_boundary_run
    for lf in res.lifts[1:]:
        assert not lf.is_boundary_run


def test_cut_to_boundary_deltas():
    s = f4_with_north()
    cands = _cut_candidates(s, want_special_end=False)
    side, tail, head = cands[0]
    pre = functionals(s)
    cut = cut_to_boundary(s, SurfacePath([side]))
    post = functionals(cut)
    ell = s.base.length(s.dart_of(side))
    assert post.boundary_length == pytest.approx(
        pre.boundary_length + 2 * ell, abs=1e-9)
    assert post.area == pytest.approx(pre.area, abs=1e-12)
    assert post.n_bar == pre.n_bar
    assert cut.topology_kind() == DISK


def test_cut_to_scaffold_special_drops_nbar():
    s = f4_with_north()
    cands = _cut_candidates(s, want_special_end=True)
    assert cands, "expected a cuttable scaffold edge into a special tip"
    side, tail, head = cands[0]
    lab = s.base.specials[head.vertex]
    pre = functionals(s)
    cut = cut_to_boundary(s, SurfacePath([side]))
    post = functionals(cut)
    assert post.n_bar[lab] == pre.n_bar[lab] - 1
    for other in pre.n_bar:
        if other != lab:
            assert post.n_bar[other] == pre.n_bar[other]


def test_cut_zero_length_path_rejected(f4):
    with pytest.raises(NotSimple):
        SurfacePath([])


def test_cut_interior_annulus_and_back():
    s = f4_with_north()
    cands = _cut_candidates(s, boundary_start=False)
    assert cands
    side, tail, head = cands[0]
    ann = cut_interior(s, SurfacePath([side]))
    assert ann.topology_kind() == ANNULUS
    assert ann.euler_characteristic() == 0
    # exterior boundary unchanged: the original walk is one of the two walks
    walks = sorted(ann.walks(), key=len)
    inner, outer = walks[0], walks[-1]
    assert tuple(sorted(outer.darts)) == tuple(sorted(s.boundary_walk().darts))
    # inner boundary carries the doubled cut arc
    assert len(inner) == 2
    d = s.dart_of(side)
    assert sorted(inner.darts) == sorted((d, d ^ 1))
    # sew back: inverse pair
    back = sew_annulus(ann, [inner.sides[0]], [inner.sides[1]])
    assert isomorphic(back, s)


def test_sew_after_cut_restores(f4):
    s = f4_with_north()
    for side, tail, head in _cut_candidates(s)[:3]:
        cut = cut_to_boundary(s, SurfacePath([side]))
        # the freed pair sits adjacent around the slit tip in the new walk
        freed = [x for x in cut.free_sides() if x not in s.free_sides()
                 or x in (side, s.pairing[side])]
        a = side if side in cut.free_sides() else None
        assert a is not None
        b = cut.walk_successor(a)
        out, case = sew(cut, [a], [b])
        assert case == "A"
        assert isomorphic(out, s)


def test_sew_case_b_closes():
    # cut a closed cyclic cover open along one edge lift, then sew it back
    from spherecover.generators import generate_closed_cyclic_cover
    closed = generate_closed_cyclic_cover(2)
    side = next(x for x in list(closed.pairing)
                if closed.base.edges[closed.dart_of(x) >> 1].kind == "curve")
    disk = closed.copy()
    disk.unpair(side)
    assert disk.topology_kind() == DISK
    walk = disk.boundary_walk()
    assert len(walk) == 2
    out, case = sew(disk, [walk.sides[0]], [walk.sides[1]])
    assert case == "B"
    assert out.topology_kind() == CLOSED
    rep = functionals(out)
    assert rep.reduced_area <= -8 * math.pi + 1e-9


def test_sew_mismatch_rejected():
    s = f4_with_north()
    walk = s.boundary_walk().sides
    # find two adjacent walk sides whose darts are NOT mutually reverse
    for i in range(len(walk)):
        a, b = walk[i], walk[(i + 1) % len(walk)]
        if s.dart_of(b) != (s.dart_of(a) ^ 1):
            with pytest.raises(ImagesMismatch):
                sew(s, [a], [b])
            return
    pytest.skip("all adjacent pairs matched")


def test_sew_annulus_mismatched_split_rejected():
    s = f4_with_north()
    cands = _cut_candidates(s, boundary_start=False)
    side = cands[0][0]
    ann = cut_interior(s, SurfacePath([side]))
    walks = sorted(ann.walks(), key=len)
    inner = walks[0]
    with pytest.raises(ImagesMismatch):
        sew_annulus(ann, [inner.sides[0]], [inner.sides[0]])


def test_cut_sew_random_round_trips():
    rng = random.Random(20240)
    trips = 0
    seed = 0
    while trips < 25 and seed < 120:
        seed += 1
        try:
            s = generate_disk_covering(("roundtrip", seed), special_face_cap=1,
                                       with_marker=True)
        except GenerationStuck:
            continue
        cands = _cut_candidates(s)
        if not cands:
            continue
        side, tail, head = cands[rng.randrange(len(cands))]
        try:
            cut = cut_to_boundary(s, SurfacePath([side]))
        except Exception:
            continue
        a = side
        b = cut.walk_successor(a)
        out, case = sew(cut, [a], [b])
        assert case == "A"
        assert isomorphic(out, s)
        trips += 1
    assert trips >= 25


def test_canonical_form_distinguishes():
    s1 = f4_double_cover()
    s2 = f4_with_north()
    assert canonical_form(s1) == canonical_form(s1)
    assert not isomorphic(s1, s2)


def test_split_components_in_root_order():
    bc, _ = equator_triangle_base([sph(2.4, 1.25), sph(3.3, 1.25), sph(4.2, 1.25)])
    f_s = south_face(bc)
    f_n = next(f for f in bc.live_faces() if f != f_s)
    # copy 0 glued to copy 3 over one curve edge; copies 1 and 2 stay unglued
    s = SurfaceComplex(bc, [f_s, f_n, f_s, f_n], {})
    e = next(e for e in bc.live_edges() if bc.edges[e].kind == "curve")
    d = 2 * e if bc.face_of_dart(2 * e) == f_s else 2 * e + 1
    s.pair((0, bc.faces[f_s].cycle.index(d)), (3, bc.faces[f_n].cycle.index(d ^ 1)))
    assert s.copy_components() == [[0, 3], [1], [2]]
    assert "surface is not connected" in validate(s, strict_scaffold=False)
    pieces = _split_components(s)
    assert [p.copies for p in pieces] == [[f_s, f_n], [f_n], [f_s]]
    assert [len(p.pairing) for p in pieces] == [2, 0, 0]
    assert all(p.connected() for p in pieces)


def _absorb_calls(monkeypatch):
    """(input, tip, target, output) of every ``absorb_tip_into_vertex`` call
    while ``normalize`` runs on the stored batch corpus."""
    calls = []

    def recording(s, tip, target):
        out = absorb_tip_into_vertex(s, tip, target)
        calls.append((s, tip, target, out))
        return out
    monkeypatch.setattr(nm, "absorb_tip_into_vertex", recording)
    for line in (CORPUS / "batch.jsonl").read_text().splitlines():
        normalize(io.surface_from_dict(json.loads(line)))
    return calls


def _cyclic_equal(a, b):
    return len(a) == len(b) and any(a[i:] + a[:i] == b for i in range(len(a)))


def test_absorb_tip_keeps_the_functionals_and_the_walk(monkeypatch):
    calls = _absorb_calls(monkeypatch)
    assert len(calls) == 14
    for s, tip, target, out in calls:
        label = s.base.specials[tip]
        # the slit hangs off another vertex: at least one dart is swept
        assert s.base.head(s.base.fans[tip][0]) != target
        assert out.base.vertices[tip] is None and out.base.fans[tip] == []
        assert tip not in out.base.specials and out.base.specials[target] == label
        pre, post = functionals(s), functionals(out)
        assert post.area == pytest.approx(pre.area, abs=1e-9)
        assert post.boundary_length == pytest.approx(pre.boundary_length, abs=1e-9)
        assert post.covering_sum == pre.covering_sum
        assert post.n_bar == pre.n_bar
        assert _cyclic_equal(out.boundary_walk().darts, s.boundary_walk().darts)
    s, tip, target, _ = calls[0]
    with pytest.raises(PreconditionViolated, match="not a scaffold tip"):
        absorb_tip_into_vertex(s, target, tip)


def test_absorb_branched_tip_lands_its_branching_on_the_target(monkeypatch):
    """Stress seed 130 absorbs a special tip whose sheet has multiplicity 2:
    the branching moves onto the target's sheet, and no other vertex's
    sheets change."""
    calls = []

    def recording(s, tip, target):
        out = absorb_tip_into_vertex(s, tip, target)
        calls.append((s, tip, target, out))
        return out
    monkeypatch.setattr(nm, "absorb_tip_into_vertex", recording)
    seeds = json.loads((CORPUS / "manifest.json").read_text())["corpora"]["stress"]["seeds"]
    line = (CORPUS / "stress.jsonl").read_text().splitlines()[seeds.index(130)]
    normalize(io.surface_from_dict(json.loads(line)))
    assert len(calls) == 1
    s, tip, target, out = calls[0]

    def sheets(x, v):
        return sorted((sh.multiplicity, sh.interior) for sh in x.sheet_list() if sh.vertex == v)

    assert sheets(s, tip) == [(2, True)]
    assert sheets(s, target).count((1, True)) == 2
    assert sheets(out, target) == [(1, False)] * 3 + [(2, True)]
    assert all(sheets(out, v) == sheets(s, v)
               for v in s.base.live_vertices() if v not in (tip, target))
    pre, post = functionals(s), functionals(out)
    assert post.n_bar == pre.n_bar and post.covering_sum == pre.covering_sum


def _batch_line(i):
    return io.surface_from_dict(json.loads((CORPUS / "batch.jsonl").read_text().splitlines()[i]))


# the f4 double cover, and batch line 8, whose north face carries three of
# its four copies
BASE_EDIT_CASES = {"f4": f4_double_cover, "batch8": lambda: _batch_line(8)}


def _sheet_multiset(s):
    return sorted((sh.vertex, sh.multiplicity, sh.interior) for sh in s.sheet_list())


@pytest.mark.parametrize("case", sorted(BASE_EDIT_CASES))
def test_chord_in_then_out_restores_the_surface(case):
    s = BASE_EDIT_CASES[case]()
    bc = s.base
    face = max(bc.live_faces(), key=s.n_face().get)
    cyc = bc.faces[face].cycle
    pos_b = next(p for p in range(2, len(cyc)) if bc.tail(cyc[p]) != bc.tail(cyc[0]))
    work, e, side_map = insert_chord_surface(s, face, 0, pos_b)
    affected = [c for c in s.live_copy_ids() if s.copies[c] == face]
    assert sorted(side_map) == [(c, p) for c in affected for p in range(len(cyc))]
    for old, new in side_map.items():
        assert [work.dart_of(x) for x in new] == [s.dart_of(old)]
    out = delete_edge_surface(work, e)
    pre, post = functionals(s), functionals(out)
    assert (post.n_bar, post.covering_sum) == (pre.n_bar, pre.covering_sum)
    assert _sheet_multiset(out) == _sheet_multiset(s)
    assert _cyclic_equal(out.boundary_walk().darts, s.boundary_walk().darts)
    assert abs(post.area - pre.area) <= 1e-12
    assert abs(post.boundary_length - pre.boundary_length) <= 1e-12


@pytest.mark.parametrize("case", sorted(BASE_EDIT_CASES))
def test_split_edge_halves_carry_the_old_edge(case):
    s = BASE_EDIT_CASES[case]()
    mult = s.multiplicities()
    e = next(e for e in s.base.live_edges() if s.base.edges[e].kind == CURVE and sum(mult[e]))
    old = s.base.edges[e]
    out, x = split_edge_surface(s, e, s.base.dart_segment(2 * e).point_at(0.5))
    e1, e2 = sorted(set(out.base.live_edges()) - set(s.base.live_edges()))
    assert (out.base.edges[e1].a, out.base.edges[e1].b) == (old.a, x)
    assert (out.base.edges[e2].a, out.base.edges[e2].b) == (x, old.b)
    assert out.multiplicities()[e1] == out.multiplicities()[e2] == mult[e]
    pre, post = functionals(s), functionals(out)
    assert (post.n_bar, post.covering_sum, post.b_special, post.b_nonspecial) == \
        (pre.n_bar, pre.covering_sum, pre.b_special, pre.b_nonspecial)
    assert abs(post.area - pre.area) <= 1e-12
    assert abs(post.boundary_length - pre.boundary_length) <= 1e-12
    halves = {2 * e: [2 * e1, 2 * e2], 2 * e + 1: [2 * e2 + 1, 2 * e1 + 1]}
    word = tuple(h for d in s.boundary_walk().darts for h in halves.get(d, [d]))
    assert _cyclic_equal(out.boundary_walk().darts, word)


def test_delete_edge_with_a_free_side_is_refused():
    # a boundary arc of batch line 8
    s = _batch_line(8)
    e = next(e for e, (m_plus, _) in s.multiplicities().items() if m_plus)
    with pytest.raises(PreconditionViolated, match="free side over edge %d;" % e):
        delete_edge_surface(s, e)
    # a transient chord of f4 with one of its two pairings undone
    s = f4_double_cover()
    work, e, _ = insert_chord_surface(s, s.copies[0], 0, 3)
    work.unpair((len(s.copies), 0))
    with pytest.raises(PreconditionViolated, match="free side over edge %d;" % e):
        delete_edge_surface(work, e)
