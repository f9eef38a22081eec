import importlib
import json
import math
import pathlib
import random

import numpy as np

import pytest
from hypothesis import assume, given, settings, strategies as st

from spherecover.arrangement import ArrangementError, BaseComplex
from spherecover.generators import (
    GenerationStuck,
    _close_scaffold_sides,
    generate_disk_covering_filtered,
)
from spherecover import geometry, io
from spherecover.geometry import (
    GeodesicSegment,
    GeometryError,
    NoContact,
    Rotation,
    angle_between,
    contact_angles,
    cross,
    neg,
    points_coincide,
    unit,
)
from spherecover.surface import (
    CLOSED,
    DISK,
    SUBARC_TOL,
    InvalidSurface,
    SurfaceComplex,
    SurfaceError,
    closed_subarc_match,
    functionals,
    geometric_walk,
    is_better_than,
    is_closed_subarc_geometric,
    validate,
)
from spherecover.cli import EXIT_FAIL, main as cli_main
from spherecover.surgery import PreconditionViolated, SurfacePath, cut_to_boundary
from spherecover.normalize import (
    NegativeH,
    PipelineTrace,
    certify,
    declared_iteration_bound,
    normalize,
    push_interior_branch,
    remove_one_fold,
    rotate_to_touch_special,
    sink_branch_to_special,
    slide_boundary_branch,
    _boundary_nonspecial_branches,
    _interior_nonspecial_branches,
    _nonspecial_folds,
    PipelineError,
)

from conftest import (
    add_south_tip,
    double_cover_cut,
    equator_triangle_base,
    f4_double_cover,
    f4_with_north,
    hunt_module,
    identity_hemisphere,
    sph,
    south_face,
)

# the module (the package's ``normalize`` attribute is the function)
nm = importlib.import_module("spherecover.normalize")


def _clean(s):
    return all((sh.special or not sh.is_branch)
               and (sh.special or sh.interior or not sh.folded)
               for sh in s.sheet_list())


def _driven(s):
    """The pipeline's loop on ``s`` without ``normalize``'s H >= 0 gate:
    (output, trace)."""
    trace = PipelineTrace(iteration_bound=declared_iteration_bound(s))
    return nm._drive(s, trace), trace


def _ops(trace, op):
    return [st for st in trace.steps if st.op == op]


# -- fold removal ---------------------------------------------------------------


def _plant_fold(s):
    """Cut one lift of the marker bridge open: the tip becomes a folded point."""
    sheets, corner_sheet = s.sheets()
    for side in s.sides():
        if side not in s.pairing:
            continue
        c, p = side
        head = sheets[corner_sheet[(c, (p + 1) % len(s.cycle_of(c)))]]
        tail = sheets[corner_sheet[(c, p)]]
        if tail.interior or not head.interior or head.special:
            continue
        return cut_to_boundary(s, SurfacePath([side])), s.base.length(s.dart_of(side))
    raise RuntimeError("no fold plant available")


def test_remove_fold_restores_surface(f4):
    slit, ell = _plant_fold(f4)
    assert len(_nonspecial_folds(slit)) >= 1
    pre = functionals(slit)
    out, case, other = remove_one_fold(slit)
    assert (case, other) == ("glue-A", None)
    post = functionals(out)
    assert not _nonspecial_folds(out)
    # fold of length ell: L drops by 2*ell, area and coverings unchanged
    assert post.boundary_length == pytest.approx(
        pre.boundary_length - 2 * ell, abs=1e-9)
    assert post.area == pytest.approx(pre.area, abs=1e-12)
    assert post.n_bar == pre.n_bar
    assert post.ratio > pre.ratio


def test_remove_fold_identity_when_clean(f4):
    # no fold, no fold step: the pipeline never sews f4, and the step refuses
    assert not _nonspecial_folds(f4)
    _, trace = normalize(f4)
    assert trace.steps and not _ops(trace, "remove_fold")
    with pytest.raises(PreconditionViolated):
        remove_one_fold(f4)


def test_remove_fold_needs_nonnegative_h():
    # a fold on a surface with H < 0: normalize refuses it before any step
    worse, _ = _plant_fold(f4_with_north(a1_south=True))
    rep = functionals(worse)
    assert rep.ratio < 0 and _nonspecial_folds(worse)
    with pytest.raises(NegativeH) as err:
        normalize(worse)
    assert getattr(err.value, "trace", None) is None


# -- interior pushes ------------------------------------------------------------


def test_push_case5_on_f4(f4):
    branches = _interior_nonspecial_branches(f4)
    assert len(branches) == 1
    pre = functionals(f4)
    out, case, other = push_interior_branch(f4, branches[0].index)
    assert case == "5"
    assert other is not None and other.topology_kind() == DISK
    post = functionals(out)
    assert post.covering_sum < pre.covering_sum
    assert post.ratio >= pre.ratio - 1e-9
    assert not _interior_nonspecial_branches(out)


def test_push_case3_moves_branch_to_boundary():
    s = f4_with_north(a1_south=False)
    branches = _interior_nonspecial_branches(s)
    pre = functionals(s)
    out, case, other = push_interior_branch(s, branches[0].index)
    assert case in ("3", "4")
    assert other is None
    post = functionals(out)
    assert post.covering_sum == pre.covering_sum
    assert post.boundary_length == pytest.approx(pre.boundary_length, abs=1e-9)
    if case == "3":
        assert _boundary_nonspecial_branches(out)


def test_push_case2_splits_closed():
    s = double_cover_cut([("marker", (0.7, -0.7)), ("a4", (1.2, -0.6))],
                         {"marker", "a4"}, cut_edge_idx=1)
    assert validate(s) == [] and s.topology_kind() == DISK
    branches = _interior_nonspecial_branches(s)
    pre = functionals(s)
    out, case, other = push_interior_branch(s, branches[0].index)
    assert case == "2"
    assert other is not None and other.topology_kind() == CLOSED
    # split-off closed piece obeys the closed-surface identity
    rep = functionals(other)
    assert rep.reduced_area == pytest.approx(
        -8 * math.pi - 4 * math.pi * rep.b_nonspecial, abs=1e-9)
    post = functionals(out)
    assert post.covering_sum < pre.covering_sum


def test_push_case4_sinks_into_special():
    s = double_cover_cut(
        [("marker", (0.7, -0.7)), ("marker", (1.2, -0.6)), ("a4", (0.95, -0.75))],
        {"marker"}, cut_edge_idx=1)
    assert validate(s) == []
    branches = _interior_nonspecial_branches(s)
    pre = functionals(s)
    out, case, other = push_interior_branch(s, branches[0].index)
    assert case == "4"
    assert other is None
    post = functionals(out)
    assert post.n_bar["a4"] == pre.n_bar["a4"] - 1
    assert post.covering_sum == pre.covering_sum
    # a special branch point over a4 now exists
    assert any(sh.special and sh.is_branch and sh.interior
               for sh in out.sheet_list())


def test_clear_interior_branches_terminates():
    s = double_cover_cut(
        [("marker", (0.7, -0.7)), ("marker", (1.2, -0.6)), ("a4", (0.95, -0.75))],
        {"marker"}, cut_edge_idx=1)
    branches = _interior_nonspecial_branches(s)
    out, case, other = push_interior_branch(s, branches[0].index)
    assert other is not None or len(_interior_nonspecial_branches(out)) < len(branches)
    # the driver pushes until none is left, one pass per push
    s = f4_with_north(a1_south=False)
    out, trace = _driven(s)
    assert _ops(trace, "push_interior_branch")
    assert trace.iterations == len(trace.steps) + 1 <= trace.iteration_bound
    assert not _interior_nonspecial_branches(out)


def _stress_covering(seed):
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    i = manifest["corpora"]["stress"]["seeds"].index(seed)
    return io.surface_from_dict(json.loads((CORPUS / "stress.jsonl").read_text().splitlines()[i]))


# On these stress coverings every other vertex of the branch tip's face
# carries a branching sheet, so no base edge from the tip avoids the other
# branch values; the face route crosses one edge instead.
@pytest.mark.parametrize("seed", [15, 56, 182])
def test_push_routes_across_one_edge_when_no_edge_path_exists(seed, monkeypatch):
    routes, pushes = [], []
    lay, push = nm._lay_route, nm.push_interior_branch

    def laid(*args):
        routes.append(lay(*args))
        return routes[-1]

    def pushed(s, sheet_index):
        out = push(s, sheet_index)
        pushes.append((s, s.sheets()[0][sheet_index], out[0], routes[-1]))
        return out
    monkeypatch.setattr(nm, "_lay_route", laid)
    monkeypatch.setattr(nm, "push_interior_branch", pushed)
    s = _stress_covering(seed)
    out, trace = normalize(s)
    assert certify(out, s, trace)[0]

    def boxed_in(pre, X):
        tip_face = pre.base.face_of_dart(pre.base.fans[X.vertex][0])
        cycle = {pre.base.tail(d) for d in pre.base.faces[tip_face].cycle} - {X.vertex}
        return cycle <= {sh.vertex for sh in pre.sheet_list() if sh.is_branch}
    boxed = [p for p in pushes if boxed_in(p[0], p[1])]
    assert boxed
    for pre, X, post, (work, chords, _, darts) in boxed:
        # one chord on each side of the one crossed edge, split at vertex x
        assert len(chords) == 2 and len(work.base.vertices) == len(pre.base.vertices) + 1
        x = work.base.head(darts[0])
        assert work.base.tail(darts[1]) == x == len(pre.base.vertices)
        # no chord is left after the step
        assert all(post.base.edges[e] is None for e in chords)
        # the route meets no branch value: it passes the split vertex on regular sheets
        over_x = [sh.multiplicity for sh in work.sheet_list() if sh.vertex == x]
        assert over_x and set(over_x) == {1}


# -- boundary slides -------------------------------------------------------------


def _boundary_branch_state():
    s = f4_with_north(a1_south=False)
    out, case, other = push_interior_branch(
        s, _interior_nonspecial_branches(s)[0].index)
    assert _boundary_nonspecial_branches(out)
    return out


def test_slide_preserves_walk_or_splits():
    s = _boundary_branch_state()
    b = _boundary_nonspecial_branches(s)[0]
    pre = functionals(s)
    out, case, other = slide_boundary_branch(s, b.index)
    assert case in ("1", "2", "3", "4")
    post = functionals(out)
    assert post.covering_sum <= pre.covering_sum
    if case == "4":
        assert post.boundary_length == pytest.approx(pre.boundary_length, abs=1e-9)
        assert tuple(out.boundary_walk().darts) != ()


def test_sweep_terminates():
    s = _boundary_branch_state()
    out, trace = _driven(s)
    slides = _ops(trace, "slide_boundary_branch")
    assert slides
    for st in slides:
        assert st.certificate["ok"]
        if st.case == "4":
            assert st.post["L"] == pytest.approx(st.pre["L"], abs=1e-9)
    assert trace.iterations == len(trace.steps) + 1 <= trace.iteration_bound
    assert not _boundary_nonspecial_branches(out)


def test_iteration_bound_stops_a_slide_that_makes_no_progress(monkeypatch):
    """Every step is one driver pass: a slide that returns its input runs
    into the iteration bound instead of spinning."""
    line = (CORPUS / "stress.jsonl").read_text().splitlines()[0]
    s = io.surface_from_dict(json.loads(line))
    _, trace = normalize(s)
    assert _ops(trace, "slide_boundary_branch")
    bound = declared_iteration_bound(s)
    calls = []

    def stalled(cur, sheet_index):
        calls.append(sheet_index)
        assert len(calls) < 10 * bound, "slides are not bounded"
        return cur, "4", None
    monkeypatch.setattr(nm, "slide_boundary_branch", stalled)
    with pytest.raises(PipelineError, match="iteration bound %d exceeded" % bound) as err:
        normalize(s)
    assert err.value.trace.iterations == bound + 1


# -- sinking ----------------------------------------------------------------------


def test_sink_star_rewire_route():
    s = f4_with_north(a1_south=True)  # boundary branch present by construction
    [b] = _boundary_nonspecial_branches(s)
    # the driver's sink test: no special on the walk, and a walk arc with a
    # special tip in its left face
    tips = s.base.special_tips_by_face()
    assert not any(s.base.tail(d) in s.base.specials for d in s.boundary_walk().darts)
    assert any(s.base.left_face(d) in tips for d in s.boundary_walk().darts)
    face = s.base.left_face(s.dart_of(b.in_side))
    pre = functionals(s)
    out, case, other = sink_branch_to_special(s, b.index, tips[face][0])
    post = functionals(out)
    assert (case, other) == ("2", None)
    assert not _boundary_nonspecial_branches(out)
    assert post.n_bar["a1"] == pre.n_bar["a1"] - (b.multiplicity - 1) < pre.n_bar["a1"]
    assert validate(out) == []


def test_sink_handles_chord_refined_push_first():
    s = f4_with_north(marker_at=0, a1_south=True)
    out, trace = _driven(s)
    assert [st.op for st in trace.steps] == ["push_interior_branch", "sink_branch_to_special"]
    for st in trace.steps:
        assert st.post["n_bar"]["a1"] <= st.pre["n_bar"]["a1"]
    assert _clean(out)
    assert validate(out) == []


# -- rotation ----------------------------------------------------------------------


def test_rotation_preserves_functionals(f4):
    pre = functionals(f4)
    out, rho = rotate_to_touch_special(f4)
    post = functionals(out)
    assert post.area == pytest.approx(pre.area, abs=1e-9)
    assert post.boundary_length == pytest.approx(pre.boundary_length, abs=1e-9)
    assert post.covering_sum == pre.covering_sum
    assert post.n_bar == pre.n_bar
    assert not np.allclose(rho.matrix, np.eye(3), rtol=0, atol=1e-11)
    # boundary now passes through a special vertex
    walk_vs = {out.base.tail(d) for d in out.boundary_walk().darts}
    assert any(v in out.base.specials for v in walk_vs)
    # in the specials-moved frame the curve never moves: the refined walk is a
    # closed subarc of the original without any rotation
    ok, _ = is_closed_subarc_geometric(geometric_walk(out), geometric_walk(f4))
    assert ok
    # the contact arc is never traversed backward
    mult = out.multiplicities()
    contact_edges = [e for e in out.base.live_edges()
                     if out.base.edges[e].kind == "curve"
                     and (out.base.tail(2 * e) in out.base.specials
                          or out.base.head(2 * e) in out.base.specials)]
    for e in contact_edges:
        assert min(mult[e]) == 0


def test_rotation_rejected_when_special_on_left():
    s = f4_with_north(a1_south=True)
    from spherecover.normalize import PipelineError
    from spherecover.geometry import NoContact
    # hypothesis fails: a boundary arc has a special on its left; the driver
    # never calls rotation here, and sink is the applicable move
    tips = s.base.special_tips_by_face()
    assert not any(s.base.tail(d) in s.base.specials for d in s.boundary_walk().darts)
    assert any(s.base.left_face(d) in tips for d in s.boundary_walk().darts)


# -- the full pipeline ---------------------------------------------------------------


def test_normalize_identity_is_trivial(hemisphere):
    out, trace = normalize(hemisphere)
    assert trace.steps == []
    ok, report = certify(out, hemisphere, trace)
    assert ok


def test_normalize_f4_certificate(f4):
    pre = functionals(f4)
    out, trace = normalize(f4)
    post = functionals(out)
    assert _clean(out)
    assert post.ratio >= pre.ratio - 1e-9
    assert post.n_bar["a1"] <= pre.n_bar["a1"]
    ok, report = certify(out, f4, trace)
    assert ok, report
    assert trace.iterations <= trace.iteration_bound


def test_normalize_requires_nonnegative_h():
    s = f4_with_north(a1_south=True)
    with pytest.raises(NegativeH):
        normalize(s)


def test_normalize_monotone_trace(f4):
    s, _ = _plant_fold(f4)   # fold removal + push: a multi-step trace
    out, trace = normalize(s)
    assert _clean(out)
    hs = [st.pre["H"] for st in trace.steps] + [functionals(out).ratio]
    for a, b in zip(hs, hs[1:]):
        assert b >= a - 1e-9
    sums = [st.pre["sum"] for st in trace.steps] + [functionals(out).covering_sum]
    for a, b in zip(sums, sums[1:]):
        assert b <= a
    for st in trace.steps:
        assert st.certificate["ok"], (st.op, st.case, st.certificate)


def test_a_step_that_fails_its_certificate_stops_the_pipeline(monkeypatch):
    clauses = nm.better_than_clauses

    def h_falls(new, old):
        report = clauses(new, old)
        report["H"] = (False,) + report["H"][1:]
        return report

    monkeypatch.setattr(nm, "better_than_clauses", h_falls)
    with pytest.raises(PipelineError, match="certificate: H$") as err:
        normalize(f4_double_cover())
    steps = err.value.trace.steps
    assert len(steps) == 1
    assert steps[-1].certificate == {"H": False, "sum": True, "n_bar": True,
                                     "boundary": True, "ok": False}


def test_normalize_batch_small():
    done = 0
    seed = 0
    while done < 12 and seed < 60:
        seed += 1
        try:
            s = generate_disk_covering_filtered(("unit", seed), max_sum=6, max_degree=4)
        except GenerationStuck:
            continue
        out, trace = normalize(s)
        ok, report = certify(out, s, trace)
        assert ok and _clean(out), (seed, report)
        done += 1
    assert done >= 12


@pytest.mark.parametrize("name, err", [("contact_angles", NoContact("never meets")),
                                       ("unit", GeometryError("zero vector"))])
def test_a_failed_rotation_search_is_a_pipeline_error(name, err, tmp_path, capsys, monkeypatch):
    # batch line 8 takes a rotation first (then slide 3); when the search
    # fails, normalize, the CLI and the hunt sweep each see one typed error
    def fail(*args):
        raise err
    monkeypatch.setattr(nm, name, fail)
    s = io.surface_from_dict(json.loads((CORPUS / "batch.jsonl").read_text().splitlines()[8]))
    with pytest.raises(PipelineError, match="^rotation search failed: ") as got:
        normalize(s)
    assert isinstance(got.value.__cause__, type(err))
    assert (got.value.trace.steps, got.value.trace.iterations) == ([], 1)

    src, out = tmp_path / "in.json", tmp_path / "out.json"
    io.save_surface(s, src)
    assert cli_main(["normalize", str(src), "--out", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().err.splitlines() == ["normalize failed: " + str(got.value)]
    assert not out.exists()

    # hunt seed 100011 also starts with a rotation
    rec = hunt_module().hunt_line(100011)
    assert (rec["outcome"], rec["steps"], rec["iterations"]) == ("PipelineError", [], 1)


@pytest.mark.parametrize("err", [ArrangementError("edge 5 is gone"),
                                 GeometryError("zero vector")])
def test_a_failed_base_edit_is_a_pipeline_error(err, tmp_path, capsys, monkeypatch):
    # stress line 2 sews a fold, then pushes along a face route, whose first
    # edge split fails; normalize, the CLI and the hunt sweep each see one
    # typed error
    def fail(*args):
        raise err
    monkeypatch.setattr(BaseComplex, "split_edge", fail)
    s = io.surface_from_dict(json.loads((CORPUS / "stress.jsonl").read_text().splitlines()[2]))
    with pytest.raises(PipelineError, match="^%s: %s$" % (type(err).__name__, err)) as got:
        normalize(s)
    assert got.value.__cause__ is err
    assert [(st.op, st.case) for st in got.value.trace.steps] == [("remove_fold", "glue-A")]
    assert got.value.trace.iterations == 2

    src, out = tmp_path / "in.json", tmp_path / "out.json"
    io.save_surface(s, src)
    assert cli_main(["normalize", str(src), "--out", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().err.splitlines() == ["normalize failed: " + str(got.value)]
    assert not out.exists()

    # hunt seed 100012 starts with a push
    rec = hunt_module().hunt_line(100012)
    assert (rec["outcome"], rec["steps"], rec["iterations"]) == ("PipelineError", [], 1)


@pytest.mark.parametrize("bad", ["one side unpaired", "a side of no copy"])
def test_the_driver_refuses_an_invalid_step(bad, monkeypatch):
    # stress line 21 rotates, then slides (case 4, by star_rewire); the
    # rewire's output no longer validates itself, so the driver must refuse
    # a bad one before it records the slide
    orig = nm.star_rewire

    def broken(s, lifts, start_sheet, boundary_run=None):
        out = orig(s, lifts, start_sheet, boundary_run=boundary_run)
        side = boundary_run[0]  # the run the rewire just paired
        if bad == "one side unpaired":
            del out.pairing[side]  # its partner still names it
        else:
            # an entry for a side of no copy: the walk does not see it
            out.pairing[(len(out.copies), 0)] = side
        out.invalidate()
        return out
    monkeypatch.setattr(nm, "star_rewire", broken)
    if bad == "one side unpaired":
        # the slide's own walk check would trip over the freed side first
        monkeypatch.setattr(nm, "_walk_word_unchanged", lambda *args: True)
    s = io.surface_from_dict(json.loads((CORPUS / "stress.jsonl").read_text().splitlines()[21]))
    with pytest.raises(InvalidSurface, match="^slide_boundary_branch: ") as got:
        normalize(s)
    assert [(st.op, st.case) for st in got.value.trace.steps] == [
        ("rotate_to_touch_special", "rotation")]


def test_a_rewire_with_a_dropped_partner_stops_the_slides_walk_check(monkeypatch):
    # stress line 21's slide with the rewired run's first side still naming
    # its partner and that partner unpaired: the slide's own walk check
    # raises once walk_successor passes its step bound, where it looped
    orig = nm.star_rewire

    def broken(s, lifts, start_sheet, boundary_run=None):
        out = orig(s, lifts, start_sheet, boundary_run=boundary_run)
        out.pairing.pop(out.pairing[boundary_run[0]])
        out.invalidate()
        return out
    monkeypatch.setattr(nm, "star_rewire", broken)
    s = io.surface_from_dict(json.loads((CORPUS / "stress.jsonl").read_text().splitlines()[21]))
    with pytest.raises(InvalidSurface, match="^no boundary successor of side ") as got:
        normalize(s)
    assert [(st.op, st.case) for st in got.value.trace.steps] == [
        ("rotate_to_touch_special", "rotation")]


def test_rotation_vertex_contact_jittered():
    # a special placed straight above a curve vertex: the unjittered axis
    # would make first contact at an arc endpoint; the retry loop must land
    # the contact strictly inside an arc
    bc, pts = equator_triangle_base([sph(0.0, 1.0), sph(3.3, 1.25), sph(4.2, 1.25)])
    s = SurfaceComplex(bc, [south_face(bc)], {})
    _close_scaffold_sides(s)
    out, rho = rotate_to_touch_special(s)
    walk_specials = [v for v in
                     {out.base.tail(d) for d in out.boundary_walk().darts}
                     if v in out.base.specials]
    assert walk_specials
    v = walk_specials[0]
    # contact vertex is not one of the original triangle corners
    for p in pts:
        assert not np.allclose(out.base.vertices[v], p, atol=1e-9)


# -- the geometric closed-subarc check against its one-pass-per-use reference --

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"


def ref_key(points, p):
    """PointRegistry.key by linear scan alone."""
    for i, q in enumerate(points):
        if points_coincide(p, q, SUBARC_TOL):
            return i
    points.append(unit(p))
    return len(points) - 1


def ref_geometric_walk(s, rot=None):
    """geometric_walk with the rotation applied at both ends of every step."""
    r = rot if rot is not None else Rotation.identity()
    out = []
    for d in s.boundary_walk().darts:
        a = s.base.vertices[s.base.tail(d)]
        b = s.base.vertices[s.base.head(d)]
        out.append((r.apply(a), r.apply(b)))
    return out


def ref_is_closed_subarc_geometric(steps2, steps1):
    """is_closed_subarc_geometric doing every step, cut and point key anew."""
    points = []
    segs1 = [GeodesicSegment(a, b) for a, b in steps1]
    segs2 = [GeodesicSegment(a, b) for a, b in steps2]
    cuts = [unit(a) for a, b in steps1] + [unit(b) for a, b in steps1]
    cuts += [unit(a) for a, b in steps2] + [unit(b) for a, b in steps2]

    def refine(segs):
        out = []
        for seg in segs:
            inside = []
            for p in cuts:
                t = seg.param_of(p, SUBARC_TOL)
                if t is not None and SUBARC_TOL < t * seg.length and (1 - t) * seg.length > SUBARC_TOL:
                    inside.append((t, p))
            inside.sort(key=lambda x: x[0])
            pts = [seg.a] + [p for _, p in inside] + [seg.b]
            for a, b in zip(pts, pts[1:]):
                if not points_coincide(a, b, SUBARC_TOL):
                    out.append(GeodesicSegment(a, b))
        return out

    f1, f2 = refine(segs1), refine(segs2)

    def word(segs):
        syms, juncs = [], []
        for seg in segs:
            ka = ref_key(points, seg.a)
            kb = ref_key(points, seg.b)
            km = ref_key(points, seg.point_at(0.5))
            syms.append((ka, km, kb))
            juncs.append(ka)
        return syms, juncs

    w1, j1 = word(f1)
    w2, _ = word(f2)
    witness = closed_subarc_match(w1, j1, w2)
    return (witness is not None), witness


def assert_subarc_as_reference(steps2, steps1):
    got = is_closed_subarc_geometric(steps2, steps1)
    assert got == ref_is_closed_subarc_geometric(steps2, steps1)
    return got


@pytest.mark.parametrize("name", ["batch", "stress"])
def test_subarc_check_matches_reference_on_corpus(name):
    passed = 0
    for line in (CORPUS / (name + ".jsonl")).read_text().splitlines():
        s = io.surface_from_dict(json.loads(line))
        try:
            out, trace = normalize(s)
        except SurfaceError:
            continue
        rot = trace.composed_rotation()
        steps1, steps2 = geometric_walk(s, rot), geometric_walk(out)
        assert steps1 == ref_geometric_walk(s, rot)
        assert steps2 == ref_geometric_walk(out)
        ok, _ = assert_subarc_as_reference(steps2, steps1)
        assert ok
        passed += 1
    assert passed == {"batch": 100, "stress": 80}[name]


A, B, N = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
C, D = unit((-1.0, 0.0, 0.3)), unit((0.2, 0.3, 0.9))


def test_subarc_check_matches_reference_on_repeated_steps():
    tri = [(A, B), (B, N), (N, A)]
    # twice round, and a slit out to D and back in the middle
    twice = tri + tri
    slit = [(A, B), (B, D), (D, B), (B, N), (N, A)]
    for steps2, steps1 in [(tri, twice), (twice, tri), (twice, twice),
                           (tri, slit), (slit, slit), (slit, tri)]:
        assert_subarc_as_reference(steps2, steps1)
    assert assert_subarc_as_reference(tri, slit)[0]


def test_subarc_check_matches_reference_on_strict_subarc():
    # walk 1 runs A -> B through m, out to C and back, then B -> N -> A;
    # walk 2 skips the loop out to C
    m = unit((1.0, 1.0, 0.0))  # inside A -> B: walk 1's step is refined there
    walk1 = [(A, m), (m, B), (B, C), (C, B), (B, N), (N, A)]
    walk2 = [(A, B), (B, N), (N, A)]
    ok, witness = assert_subarc_as_reference(walk2, walk1)
    assert ok and len(witness["kept_runs"]) == 2
    assert not assert_subarc_as_reference(walk1, walk2)[0]


def test_subarc_check_matches_reference_on_mirrored_cut_points():
    # p and q mirror each other across the plane of A -> B: the same
    # parameter on it, 1.2e-7 rad apart, so two registry points with a tie in
    # the sort, where the cut list's order and multiplicity pick the pieces
    h = 6e-8
    p, q = unit((1.0, 1.0, h * math.sqrt(2))), unit((1.0, 1.0, -h * math.sqrt(2)))
    ab = GeodesicSegment(A, B)
    assert ab.param_of(p, SUBARC_TOL) == ab.param_of(q, SUBARC_TOL)
    assert 1.1e-7 < angle_between(p, q) < 1.3e-7
    walk = [(A, B), (B, p), (p, N), (N, q), (q, A)]
    for steps2, steps1 in [(walk, walk), ([(A, B), (B, N), (N, A)], walk)]:
        assert_subarc_as_reference(steps2, steps1)


def test_equal_walks_count_pieces_not_steps():
    m = unit((1.0, 1.0, 0.0))
    # m, the end of two steps, lies inside A -> B, which is cut there
    cut = [(A, B), (B, N), (N, m), (m, A)]
    assert assert_subarc_as_reference(cut, cut) == (True, {"rotation": 0, "kept_runs": [(0, 5)]})
    walk1 = [(A, m), (m, B), (B, C), (C, B), (B, N), (N, A)]
    slit = [(A, B), (B, D), (D, B), (B, N), (N, A)]
    for walk in (walk1, slit):
        # equal by value, with new point tuples
        copy = [tuple(tuple(list(p)) for p in step) for step in walk]
        assert copy == walk and copy[0][0] is not walk[0][0]
        ok, witness = assert_subarc_as_reference(copy, walk)
        assert ok and witness == {"rotation": 0, "kept_runs": [(0, len(walk))]}


def test_equal_walks_of_steps_shorter_than_the_tolerance_do_not_match():
    p, q = unit((1.0, 3e-8, 0.0)), unit((1.0, 0.0, 3e-8))
    tiny = [(A, p), (p, q), (q, A)]
    assert all(1e-9 < angle_between(a, b) < SUBARC_TOL for a, b in tiny)
    assert assert_subarc_as_reference(tiny, tiny) == (False, None)


# Random closed walks over five points in general position, with up to three
# points placed on the walk's own arcs and visited as extra vertices, so that
# some vertices lie inside other steps.
POOL = (A, B, N, C, D)


def _steps(vs):
    return list(zip(vs, vs[1:] + vs[:1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=6),
       st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.25, 0.5, 0.75]),
                          st.integers(0, 8)), max_size=3),
       st.integers(0, 8), st.integers(1, 8))
def test_subarc_check_matches_reference_on_random_walks(idx, arcs, i, k):
    vs = [POOL[j] for j in idx]
    base = _steps(vs)
    for s, t, at in arcs:
        a, b = base[s % len(base)]
        if a != b:
            vs.insert(at % (len(vs) + 1), GeodesicSegment(a, b).point_at(t))
    walk = _steps(vs)
    assume(all(1e-6 < angle_between(a, b) < math.pi - 1e-6 for a, b in walk + base))
    assert_subarc_as_reference(walk, walk)
    i %= len(walk)
    for steps2 in (walk[i:i + k], walk[i:] + walk[:i], base):
        assert_subarc_as_reference(steps2, walk)
    assert_subarc_as_reference(walk, base)


# -- the rotation step against the reference scan ------------------------------


def ref_plane_roots(p0, axis, pole):
    """Angles t with pole . (R(axis, t) p0) = 0, as a sorted list in [0, 2pi)."""
    k = unit(axis)
    # R(k,t) p0 = cos t * p0 + sin t * (k x p0) + (1-cos t)(k.p0) k
    c0 = geometry.dot(pole, p0)
    c1 = geometry.dot(pole, cross(k, p0))
    c2 = geometry.dot(pole, k) * geometry.dot(k, p0)
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


def ref_contact_angle(curve, target, axis):
    """One target's first contact, arc by arc, building the preimage (from
    ``Rotation``) and its parameter at every root."""
    p0 = unit(target)
    back = neg(unit(axis))
    best = None
    for idx, seg in enumerate(curve):
        if seg.contains(p0):
            raise GeometryError("target already lies on the curve")
        for t in ref_plane_roots(p0, back, seg.pole):
            t %= 2 * math.pi
            if t <= geometry.CONTACT_TOL:
                continue
            pre = Rotation.from_axis_angle(axis, t).inverse().apply(p0)
            if seg.param_of(pre, tol=10 * geometry.EPS_SEP) is None:
                continue
            if best is None or t < best[0]:
                best = (t, idx)
    if best is None:
        raise NoContact("rotation family never meets the curve")
    return best


def ref_contact_angles(curve, targets, axis):
    """``contact_angles`` by ``ref_contact_angle`` on each target in turn."""
    out = []
    for p in targets:
        try:
            out.append(ref_contact_angle(curve, p, axis))
        except NoContact:
            out.append(None)
    return out


def ref_nearest_special(segs, specials):
    """(distance, special, point, nearest point) of the first special whose
    exact distance to the arcs is least, by the full ``nearest_point`` scan."""
    best = None
    for v, p in specials:
        dmin, x0 = min((seg.nearest_point(p) for seg in segs), key=lambda x: x[0])
        if best is None or dmin < best[0]:
            best = (dmin, v, p, x0)
    return best


def ref_rotate_to_touch_special(s):
    """rotate_to_touch_special with the full nearest scan, each special's
    closed-form first contact from ``ref_contact_angle``, and the contacted
    one's rotation and parameter from ``Rotation.from_axis_angle`` and
    ``param_of``."""
    segs, edge_ids = nm._walk_segments(s)
    specials = [(v, s.base.vertices[v]) for v in s.base.specials]
    _, v1, p1, x0 = ref_nearest_special(segs, specials)
    base_axis = unit(cross(p1, x0))
    last_err = None
    for jt in [0.0, 1e-6, -1e-6, 2e-6, -2e-6, 5e-6]:
        axis = base_axis
        if jt:
            axis = Rotation.from_axis_angle(p1, jt).apply(base_axis)
        contacts = []
        for v, p in specials:
            try:
                contacts.append(ref_contact_angle(segs, p, neg(axis)) + (v, p))
            except NoContact:
                continue
        contacts.sort(key=lambda c: c[0])
        if not contacts:
            last_err = NoContact("no special reaches the boundary under this axis")
            continue
        t_c, seg_idx, v_c, p_c = contacts[0]
        if len(contacts) > 1 and contacts[1][0] - t_c < 1e-9:
            last_err = PipelineError("two specials touch simultaneously")
            continue
        # R(-axis, t)^-1 is R(axis, t) bit for bit: its transpose
        rot = Rotation.from_axis_angle(neg(axis), t_c)
        seg = segs[seg_idx]
        prm = seg.param_of(rot.inverse().apply(p_c), tol=1e-6)
        margin = 1e-7 / max(seg.length, 1e-9)
        if prm is None or prm < margin or prm > 1 - margin:
            last_err = PipelineError("contact at an arc endpoint")
            continue
        rho = rot.inverse()
        return nm._apply_rotation_contact(s, rho, v_c, edge_ids[seg_idx]), rho
    raise last_err if last_err is not None else NoContact("rotation search failed")


def _outcome(fn):
    try:
        return fn()
    except GeometryError as err:  # NoContact among them
        return "%s: %s" % (type(err).__name__, err)
    except SurfaceError as err:
        return "%s: %s" % (type(err).__name__, err)


def _hex(xs):
    return tuple(x.hex() if isinstance(x, float) else _hex(x) for x in xs)


def _run_rotation(fn, s):
    """The surface bytes and matrix hex of a rotation step ``fn`` on s."""
    out, rho = fn(s)
    return json.dumps(io.surface_to_dict(out, {}), sort_keys=True), _hex(rho.matrix)


def _meridian(lat_a, lat_b):
    """The arc of the meridian at longitude 0 between two latitudes."""
    return GeodesicSegment(*((math.cos(x), 0.0, math.sin(x)) for x in (lat_a, lat_b)))


@pytest.mark.parametrize("end", ["a", "b"])
def test_contact_roots_at_an_arcs_ends_match_the_reference(end):
    # Targets at latitude 0.4 turned about the z axis meet the meridian at
    # longitude 0 at X (latitude 0.4).  The arc's end lies just past X
    # (X inside by d > 0) or stops short of it (X outside by -d), around
    # the threshold: contains refuses X beyond 5e-9 (ta + tb > length +
    # 1e-8).  Each search answers as the reference.
    lat = 0.4
    targets = [(math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
               for lon in (0.7, -2.1)]
    for d in (1e-6, 1e-9, 0.0, -1e-9, -4.9e-9, -5.1e-9, -5.4e-9, -5.6e-9, -6e-9, -1e-8, -1e-6):
        seg = _meridian(lat - 0.5, lat + d) if end == "b" else _meridian(lat - d, lat + 0.5)
        # a second arc with roots of its own, far from the first
        curve = [seg, _meridian(-1.2, -0.9)]
        for axis in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
            got = contact_angles(curve, targets, axis)
            assert got == ref_contact_angles(curve, targets, axis), (d, axis)
            on_arc = [c is not None and c[1] == 0 for c in got]
            assert all(on_arc) == (d >= -5e-9 + 1e-12), (d, got)


@pytest.mark.parametrize("name, steps", [("batch", 14), ("stress", 51)])
def test_rotation_matches_reference_on_corpus(name, steps, monkeypatch):
    # every rotation step normalize takes on the stored corpora, rerun; each
    # special's closed-form contact on the way is checked against the reference
    contacts = []

    def checked_contact_angles(curve, targets, axis):
        got = _outcome(lambda: contact_angles(curve, targets, axis))
        assert got == _outcome(lambda: ref_contact_angles(curve, targets, axis))
        contacts.extend(got if isinstance(got, list) else [got])
        return contact_angles(curve, targets, axis)
    monkeypatch.setattr(nm, "contact_angles", checked_contact_angles)
    inputs = []
    rotate = nm.rotate_to_touch_special
    monkeypatch.setattr(nm, "rotate_to_touch_special", lambda s: inputs.append(s) or rotate(s))
    for line in (CORPUS / (name + ".jsonl")).read_text().splitlines():
        try:
            normalize(io.surface_from_dict(json.loads(line)))
        except SurfaceError:
            pass
    assert len(inputs) == steps
    for s in inputs:
        assert _outcome(lambda: _run_rotation(rotate, s)) == _outcome(
            lambda: _run_rotation(ref_rotate_to_touch_special, s))
    assert len(contacts) >= 2 * steps


@pytest.mark.parametrize("line", [8, 11, 20])
def test_a_special_turned_past_its_contact_leaves_its_face(line, monkeypatch):
    # Batch lines that take a rotation step, with the first contact dropped:
    # the step turns by the next special's larger angle, which carries the
    # first special across the walk arc it touched (or within EPS_SEP of a
    # vertex), and the tip check refuses the step.
    used = []
    ordered = nm._ordered_contacts

    def later(segs, specials, axis):
        contacts = ordered(segs, specials, axis)
        used.append((segs, axis, contacts))
        return contacts[1:]
    monkeypatch.setattr(nm, "_ordered_contacts", later)
    s = io.surface_from_dict(json.loads((CORPUS / "batch.jsonl").read_text().splitlines()[line]))
    with pytest.raises(PipelineError, match="rotated special left its face"):
        normalize(s)
    segs, axis, contacts = used[-1]
    (t1, idx, _, p), (t2, _, _, _) = contacts[:2]
    assert t1 < t2
    touch = Rotation.from_axis_angle(neg(axis), t1).apply(p)
    past = Rotation.from_axis_angle(neg(axis), t2).apply(p)
    assert segs[idx].contains(touch, tol=10 * geometry.EPS_SEP)
    pole = segs[idx].pole
    crossed = (geometry.dot(p, pole) > 0) != (geometry.dot(past, pole) > 0)
    at_vertex = any(points_coincide(past, v) for v in s.base.vertices if v is not None)
    assert crossed or at_vertex


def _north_specials(positions):
    """The southern face of the equator triangle, with specials at the given
    (lon, lat) positions in this order and none on its walk."""
    bc, _ = equator_triangle_base([sph(*q) for q in positions])
    s = SurfaceComplex(bc, [south_face(bc)], {})
    _close_scaffold_sides(s)
    return s


def _specials(s):
    return [(v, s.base.vertices[v]) for v in s.base.specials]


def test_nearest_special_is_the_full_scans_pick():
    # Two specials at latitude 0.5 whose exact distances to the walk tie bit
    # for bit, or differ by 3e-8 (less than _PRUNE), and a far one at
    # latitude 1.2, in both orders: the pick is the full exact scan's, the
    # first in order on a tie.
    far = (3.5, 1.2)

    def distances(s):
        segs = nm._walk_segments(s)[0]
        return [min(seg.nearest_point(p)[0] for seg in segs) for _, p in _specials(s)]

    def ties(lon):
        d = distances(_north_specials([(0.7, 0.5), (lon, 0.5), far]))
        return d[0] == d[1]
    tie = next(lon for lon in (1.3 + k * 1e-3 for k in range(50)) if ties(lon))
    cases = {"tie": [(0.7, 0.5), (tie, 0.5)], "near": [(0.7, 0.5), (1.3, 0.5 + 3e-8)]}
    for name, pair in cases.items():
        for pos in (pair + [far], [far] + pair[::-1]):
            s = _north_specials(pos)
            dist = dict(zip(pos, distances(s)))
            if name == "tie":
                assert dist[pair[0]] == dist[pair[1]]
            else:
                assert 0 < dist[pair[1]] - dist[pair[0]] < geometry._PRUNE
            segs, specials = nm._walk_segments(s)[0], _specials(s)
            k, dmin, x0 = geometry.nearest_to_arcs([p for _, p in specials], segs)
            got, want = (dmin,) + specials[k] + (x0,), ref_nearest_special(segs, specials)
            assert got[1] == want[1]
            assert _hex(got[:1] + got[2:]) == _hex(want[:1] + want[2:])
            # the nearer of the pair, or on the tie the first in order
            pick = pair[0] if name == "near" else min(pair, key=pos.index)
            assert got[1] == specials[pos.index(pick)][0]
            assert _outcome(lambda: _run_rotation(rotate_to_touch_special, s)) == _outcome(
                lambda: _run_rotation(ref_rotate_to_touch_special, s))


def test_composed_rotation_is_recomposed_after_an_append():
    a = Rotation.from_axis_angle((0.3, -0.2, 0.9), 0.7)
    b = Rotation.from_axis_angle((-0.5, 0.4, 0.1), 2.2)
    trace = PipelineTrace()
    assert trace.composed_rotation() is Rotation.identity()
    trace.rotations.append(a)
    once = trace.composed_rotation()
    assert trace.composed_rotation() is once  # composed once per list
    trace.rotations.append(b)
    twice = trace.composed_rotation()
    for got, rotations in ((once, [a]), (twice, [a, b])):
        fresh = PipelineTrace(rotations=list(rotations)).composed_rotation()
        assert _hex(got.matrix) == _hex(fresh.matrix)
    assert _hex(twice.matrix) != _hex(once.matrix)
