"""Normalization pipeline: remove all branch values outside the special set.

``_drive`` is the one loop.  Each pass applies the first certified
improvement step that fits a disk covering, until every branch value is
special and no non-special folded point remains:

* sew away maximal non-special fold pairs,
* transport interior non-special branch points along lifted paths
  (splitting off closed surfaces or secondary disks when lifts collide),
* slide boundary branch points along the boundary into special junctions,
* when the boundary misses the special set entirely, either sink the
  branching into a special point visible in a left component, or rotate
  the special set onto the boundary first.

Each step is checked against the exact bookkeeping of its lemma, and every
surface along the way is strictly "better than" its predecessor.  Every pass
counts against ``declared_iteration_bound``, so the bound covers every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrangement import CURVE, SCAFFOLD
from .geometry import (
    NoContact,
    Rotation,
    angle_between,
    contact_angle,
    cross,
    nearest_feature,
    neg,
    points_coincide,
    unit,
)
from .surface import (
    CLOSED,
    DISK,
    FunctionalReport,
    SurfaceComplex,
    SurfaceError,
    better_than_clauses,
    functionals,
    geometric_walk,
    is_better_than,
    is_closed_subarc,
    is_closed_subarc_geometric,
    require_valid,
)
from .surgery import (
    ALONG_BOUNDARY,
    FROM_BOUNDARY_LEFT,
    FROM_INTERIOR,
    PreconditionViolated,
    absorb_tip_into_vertex,
    cleanup_unused_curve_edges,
    delete_edge_surface,
    insert_chord_surface,
    lift_path,
    reroute_boundary_split,
    sew,
    split_edge_surface,
    split_on_lifts,
    star_rewire,
)


class NegativeH(SurfaceError):
    pass


class NoSuchPath(SurfaceError):
    pass


class PipelineError(SurfaceError):
    pass


@dataclass
class TraceStep:
    op: str
    case: str
    pre: dict
    post: dict
    note: str = ""
    certificate: dict = field(default_factory=dict)


@dataclass
class PipelineTrace:
    steps: list = field(default_factory=list)
    rotations: list = field(default_factory=list)
    iteration_bound: int = 0
    iterations: int = 0

    def composed_rotation(self) -> Rotation:
        """The paper-frame rotation: inverse of the specials' total motion."""
        total = Rotation.identity()
        for r in self.rotations:
            total = r.compose(total)
        return total.inverse()


def _summary(rep: FunctionalReport) -> dict:
    return {
        "A": rep.area, "L": rep.boundary_length, "H": rep.ratio,
        "R": rep.reduced_area, "sum": rep.covering_sum,
        "n_bar": dict(rep.n_bar), "topology": rep.topology,
    }


def _word_subarc(s_new, s_old) -> bool:
    """Closed-subarc check of the new walk in the old one: on the dart words,
    or on the geometric walks when the new walk runs over an edge the old
    base lacks (a transport route split an arc of the walk)."""
    walk, edges = s_new.boundary_walk(), s_old.base.edges
    if all(d >> 1 < len(edges) and edges[d >> 1] is not None for d in walk.darts):
        return is_closed_subarc(walk, s_old.boundary_walk(), s_old.base)[0]
    return is_closed_subarc_geometric(geometric_walk(s_new), geometric_walk(s_old))[0]


def _walk_word_unchanged(s_new, s_old) -> bool:
    """Cyclic equality of the walk words: a closed subarc of equal length."""
    return (len(s_new.boundary_walk()) == len(s_old.boundary_walk())
            and _word_subarc(s_new, s_old))


def _record_step(trace, op, case, old, new, check_walk=True, note=""):
    """Append the certified step from ``old`` to ``new`` to the trace.

    ``check_walk`` asks for the closed-subarc check of the new walk word in
    the old one; a step that refines the base (the rotation) has no common
    dart alphabet and skips it."""
    pre, post = functionals(old), functionals(new)
    cert = {k: v[0] for k, v in better_than_clauses(post, pre).items()}
    cert["boundary"] = _word_subarc(new, old) if check_walk else True
    cert["ok"] = all(cert.values())
    trace.steps.append(TraceStep(op=op, case=case, pre=_summary(pre), post=_summary(post),
                                 note=note, certificate=cert))


# -- fold removal (Prop no-folded) ---------------------------------------------


def _nonspecial_folds(s: SurfaceComplex):
    return [sh for sh in s.sheet_list()
            if (not sh.interior) and sh.folded and not sh.special]


def remove_one_fold(s: SurfaceComplex):
    """Sew one maximal matched fold pair at a non-special folded point.

    Returns (surface, case label, None)."""
    folds = _nonspecial_folds(s)
    if not folds:
        raise PreconditionViolated("no non-special folded point")
    sh = folds[0]
    walk = s.boundary_walk().sides
    idx = {side: i for i, side in enumerate(walk)}
    n = len(walk)
    run_a = [sh.in_side]
    run_b = [sh.out_side]
    while True:
        prev = walk[(idx[run_a[0]] - 1) % n]
        nxt = walk[(idx[run_b[-1]] + 1) % n]
        if prev == nxt or prev in run_b or nxt in run_a or prev in run_a or nxt in run_b:
            break
        if s.dart_of(nxt) != (s.dart_of(prev) ^ 1):
            break
        junction_v = s.base.head(s.dart_of(prev))
        if junction_v in s.base.specials:
            break
        run_a.insert(0, prev)
        run_b.append(nxt)
    if len(run_a) + len(run_b) >= n:
        raise PipelineError(
            "fold pair exhausts the whole boundary; this contradicts H >= 0")
    out, case = sew(s, run_a, run_b)
    if case != "A":
        raise PipelineError("fold sew closed the surface under H >= 0")
    return cleanup_unused_curve_edges(out), "glue-A", None


# -- interior branch transport (Prop in-to-bd) -----------------------------------


def _branch_values(s: SurfaceComplex):
    out = set()
    for sh in s.sheet_list():
        if sh.is_branch:
            out.add(sh.vertex)
    return out


def _interior_nonspecial_branches(s: SurfaceComplex):
    return [sh for sh in s.sheet_list()
            if sh.interior and sh.is_branch and not sh.special]


def _plan_path_to_special(s: SurfaceComplex, start_vertex: int):
    """Shortest base edge path from the branch value to a special vertex whose
    interior avoids the special set and every branch value."""
    bc = s.base
    blocked = set(bc.specials) | _branch_values(s)
    blocked.discard(start_vertex)
    dist = {start_vertex: 0}
    parent = {}
    frontier = [start_vertex]
    goal = None
    while frontier and goal is None:
        nxt = []
        for v in sorted(frontier):
            for d in sorted(bc.fans[v]):
                w = bc.head(d)
                if w in dist:
                    continue
                dist[w] = dist[v] + 1
                parent[w] = (v, d)
                if w in bc.specials:
                    goal = w
                    break
                if w not in blocked:
                    nxt.append(w)
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        raise NoSuchPath("no admissible base path from vertex %d to the special set"
                         % start_vertex)
    darts = []
    v = goal
    while v != start_vertex:
        pv, d = parent[v]
        darts.append(d)
        v = pv
    darts.reverse()
    return darts


def _classify_lift_ends(s, result):
    """Lift end sheets, the first coincident pair (i, j), i < j, or None, and
    the lifts that end on the boundary."""
    sheets, _ = s.sheets()
    ends = [lf.end_sheet for lf in result.lifts]
    coincident = next(((i, j) for i in range(len(ends)) for j in range(i + 1, len(ends))
                       if ends[i] == ends[j]), None)
    on_boundary = [i for i, e in enumerate(ends) if not sheets[e].interior]
    return ends, coincident, on_boundary


def _keep_best_disk(pieces, want, why):
    """Order split pieces: the kept disk first, the discarded piece second.

    Closed piece -> keep the disk.  Two disks -> keep the larger H, ties by
    smaller covering sum, then smaller boundary length.  ``want`` is the
    split the caller's lemma allows: CLOSED (a closed piece splits off) or
    DISK (two disks); the other one raises PipelineError(why).
    """
    kinds = [p.topology_kind() for p in pieces]
    if (CLOSED in kinds) != (want == CLOSED):
        raise PipelineError(why)
    if want == CLOSED:
        return pieces[kinds.index(DISK)], pieces[kinds.index(CLOSED)]
    reps = [functionals(p) for p in pieces]
    key = [( -r.ratio, r.covering_sum, r.boundary_length) for r in reps]
    i = 0 if key[0] <= key[1] else 1
    return pieces[i], pieces[1 - i]


def _lay_route(s: SurfaceComplex, sheet, faces, goal=None):
    """Lay a transient transport route from a vertex sheet, the one routine
    that does: a breadth-first search over faces from ``faces``, each face's
    neighbours in cycle order, to the first face whose cycle holds ``goal``
    (any special vertex when None).  Each crossed edge is split at its
    midpoint, and one chord per face joins the sheet's corner, the split
    points and the goal in turn, so the route meets no old vertex but its
    ends.  Returns (surface, chord edges, the sheet's index in it, darts)."""
    bc = s.base
    parent = dict.fromkeys(faces)
    queue = list(parent)
    for f in queue:
        cyc = bc.faces[f].cycle
        hit = [v for v in map(bc.tail, cyc) if v == goal or (goal is None and v in bc.specials)]
        if hit:
            break
        for d in cyc:
            g = bc.face_of_dart(d ^ 1)
            if g not in parent:
                parent[g] = d
                queue.append(g)
    else:
        raise NoSuchPath("no face holds a special vertex")
    hops = []
    while parent[f] is not None:
        hops.insert(0, parent[f])
        f = bc.face_of_dart(parent[f])
    crossed = [d >> 1 for d in hops]
    # the sheet's corner in the first face, where it sits once the edges are split
    c, p = next(cp for cp in sheet.corners if s.copies[cp[0]] == f)
    corner = (c, p + sum(1 for d in s.cycle_of(c)[:p] if d >> 1 in crossed))
    work, stops = s, []
    for e in crossed:
        work, x = split_edge_surface(work, e, bc.dart_segment(2 * e).point_at(0.5))
        stops.append(x)
    chords, a = [], corner[1]
    for f, x in zip([f] + [bc.face_of_dart(d ^ 1) for d in hops], stops + hit[:1]):
        at = [work.base.tail(d) for d in work.base.faces[f].cycle]
        if chords:
            a = at.index(work.base.head(2 * chords[-1]))
        work, e, side_map = insert_chord_surface(work, f, a, at.index(x))
        [corner] = side_map.get(corner, [corner])
        chords.append(e)
    # each chord's forward dart runs from its first stop to its second
    return work, chords, work.sheets()[1][corner], [2 * e for e in chords]


def _route_to_special(s: SurfaceComplex, X):
    """The transport route of the interior branch point X: an admissible base
    edge path when one exists, else a face route from the faces at X's vertex
    in its fan order.  Returns (surface, chord edges, X's sheet in it, darts)."""
    try:
        return s, [], X.index, _plan_path_to_special(s, X.vertex)
    except NoSuchPath:
        return _lay_route(s, X, [s.base.face_of_dart(d) for d in s.base.fans[X.vertex]])


def push_interior_branch(s: SurfaceComplex, sheet_index: int):
    """Move one interior non-special branch point per Prop in-to-bd.

    Returns (surface, case label, discarded piece or None)."""
    sheets, _ = s.sheets()
    work, chords, idx, darts = _route_to_special(s, sheets[sheet_index])

    def finish(surface):
        for e in chords:
            surface = delete_edge_surface(surface, e)
        return cleanup_unused_curve_edges(surface)

    sheets_w, _ = work.sheets()
    result = lift_path(work, darts, idx, FROM_INTERIOR)
    ends, coincident, on_boundary = _classify_lift_ends(work, result)
    if coincident is not None:
        i, j = coincident
        pieces = split_on_lifts(work, result.lifts[i], result.lifts[j])
        keep, other = _keep_best_disk(
            pieces, CLOSED, "coincident lift endpoints must split off a closed surface")
        case = "1" if not sheets_w[ends[i]].interior else "2"
        return finish(keep), case, other
    if len(on_boundary) >= 2:
        i, j = on_boundary[0], on_boundary[1]
        pieces = split_on_lifts(work, result.lifts[i], result.lifts[j])
        keep, other = _keep_best_disk(
            pieces, DISK, "distinct boundary endpoints must split into two disks")
        return finish(keep), "5", other
    out = star_rewire(work, result.lifts, idx)
    case = "3" if len(on_boundary) == 1 else "4"
    out = finish(out)
    if not _walk_word_unchanged(out, work):  # a route may split an arc of the walk
        raise PipelineError("interior push changed the boundary word")
    return out, case, None


# -- boundary branch transport (Prop bd-bd) ----------------------------------------


def _boundary_nonspecial_branches(s: SurfaceComplex):
    return [sh for sh in s.sheet_list()
            if (not sh.interior) and sh.is_branch and not sh.special]


def slide_boundary_branch(s: SurfaceComplex, sheet_index: int):
    """Slide one boundary branch point along its next boundary arc.

    Returns (surface, case label, discarded piece or None)."""
    sheets, _ = s.sheets()
    X = sheets[sheet_index]
    if X.folded:
        raise PreconditionViolated("cannot slide a folded point")
    run = [X.out_side]
    result = lift_path(s, [s.dart_of(X.out_side)], sheet_index, ALONG_BOUNDARY)
    lifts = result.lifts
    # lift 0 runs along the boundary to p1, a boundary sheet; a first
    # coincident pair (0, j) lands interior lift j on p1
    _, coincident, on_boundary = _classify_lift_ends(s, result)
    if coincident is not None and coincident[0] == 0:
        pieces = reroute_boundary_split(s, run, lifts[coincident[1]])
        keep, other = _keep_best_disk(
            pieces, CLOSED, "lift landing on p1 must split off a closed surface")
        return cleanup_unused_curve_edges(keep), "1", other
    if coincident is not None:
        i, j = coincident
        pieces = split_on_lifts(s, lifts[i], lifts[j])
        keep, other = _keep_best_disk(
            pieces, CLOSED, "coincident interior lifts must split off a closed surface")
        return cleanup_unused_curve_edges(keep), "2", other
    on_bd = [i for i in on_boundary if i]
    if on_bd:
        pieces = reroute_boundary_split(s, run, lifts[on_bd[0]])
        keep, other = _keep_best_disk(
            pieces, DISK, "lift landing elsewhere on the boundary must split two disks")
        return cleanup_unused_curve_edges(keep), "3", other
    out = star_rewire(s, lifts[1:], sheet_index, boundary_run=run)
    if not _walk_word_unchanged(out, s):
        raise PipelineError("boundary slide changed the boundary word")
    return out, "4", None


# -- sinking into a left-component special (Prop bd-in) -------------------------------


def _sinkable_arc(s: SurfaceComplex):
    """A walk dart whose left face holds a special tip, plus that tip."""
    tips = s.base.special_tips_by_face()
    for d in s.boundary_walk().darts:
        f = s.base.left_face(d)
        if f in tips:
            return d, tips[f][0]
    return None


def sink_branch_to_special(s: SurfaceComplex, sheet_index: int, tip: int):
    """The parked branch sits at the head junction of a walk passage over an
    arc with ``tip`` on its left; pull the branching into the tip.

    Returns (surface, case label, discarded piece or None)."""
    sheets, _ = s.sheets()
    sigma = sheets[sheet_index]
    face = s.base.left_face(s.dart_of(sigma.in_side))
    lab = s.base.specials[tip]
    d_sink = sigma.multiplicity

    # the chord leaves sigma's first corner, the one after its in-side
    work, [chord_e], idx, darts = _lay_route(s, sigma, [face], tip)
    sigma2 = work.sheets()[0][idx]
    if not sigma2.is_branch or sigma2.vertex != sigma.vertex:
        raise PipelineError("parked branch lost after the chord refinement")
    result = lift_path(work, darts, sigma2.index, FROM_BOUNDARY_LEFT)
    _, coincident, on_boundary = _classify_lift_ends(work, result)
    if on_boundary:
        raise PipelineError("lift into the left component touched the boundary")
    if coincident is not None:
        i, j = coincident
        pieces = split_on_lifts(work, result.lifts[i], result.lifts[j])
        keep, other = _keep_best_disk(
            pieces, CLOSED, "coincident sink lifts must split off a closed surface")
        keep = delete_edge_surface(keep, chord_e)
        return cleanup_unused_curve_edges(keep), "1", other
    out = star_rewire(work, result.lifts, sigma2.index)
    out = delete_edge_surface(out, chord_e)
    got = functionals(out).n_bar[lab]
    expected = functionals(s).n_bar[lab] - (d_sink - 1)
    if got != expected:
        raise PipelineError("sink changed n_bar(%s) to %d, expected %d"
                            % (lab, got, expected))
    if not _walk_word_unchanged(out, s):
        raise PipelineError("sink changed the boundary word")
    return out, "2", None


# -- rotation onto the special set (Prop rotation) --------------------------------


def _walk_segments(s: SurfaceComplex):
    """Geodesic segments of the walk arcs, indexed by edge id."""
    segs, ids = [], []
    seen = set()
    for d in s.boundary_walk().darts:
        e = d >> 1
        if e in seen:
            continue
        seen.add(e)
        segs.append(s.base.dart_segment(2 * e))
        ids.append(e)
    return segs, ids


def rotate_to_touch_special(s: SurfaceComplex):
    """Rotate the special set rigidly until it first touches the boundary.

    Combinatorially the boundary is refined at the contact point and the
    contacted special's scaffold tip is absorbed into the new on-curve
    vertex; every functional is preserved exactly.  Returns
    (surface, specials' rotation)."""
    segs, edge_ids = _walk_segments(s)
    specials = [(v, s.base.vertices[v]) for v in s.base.specials]
    best = None
    for v, p in specials:
        _, dmin, x0 = nearest_feature(segs, p)
        if best is None or dmin < best[0]:
            best = (dmin, v, p, x0)
    _, _, p1, x0 = best
    base_axis = unit(cross(p1, x0))

    jitters = [0.0, 1e-6, -1e-6, 2e-6, -2e-6, 5e-6]
    last_err = None
    for jt in jitters:
        axis = base_axis
        if jt:
            axis = Rotation.from_axis_angle(p1, jt).apply(base_axis)
        contacts = _ordered_contacts(segs, specials, neg(axis))
        if not contacts:
            last_err = NoContact("no special reaches the boundary under this axis")
            continue
        t_star, seg_idx, v_c, p_c = contacts[0]
        if len(contacts) > 1 and contacts[1][0] - t_star < 1e-9:
            last_err = PipelineError("two specials touch simultaneously")
            continue
        seg = segs[seg_idx]
        rho = Rotation.from_axis_angle(axis, t_star)
        prm = seg.param_of(rho.apply(p_c), tol=1e-6)
        margin = 1e-7 / max(seg.length, 1e-9)
        if prm is None or prm < margin or prm > 1 - margin:
            last_err = PipelineError("contact at an arc endpoint")
            continue
        return _apply_rotation_contact(s, rho, v_c, edge_ids[seg_idx]), rho
    raise last_err if last_err is not None else NoContact("rotation search failed")


def _ordered_contacts(segs, specials, axis):
    """Closed-form first contacts of the specials turned about ``axis``
    (``contact_angle``), as (angle, segment index, special, point), sorted by
    angle stably, so in the order of ``specials`` on a tie."""
    contacts = []
    for v, p in specials:
        try:
            t, idx = contact_angle(segs, p, axis)
        except NoContact:
            continue
        contacts.append((t, idx, v, p))
    contacts.sort(key=lambda c: c[0])
    return contacts


def _apply_rotation_contact(s: SurfaceComplex, rho: Rotation, special_v: int,
                            edge: int) -> SurfaceComplex:
    bc = s.base
    x_point = rho.apply(bc.vertices[special_v])
    tip_face = bc.face_of_dart(bc.fans[special_v][0])
    d_g = 2 * edge
    m_left, m_right = s.multiplicities()[edge]
    if m_left == 0 and m_right > 0:
        d_g ^= 1
        m_left, m_right = m_right, m_left
    if m_right != 0:
        raise PipelineError("contact arc is traversed in both directions")
    if s.base.face_of_dart(d_g ^ 1) != tip_face:
        raise PipelineError("contacted special does not sit in the face right of the arc")

    out, x_vertex = split_edge_surface(s, edge, x_point)
    # move every special tip rigidly; bridges keep their attachment
    for v in list(out.base.specials):
        if v == special_v:
            continue  # lands on the new on-curve vertex; absorbed below
        fan = out.base.fans[v]
        if len(fan) != 1 or out.base.kind(fan[0]) != SCAFFOLD:
            raise PipelineError("special %d is not a scaffold tip at rotation time" % v)
        p_new = rho.apply(out.base.vertices[v])
        loc = out.base.locate_point(p_new)
        e_b = fan[0] >> 1
        face_v = out.base.face_of_dart(fan[0])
        if loc != ("face", face_v):
            raise PipelineError("rotated special left its face: %r" % (loc,))
        out.base.vertices[v] = p_new
        ed = out.base.edges[e_b]
        other = ed.a if ed.b == v else ed.b
        ed.length = angle_between(out.base.vertices[other], p_new)
    out.base.vertices[x_vertex] = x_point
    out.base.vertices[special_v] = x_point  # the contacted tip meets its target
    out = absorb_tip_into_vertex(out, special_v, x_vertex)
    _assert_rotation_invariants(functionals(s), functionals(out))
    return out


def _assert_rotation_invariants(pre, post):
    if abs(pre.area - post.area) > 1e-9:
        raise PipelineError("rotation changed the area")
    if abs(pre.boundary_length - post.boundary_length) > 1e-9:
        raise PipelineError("rotation changed the boundary length")
    if pre.covering_sum != post.covering_sum:
        raise PipelineError("rotation changed the covering sum")
    for k in pre.n_bar:
        if pre.n_bar[k] != post.n_bar[k]:
            raise PipelineError("rotation changed n_bar(%s)" % k)


# -- driver -------------------------------------------------------------------


def declared_iteration_bound(s: SurfaceComplex) -> int:
    rep = functionals(s)
    n_branch = sum(1 for sh in rep.sheets if sh.is_branch)
    n_arcs = sum(1 for e in s.base.live_edges() if s.base.edges[e].kind == CURVE)
    walk_len = sum(len(w) for w in s.walks())
    return (rep.covering_sum + 1) * (n_branch + 2) * (walk_len + n_arcs + 4)


def normalize(s: SurfaceComplex):
    """Run the full pipeline; returns (clean surface, PipelineTrace).

    The output has all branch values in the special set, no non-special
    folded points, and is better than the input under the composed rotation.
    A ``SurfaceError`` raised after the input checks carries the trace of the
    steps taken so far as its ``trace`` attribute.
    """
    require_valid(s, "normalize input", strict_scaffold=False)
    if s.topology_kind() != DISK:
        raise PipelineError("normalize expects a disk covering")
    rep0 = functionals(s)
    if rep0.ratio is None or rep0.ratio < 0:
        raise NegativeH("normalize requires H >= 0, got %r" % rep0.ratio)

    trace = PipelineTrace()
    trace.iteration_bound = declared_iteration_bound(s)
    try:
        return _drive(s, trace), trace
    except SurfaceError as err:
        err.trace = trace
        raise


def _drive(s: SurfaceComplex, trace: PipelineTrace) -> SurfaceComplex:
    """The pipeline's one loop, then the rotation back to the input frame.

    Each pass applies the first lemma step that fits, records it in
    ``trace``, checks its progress and drops unused curve edges; a pass
    that finds no step ends the loop."""
    cur = cleanup_unused_curve_edges(s)

    while True:
        trace.iterations += 1
        if trace.iterations > trace.iteration_bound:
            raise PipelineError("iteration bound %d exceeded" % trace.iteration_bound)

        folds = _nonspecial_folds(cur)
        interior = [] if folds else _interior_nonspecial_branches(cur)
        boundary = [] if folds or interior else _boundary_nonspecial_branches(cur)
        note, check_walk = "", True
        if folds:
            op = "remove_fold"
            out, case, other = remove_one_fold(cur)
        elif interior:
            op = "push_interior_branch"
            out, case, other = push_interior_branch(cur, interior[0].index)
        elif not boundary:
            break  # no fold, no non-special branch: clean
        elif any(cur.base.tail(d) in cur.base.specials or cur.base.head(d) in cur.base.specials
                 for d in cur.boundary_walk().darts):
            op = "slide_boundary_branch"
            out, case, other = slide_boundary_branch(cur, boundary[0].index)
        elif _sinkable_arc(cur) is not None:
            B = boundary[0]
            if B.folded:
                raise PipelineError("boundary branch is folded after fold removal")
            tips = cur.base.special_tips_by_face()
            f_left = cur.base.left_face(cur.dart_of(B.in_side))
            if f_left in tips:
                op = "sink_branch_to_special"
                out, case, other = sink_branch_to_special(cur, B.index, tips[f_left][0])
            else:
                op, note = "slide_boundary_branch", "parking"
                out, case, other = slide_boundary_branch(cur, B.index)
        else:
            op, case, other, check_walk = "rotate_to_touch_special", "rotation", None, False
            out, rho = rotate_to_touch_special(cur)
            trace.rotations.append(rho)
        if other is not None:
            note = "split off %s" % other.topology_kind()
        _record_step(trace, op, case, cur, out, check_walk=check_walk, note=note)

        if folds:
            if len(_nonspecial_folds(out)) >= len(folds):
                raise PipelineError("fold count did not decrease")
            if functionals(out).boundary_length >= functionals(cur).boundary_length - 1e-12:
                raise PipelineError("fold sew did not shorten the boundary")
        if interior and other is None and len(_interior_nonspecial_branches(out)) >= len(interior):
            raise PipelineError("interior branch count did not decrease")
        cur = cleanup_unused_curve_edges(out)

    phi = trace.composed_rotation()
    out = cur.rotated(phi)
    require_valid(out, "normalize output", strict_scaffold=False)
    # the composed rotation returns the specials to their input positions
    in_pos = {lab: s.base.vertices[v] for v, lab in s.base.specials.items()}
    for v, lab in out.base.specials.items():
        if not points_coincide(out.base.vertices[v], in_pos[lab], 1e-8):
            raise PipelineError("composed rotation does not restore special %s" % lab)
    return out


def certify(out: SurfaceComplex, original: SurfaceComplex, trace: PipelineTrace):
    """Full better-than certificate of the pipeline output against its input."""
    ok, report = is_better_than(out, original, trace.composed_rotation())
    return ok, report
