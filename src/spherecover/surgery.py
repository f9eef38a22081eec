"""Surgery calculus on covering surfaces: lifts, cut/sew, pairing rewires.

Every public operation copies its input surface and returns fresh values;
the homeomorphisms of the underlying lemmas are realized as relabelings of
the side pairing.  Bookkeeping deltas are asserted against the lemma
clauses by the callers (pipeline and tests).  The base-editing surgeries
(split an edge, insert or delete an edge, absorb a tip) carry the gluing
across by one rule: a side follows its dart into the face that now holds
it, and ``_remap_pairing`` is the one place that applies it.  Those edits
and ``star_rewire`` serve ``normalize`` alone and do not validate their
output: its driver checks each lemma step's output once.  The cuts, the
sews and the lift split (``split_on_lifts``) validate theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arrangement import CURVE, ArrangementError
from .geometry import points_coincide
from .surface import (
    ANNULUS,
    CLOSED,
    DISK,
    InvalidSurface,
    SurfaceComplex,
    SurfaceError,
    require_valid,
)

class PreconditionViolated(SurfaceError):
    pass


class NotSimple(SurfaceError):
    pass


class TouchesBranch(SurfaceError):
    pass


class ImageMeetsSpecial(SurfaceError):
    pass


class ImagesMismatch(SurfaceError):
    pass


class NotAdjacent(SurfaceError):
    pass


@dataclass
class Lift:
    """One lift of a base edge path: per step either an interior surface edge
    ('interior', P side over the forward dart, Q side over the reverse) or a
    free side run step ('boundary', side)."""

    steps: list
    end_sheet: int = None  # vertex sheet reached by the last step

    @property
    def is_boundary_run(self):
        return self.steps and self.steps[0][0] == "boundary"


class LiftResult(NamedTuple):
    """The lifts and where they end: the first pair i < j of lifts with one
    end sheet (or None), and the lifts that end on a boundary sheet."""

    lifts: list
    coincident: tuple
    on_boundary: list


@dataclass
class SurfacePath:
    """Simple edge path in the surface: interior edges given by their P sides."""

    sides: list

    def __post_init__(self):
        if not self.sides:
            raise NotSimple("empty path")


def _germ_crossings(s: SurfaceComplex, sheet, dart0):
    """Paired out-sides over dart0 met while walking the sheet's corners in cw order."""
    return [side for side in sheet.corners if s.dart_of(side) == dart0 and side in s.pairing]


def lift_path(s: SurfaceComplex, darts, start_sheet: int) -> LiftResult:
    """All lifts of a base edge path from one vertex sheet X (the lifting lemmas).

    X decides the lifts: lift 0 is a boundary lift when X is a boundary
    sheet whose free out-side lies over the first dart, and each paired
    out-side over that dart among X's corners adds one interior lift; they
    number X's multiplicity.  A folded X is refused, and a boundary lift
    runs over one dart.  The path is extended step by step on all lifts
    simultaneously and truncated as soon as a lift reaches a boundary sheet.
    """
    sheets, corner_sheet = s.sheets()
    X = sheets[start_sheet]
    darts = list(darts)
    if not darts:
        raise PreconditionViolated("empty base path")
    if s.base.tail(darts[0]) != X.vertex:
        raise PreconditionViolated("path does not start under the start sheet")
    for t, d in enumerate(darts[:-1]):
        if s.base.head(d) != s.base.tail(darts[t + 1]):
            raise PreconditionViolated("base path is not an edge path")
    if X.folded:
        raise PreconditionViolated("cannot lift from a folded point")

    d0 = darts[0]
    lifts = []
    if not X.interior and s.dart_of(X.out_side) == d0:
        if len(darts) != 1:
            raise PreconditionViolated("a boundary lift runs over one dart")
        lifts.append(Lift(steps=[("boundary", X.out_side)]))
    for side in _germ_crossings(s, X, d0):
        lifts.append(Lift(steps=[("interior", side, s.pairing[side])]))
    if len(lifts) != X.multiplicity:
        raise PreconditionViolated(
            "lift count %d != multiplicity %d" % (len(lifts), X.multiplicity))

    def end_sheet_of(lift):
        kind, *rest = lift.steps[-1]
        if kind == "interior":
            c2, p2 = rest[1]
            corner = (c2, p2)
        else:
            c, p = rest[0]
            corner = (c, (p + 1) % len(s.cycle_of(c)))
        return corner_sheet[corner]

    t = 0
    while True:
        for lift in lifts:
            lift.end_sheet = end_sheet_of(lift)
        t += 1
        on_boundary = [j for j, lift in enumerate(lifts) if not sheets[lift.end_sheet].interior]
        # a boundary lift ends on the boundary after its one dart
        if t == len(darts) or on_boundary:
            ends = [lift.end_sheet for lift in lifts]
            coincident = next(((i, j) for i in range(len(ends)) for j in range(i + 1, len(ends))
                               if ends[i] == ends[j]), None)
            return LiftResult(lifts, coincident, on_boundary)
        dn = darts[t]
        for lift in lifts:
            sh = sheets[lift.end_sheet]
            if sh.multiplicity != 1:
                raise PreconditionViolated(
                    "lift passes through a branch sheet over vertex %d" % sh.vertex)
            cont = _germ_crossings(s, sh, dn)
            if len(cont) != 1:
                raise PreconditionViolated(
                    "no unique continuation over dart %d at a regular sheet" % dn)
            side = cont[0]
            lift.steps.append(("interior", side, s.pairing[side]))


# -- elementary cut and sew ----------------------------------------------------


def _path_side_pairs(s, path: SurfacePath):
    pairs = []
    for side in path.sides:
        if side not in s.pairing:
            raise NotSimple("path side %r is not an interior edge" % (side,))
        pairs.append((side, s.pairing[side]))
    return pairs


def _check_path(s, path, want_start_boundary):
    sheets, corner_sheet = s.sheets()
    pairs = _path_side_pairs(s, path)
    ids = []
    c, p = pairs[0][0]
    ids.append(corner_sheet[(c, p)])
    for (side, partner) in pairs:
        c2, p2 = partner
        ids.append(corner_sheet[(c2, p2)])
    if len(set(ids)) != len(ids):
        raise NotSimple("path revisits a vertex sheet")
    base_vs = [sheets[i].vertex for i in ids]
    if len(set(base_vs)) != len(base_vs):
        raise NotSimple("path image revisits a base vertex")
    for t, (side, partner) in enumerate(pairs[:-1]):
        nxt = pairs[t + 1][0]
        if s.base.head(s.dart_of(side)) != s.base.tail(s.dart_of(nxt)):
            raise NotSimple("path is not an edge path in the base")
    start, interior, end = sheets[ids[0]], ids[1:-1], sheets[ids[-1]]
    if want_start_boundary and start.interior:
        raise PreconditionViolated("path must start on the boundary")
    if not want_start_boundary and not start.interior:
        raise PreconditionViolated("path must start in the interior")
    for i in interior:
        sh = sheets[i]
        if not sh.interior:
            raise PreconditionViolated("path interior touches the boundary")
        if sh.is_branch:
            raise TouchesBranch("path interior touches a branch point")
        if sh.special:
            raise ImageMeetsSpecial("path interior image meets the special set")
    if not end.interior:
        raise PreconditionViolated("path must end in the interior")
    return pairs, ids


def _cut(s, path, name, want_start_boundary, want_kind):
    """Unpair the sides along the path of a disk; the result must be a
    ``want_kind`` surface."""
    if s.topology_kind() != DISK:
        raise PreconditionViolated("%s needs a disk" % name)
    out = s.copy()
    pairs, _ = _check_path(out, path, want_start_boundary)
    for side, _partner in pairs:
        out.unpair(side)
    require_valid(out, name, strict_scaffold=False)
    if out.topology_kind() != want_kind:
        raise InvalidSurface("%s did not return a surface of type %s" % (name, want_kind))
    return out


def cut_to_boundary(s: SurfaceComplex, path: SurfacePath) -> SurfaceComplex:
    """Cut a disk along a simple arc from a boundary point into the interior.

    The pairings along the path are removed; the boundary gains the doubled
    arc, the area is unchanged, and an interior preimage over the far
    endpoint moves to the boundary.
    """
    return _cut(s, path, "cut_to_boundary", True, DISK)


def cut_interior(s: SurfaceComplex, path: SurfacePath) -> SurfaceComplex:
    """Cut a disk along a simple interior arc, producing an annulus."""
    return _cut(s, path, "cut_interior", False, ANNULUS)


def _check_runs_match(s, run_a, run_b):
    if len(run_a) != len(run_b) or not run_a:
        raise ImagesMismatch("runs differ in length")
    for i, sa in enumerate(run_a):
        sb = run_b[len(run_b) - 1 - i]
        if s.dart_of(sa) != (s.dart_of(sb) ^ 1):
            raise ImagesMismatch("run images do not match reversed at %d" % i)
    for side in list(run_a) + list(run_b):
        if side in s.pairing:
            raise ImagesMismatch("side %r is not free" % (side,))


def sew(s: SurfaceComplex, run_a, run_b):
    """Sew two adjacent boundary runs with mirrored images (Lemma glue).

    Returns (surface, 'A'|'B'): case B closes the surface when the two runs
    exhaust the whole boundary.
    """
    out = s.copy()
    _check_runs_match(out, run_a, run_b)
    if out.walk_successor(run_a[-1]) != run_b[0]:
        raise NotAdjacent("runs are not adjacent at their junction")
    walk_len = len(out.boundary_walk())
    case = "B" if len(run_a) + len(run_b) == walk_len else "A"
    for i, sa in enumerate(run_a):
        out.pair(sa, run_b[len(run_b) - 1 - i])
    require_valid(out, "sew", strict_scaffold=False)
    kind = out.topology_kind()
    if case == "A" and kind != DISK:
        raise InvalidSurface("sew case A must return a disk")
    if case == "B" and kind != CLOSED:
        raise InvalidSurface("sew case B must return a closed surface")
    return out, case


def sew_annulus(s: SurfaceComplex, run_a, run_b) -> SurfaceComplex:
    """Sew the inner boundary of an annulus along its two matched halves."""
    if s.topology_kind() != ANNULUS:
        raise PreconditionViolated("sew_annulus needs an annulus")
    out = s.copy()
    _check_runs_match(out, run_a, run_b)
    inner = None
    for w in out.walks():
        if set(run_a) <= set(w.sides):
            inner = w
            break
    if inner is None or not set(run_b) <= set(inner.sides):
        raise ImagesMismatch("runs do not lie on one boundary walk")
    if len(run_a) + len(run_b) != len(inner):
        raise ImagesMismatch("runs do not partition the inner boundary")
    for i, sa in enumerate(run_a):
        out.pair(sa, run_b[len(run_b) - 1 - i])
    require_valid(out, "sew_annulus", strict_scaffold=False)
    if out.topology_kind() != DISK:
        raise InvalidSurface("sew_annulus must return a disk")
    return out


# -- star rewiring (branch transport) ---------------------------------------


def star_rewire(s: SurfaceComplex, lifts, start_sheet: int) -> SurfaceComplex:
    """Re-pair the lift side runs sector-by-sector around the start sheet.

    Taken in the order of the sheet's corners, each lift's reverse run is
    paired with the next lift's forward run, cyclically: each sector between
    rotationally consecutive lifts is zipped shut, which transports the
    start branching to the far end of the lifts.  A boundary lift has no
    reverse run and comes last (its side is the sheet's last corner), so the
    pair it would start is skipped: the first lift's forward run stays free
    and replaces it on the boundary (same image word).
    """
    out = s.copy()
    X = out.sheets()[0][start_sheet]
    T = len(lifts[0].steps)
    if any(len(lf.steps) != T for lf in lifts):
        raise PreconditionViolated("star_rewire needs equal-length lifts")
    first_sides = {lf.steps[0][1]: lf for lf in lifts}
    order = [first_sides[corner] for corner in X.corners if corner in first_sides]
    if len(order) != len(lifts):
        raise PreconditionViolated("lifts do not all start at the given sheet")

    for lf in lifts:
        for step in lf.steps:
            if step[1] in out.pairing:
                out.unpair(step[1])
    for k, A in enumerate(order):
        if A.is_boundary_run:
            continue
        B = order[(k + 1) % len(order)]
        for t in range(T):
            out.pair(A.steps[t][2], B.steps[t][1])
    return out


def _split_components(s: SurfaceComplex):
    """Split a (possibly disconnected) surface into connected pieces."""
    pieces = []
    for members in s.copy_components():
        remap = {c: i for i, c in enumerate(members)}
        copies = [s.copies[c] for c in members]
        pairing = {}
        for c in members:
            for p in range(len(s.cycle_of(c))):
                t = s.pairing.get((c, p))
                if t is not None:
                    pairing[(remap[c], p)] = (remap[t[0]], t[1])
        pieces.append(SurfaceComplex(s.base.copy(), copies, pairing))
    return pieces


def split_on_lifts(s: SurfaceComplex, lift_a: Lift, lift_b: Lift):
    """Cut along two lifts with coincident or boundary endpoints and cross-sew.

    The surface falls apart into two pieces (closed + disk, or disk + disk);
    within each piece the freed runs are re-paired dart against reversed
    dart.  A boundary lift's run is free already and has no reverse run: its
    piece sews it to the other lift's reverse run, and the other piece keeps
    that lift's forward run free, the new boundary (same image word).
    """
    out = s.copy()
    T = len(lift_a.steps)
    if len(lift_b.steps) != T:
        raise PreconditionViolated("lift lengths differ")
    freed = []
    for lf in (lift_a, lift_b):
        for t, (kind, *sides) in enumerate(lf.steps):
            if kind == "interior":
                out.unpair(sides[0])
            freed += [(t, side) for side in sides]
    # components of the cut-open surface
    groups = out.copy_components()
    if len(groups) != 2:
        raise InvalidSurface("cut along the two lifts made %d pieces" % len(groups))
    for piece_copies in map(set, groups):
        for t in range(T):
            here = [side for tt, side in freed if tt == t and side[0] in piece_copies]
            if len(here) == 1:
                continue  # the forward run opposite a boundary lift stays free
            if len(here) != 2:
                raise InvalidSurface("piece holds %d freed sides at step %d" % (len(here), t))
            a, b = here
            if out.dart_of(a) == out.dart_of(b):
                raise InvalidSurface("freed sides in one piece have equal darts")
            out.pair(a, b)
    pieces = _split_components(out)
    if len(pieces) != 2:
        raise InvalidSurface("cross-sew did not split the surface")
    for piece in pieces:
        require_valid(piece, "split_on_lifts piece")
    return pieces


# -- base refinement at the surface level -------------------------------------


def _remap_pairing(s, old_cycles, home=None, rep=None):
    """Carry the pairing across a base edit, the one place that re-addresses
    sides: a side follows its dart into the face that now holds it.

    ``old_cycles`` maps each copy whose sides moved to its face cycle before
    the edit.  The side over dart d of copy c moves to the sides over
    ``rep[d]`` in order (over d itself when d has no entry, to none when no
    face holds d any more), each at its dart's position in the face f that
    holds it, in copy ``home[c][f]`` (c when there is no entry).  Expanded
    partners pair in reverse order.  Returns {old side: [new sides]} for the
    sides of those copies."""
    home, rep = home or {}, rep or {}
    at = {d: (f, i) for f in s.base.live_faces() for i, d in enumerate(s.base.faces[f].cycle)}
    moves = {}
    for c, cycle in old_cycles.items():
        for p, d in enumerate(cycle):
            moves[c, p] = [(home.get(c, {}).get(at[n][0], c), at[n][1])
                           for n in rep.get(d, [d]) if n in at]
    new_pairing = {}
    for side, partner in s.pairing.items():
        imgs, imgs2 = moves.get(side, [side]), moves.get(partner, [partner])
        if len(imgs) != len(imgs2):
            raise InvalidSurface("pairing expansion mismatch")
        for a, b in zip(imgs, reversed(imgs2)):
            new_pairing[a] = b
    s.pairing = new_pairing
    s.invalidate()
    return moves


def split_edge_surface(s: SurfaceComplex, e: int, point):
    """Split base edge e at a point, and every side over it; returns (surface, new vertex)."""
    out = s.copy()
    old_cycles = {c: list(out.cycle_of(c)) for c in out.live_copy_ids()}
    x, rep = out.base.split_edge(e, point)
    _remap_pairing(out, old_cycles, rep=rep)
    return out, x


def insert_chord_surface(s: SurfaceComplex, face: int, pos_a: int, pos_b: int):
    """Insert a scaffold chord into a face; every copy over it splits in two.

    Returns (surface, chord edge, side map): the side map sends each old side
    of the affected copies to its list of one new side."""
    out = s.copy()
    affected = [c for c in out.live_copy_ids() if out.copies[c] == face]
    old_cycle = list(out.base.faces[face].cycle)
    e, fa, fb = out.base.insert_chord(face, pos_a, pos_b)
    home = {}
    for c in affected:
        home[c] = {fa: out.add_copy(fa), fb: out.add_copy(fb)}
        out.copies[c] = None
    side_map = _remap_pairing(out, dict.fromkeys(affected, old_cycle), home)
    for c in affected:
        out.pair((home[c][fa], 0), (home[c][fb], 0))  # both chord darts sit at position 0
    return out, e, side_map


def delete_edge_surface(s: SurfaceComplex, e: int) -> SurfaceComplex:
    """Delete a base edge all of whose sides are paired; merge faces and copies."""
    out = s.copy()
    _delete_edge(out, e)
    return out


def _delete_edge(out: SurfaceComplex, e: int):
    """``delete_edge_surface`` in place on ``out``."""
    d, dr = 2 * e, 2 * e + 1
    fa = out.base.face_of_dart(d)
    fb = out.base.face_of_dart(dr)
    if fa == fb:
        raise ArrangementError("edge %d does not separate two faces" % e)
    cyc_a = list(out.base.faces[fa].cycle)
    cyc_b = list(out.base.faces[fb].cycle)
    ia, ib = cyc_a.index(d), cyc_b.index(dr)
    copies_a = [c for c in out.live_copy_ids() if out.copies[c] == fa]
    copies_b = [c for c in out.live_copy_ids() if out.copies[c] == fb]
    mates = {}
    for c in copies_a:
        side = (c, ia)
        if side not in out.pairing:
            raise PreconditionViolated("free side over edge %d; cannot delete" % e)
        c2, p2 = out.pairing[side]
        if out.copies[c2] != fb or p2 != ib:
            raise InvalidSurface("pairing over edge %d is not face-to-face" % e)
        mates[c] = c2
    if set(mates.values()) != set(copies_b):
        raise InvalidSurface("pairing over edge %d is not a bijection" % e)
    f = out.base.delete_edge_merge(e)
    old_cycles, home = {}, {}
    for c, c2 in mates.items():
        old_cycles[c], old_cycles[c2] = cyc_a, cyc_b
        home[c] = home[c2] = {f: out.add_copy(f)}
        out.copies[c] = out.copies[c2] = None
    # the pairings over e follow their darts to no side and drop out
    _remap_pairing(out, old_cycles, home)


def cleanup_unused_curve_edges(s: SurfaceComplex) -> SurfaceComplex:
    """Drop CURVE edges no longer traversed by the boundary (two-face ones).

    The first deletion copies ``s``; the later ones edit that copy."""
    out = s
    while True:
        mult = out.multiplicities()
        target = None
        for e in out.base.live_edges():
            if out.base.edges[e].kind != CURVE or sum(mult[e]) != 0:
                continue
            if out.base.face_of_dart(2 * e) != out.base.face_of_dart(2 * e + 1):
                target = e
                break
        if target is None:
            return out
        if out is s:
            out = s.copy()
        _delete_edge(out, target)


# -- tip absorption -----------------------------------------------------------


def absorb_tip_into_vertex(s: SurfaceComplex, tip: int, target: int) -> SurfaceComplex:
    """Merge a special scaffold tip into an on-curve vertex at the same point.

    One re-cut of the branch cut.  The tip's slit is carried forward along
    its face cycle until it hangs from the target's corner, then dropped.
    The slit monodromy rho pairs (c, s_out) with (rho(c), s_in).  Every side
    the slit sweeps past is recomposed with rho in cycle order: (c, swept)
    takes the partner that (rho(c), swept) has at that point, so a later
    side reads the pairing an earlier one left.  Each of those sides must be
    paired.  The side that leaves the target's corner is not crossed by the
    cut and keeps its partner, so the branching lands on the target and the
    label keeps its n-bar.
    """
    out = s.copy()
    bc = out.base
    if len(bc.fans[tip]) != 1:
        raise PreconditionViolated("vertex %d is not a scaffold tip" % tip)
    if not points_coincide(bc.vertices[tip], bc.vertices[target]):
        raise PreconditionViolated("tip %d and target %d do not coincide" % (tip, target))
    s_out = bc.fans[tip][0] ^ 1
    face = bc.face_of_dart(s_out)
    cyc = list(bc.faces[face].cycle)
    n = len(cyc)
    k = cyc.index(s_out)
    if cyc[(k + 1) % n] != s_out ^ 1:
        raise InvalidSurface("slit darts are not adjacent in the face cycle")
    affected = [c for c in out.live_copy_ids() if out.copies[c] == face]
    rho = {}
    for c in affected:
        c2, p2 = out.pairing[(c, k)]
        if out.copies[c2] != face or p2 != (k + 1) % n:
            raise InvalidSurface("slit pairing leaves the face")
        rho[c] = c2

    # the slit hangs from tail(cyc[k + 2]) and slides past the sides before
    # the one that leaves the target
    swept = [(k + i) % n for i in range(2, n)]
    reach = next((j for j, p in enumerate(swept) if bc.tail(cyc[p]) == target), None)
    if reach is not None:
        swept = swept[:reach]
    if any((c, p) not in out.pairing for p in swept for c in affected):
        raise PreconditionViolated("slit slide would cross a free side")
    if reach is None:
        raise InvalidSurface("slit slide did not reach the target corner")

    pairing = out.pairing
    for p in swept:
        old = {c: pairing.pop((c, p)) for c in affected}
        for c in affected:
            pairing.pop(old[c])
        for c in affected:
            mate = old[rho[c]]
            pairing[(c, p)] = mate
            pairing[mate] = (c, p)
    bc.absorb_tip(tip, target, cyc[swept[-1]] if reach else None)
    _remap_pairing(out, dict.fromkeys(affected, cyc))
    return out
