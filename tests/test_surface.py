import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from spherecover.generators import generate_closed_cyclic_cover, generate_disk_covering
from spherecover.surface import (
    BoundaryWalk,
    CLOSED,
    DISK,
    InvalidSurface,
    SurfaceComplex,
    boundary_multiplicities,
    classify_vertices,
    closed_subarc_match,
    functionals,
    is_better_than,
    is_closed_subarc,
    riemann_hurwitz_check,
    validate,
)
from spherecover.geometry import Rotation
from spherecover.oracle import oracle_verify

from conftest import f4_double_cover, f4_with_north, identity_hemisphere

FOUR_PI = 4 * math.pi


def test_identity_hemisphere_valid_disk(hemisphere):
    assert validate(hemisphere) == []
    assert hemisphere.topology_kind() == DISK
    assert hemisphere.euler_characteristic() == 1


def test_dropped_scaffold_pairing_detected(f4):
    s = f4.copy()
    side = next(x for x in list(s.pairing)
                if s.base.kind(s.dart_of(x)) == "scaffold")
    s.unpair(side)
    bad = validate(s)
    assert any("scaffold" in msg for msg in bad)


def test_double_cover_closed_chi_two():
    s = generate_closed_cyclic_cover(2)
    assert validate(s) == []
    assert s.topology_kind() == CLOSED
    assert s.euler_characteristic() == 2


def test_classify_interior_branch(f4):
    sheets = classify_vertices(f4)
    branch = [sh for sh in sheets if sh.is_branch]
    assert len(branch) == 1
    sh = branch[0]
    assert sh.interior and sh.degree == 2 and sh.multiplicity == 2
    assert sh.branch_index == 1 and not sh.special


def test_classify_regular_boundary_vertex(hemisphere):
    sheets = classify_vertices(hemisphere)
    boundary = [sh for sh in sheets if not sh.interior]
    assert boundary
    for sh in boundary:
        assert sh.degree == 1 and sh.multiplicity == 1 and not sh.folded


def test_classify_folded_slit():
    from spherecover.surgery import SurfacePath, cut_to_boundary

    s = f4_with_north()
    sheets, corner_sheet = s.sheets()
    side = None
    for cand in s.sides():
        if cand not in s.pairing:
            continue
        c, p = cand
        tail = sheets[corner_sheet[(c, p)]]
        head = sheets[corner_sheet[(c, (p + 1) % len(s.cycle_of(c)))]]
        if (not tail.interior) and head.interior and not head.special \
                and not head.is_branch and s.base.kind(s.dart_of(cand)) == "curve":
            side = cand
            break
    assert side is not None
    cut = cut_to_boundary(s, SurfacePath([side]))
    folded = [sh for sh in classify_vertices(cut)
              if (not sh.interior) and sh.folded]
    assert folded
    tip = folded[0]
    assert tip.degree == 2 and tip.multiplicity == 1


def test_functionals_identity(hemisphere):
    rep = functionals(hemisphere)
    assert rep.area == pytest.approx(2 * math.pi, abs=1e-12)
    assert rep.boundary_length == pytest.approx(2 * math.pi, abs=1e-12)
    assert rep.n_bar_special == 0
    assert rep.reduced_area == pytest.approx(2 * math.pi, abs=1e-9)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.covering_sum == 1


def test_functionals_f4(f4):
    rep = functionals(f4)
    assert rep.area == pytest.approx(4 * math.pi, abs=1e-9)
    assert rep.boundary_length == pytest.approx(4 * math.pi, abs=1e-9)
    assert rep.n_bar_special == 0
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.covering_sum == 2


def test_functionals_closed_double_cover_special_branch():
    s = generate_closed_cyclic_cover(2, q=3, branch_special=True)
    rep = functionals(s)
    assert rep.area == pytest.approx(8 * math.pi, abs=1e-9)
    assert rep.n_bar_special == 2 * 1 + (3 - 2) * 2
    assert rep.reduced_area == pytest.approx(-8 * math.pi, abs=1e-9)
    assert rep.degree == 2


def test_functionals_report_cached_until_the_surface_changes():
    s = generate_closed_cyclic_cover(2)
    rep = functionals(s)
    assert functionals(s) is rep
    side = next(x for x in sorted(s.pairing) if s.base.kind(s.dart_of(x)) == "curve")
    mate = s.unpair(side)
    cut = functionals(s)
    assert (rep.topology, cut.topology) == (CLOSED, DISK)
    assert cut.boundary_length == pytest.approx(2 * s.base.length(s.dart_of(side)))
    s.pair(side, mate)
    assert functionals(s) is not rep and functionals(s) == rep
    c = s.add_copy(s.copies[0])
    with pytest.raises(InvalidSurface):  # a loose copy: no stale closed report
        functionals(s)
    s.copies[c] = None
    s.invalidate()
    assert functionals(s) == rep


def test_boundary_multiplicities_identity(hemisphere):
    mult = boundary_multiplicities(hemisphere)
    curve = {e: v for e, v in mult.items()}
    assert sorted(curve.values()) == [(0, 1), (0, 1), (0, 1)] or \
        sorted(curve.values()) == [(1, 0), (1, 0), (1, 0)]


def test_boundary_multiplicities_f4(f4):
    nf = f4.n_face()
    for e, (mp, mm) in boundary_multiplicities(f4).items():
        assert mp + mm == 2
        assert min(mp, mm) == 0
        lhs = nf[f4.base.face_of_dart(2 * e)] - mp
        rhs = nf[f4.base.face_of_dart(2 * e + 1)] - mm
        assert lhs == rhs


def test_riemann_hurwitz_sweep():
    for d in (1, 2, 3, 4):
        s = generate_closed_cyclic_cover(d)
        deg, b_total, residual = riemann_hurwitz_check(s)
        assert deg == d
        assert residual == 0
        assert b_total == 2 * d - 2


def _word_walk(darts):
    return BoundaryWalk(tuple((0, i) for i in range(len(darts))), tuple(darts), 0.0)


class _FakeBase:
    """Minimal stand-in for junction lookups in closed-subarc tests."""

    def __init__(self, tails):
        self.tails = tails

    def tail(self, d):
        return self.tails[d]


def test_closed_subarc_identity():
    darts = [2, 4, 6, 8]
    base = _FakeBase({2: 0, 4: 1, 6: 2, 8: 3})
    ok, _ = is_closed_subarc(_word_walk(darts), _word_walk(darts), base)
    assert ok
    ok, _ = is_closed_subarc(_word_walk([4, 6, 8, 2]), _word_walk(darts), base)
    assert ok


def test_closed_subarc_doubled_arc():
    # out-and-back pair dropped in one closed discard
    tails = {10: 0, 11: 1, 2: 0, 4: 2}  # G: 0->1, -G: 1->0, g': 0->2, g'': 2->0
    base = _FakeBase(tails)
    ok, _ = is_closed_subarc(_word_walk([2, 4]), _word_walk([10, 11, 2, 4]), base)
    assert ok
    # interleaved doubled loop arc: two separate discards, each a closed loop
    # at the same junction image (the m=2 shape of the definition)
    tails2 = {10: 0, 2: 0, 4: 0}
    ok2, _ = is_closed_subarc(_word_walk([2, 4]), _word_walk([10, 2, 10, 4]),
                              _FakeBase(tails2))
    assert ok2
    # with distinct junctions the interleaved discards are not closed
    tails3 = {10: 0, 2: 1, 11: 2, 4: 3}
    ok3, _ = is_closed_subarc(_word_walk([2, 4]), _word_walk([10, 2, 11, 4]),
                              _FakeBase(tails3))
    assert not ok3


def _brute_closed_subarc(word1, junctions1, word2):
    """Every rotation of word1 times every kept subset whose deleted runs are closed."""
    n = len(word1)
    for rot in range(n):
        w = word1[rot:] + word1[:rot]
        jv = junctions1[rot:] + junctions1[:rot] + [junctions1[rot]]
        for mask in range(1 << n):
            if [w[i] for i in range(n) if mask >> i & 1] != word2:
                continue
            closed, i = True, 0
            while i < n:
                if mask >> i & 1:
                    i += 1
                    continue
                start = i
                while i < n and not mask >> i & 1:
                    i += 1
                closed = closed and jv[start] == jv[i]
            if closed:
                return True
    return False


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_closed_subarc_match_agrees_with_brute_force(data):
    n = data.draw(st.integers(1, 7))
    word1 = data.draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    junctions1 = data.draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # a kept subset of a rotation: often a closed subarc, sometimes not
        rot = data.draw(st.integers(0, n - 1))
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        w = word1[rot:] + word1[:rot]
        word2 = [c for c, keep in zip(w, mask) if keep] or w[:1]
    else:
        word2 = data.draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=n + 1))
    witness = closed_subarc_match(word1, junctions1, word2)
    assert (witness is not None) == _brute_closed_subarc(word1, junctions1, word2)
    if witness is None:
        return
    r = witness["rotation"]
    w = word1[r:] + word1[:r]
    jv = junctions1[r:] + junctions1[:r] + [junctions1[r]]
    runs = witness["kept_runs"]
    assert [w[i] for a, b in runs for i in range(a, b)] == word2
    bounds = [0] + [x for run in runs for x in run] + [n]
    assert bounds == sorted(bounds)
    gaps = list(zip(bounds[0::2], bounds[1::2]))
    assert all(jv[a] == jv[b] for a, b in gaps if a < b)


def test_closed_subarc_absent_arc_false():
    base = _FakeBase({2: 0, 4: 1, 6: 2, 8: 3, 12: 0})
    ok, _ = is_closed_subarc(_word_walk([2, 12]), _word_walk([2, 4, 6, 8]), base)
    assert not ok


def test_closed_subarc_transitive_chain():
    tails = {0: 0, 2: 1, 4: 2, 6: 0, 8: 1, 10: 2}
    base = _FakeBase(tails)
    w1 = [0, 2, 4, 6, 8, 10]       # junctions 0,1,2,0,1,2
    w2 = [0, 2, 4]                 # drop the loop 6,8,10 (closes 0 -> 0)
    w3 = [0, 2, 4]
    ok12, _ = is_closed_subarc(_word_walk(w2), _word_walk(w1), base)
    ok23, _ = is_closed_subarc(_word_walk(w3), _word_walk(w2), base)
    ok13, _ = is_closed_subarc(_word_walk(w3), _word_walk(w1), base)
    assert ok12 and ok23 and ok13


def test_better_than_reflexive(f4):
    ok, report = is_better_than(f4, f4, Rotation.identity())
    assert ok, report


def test_better_than_detects_nbar_increase():
    worse = f4_with_north()       # covers the north face: n_bar grows
    better = f4_double_cover()
    ok, report = is_better_than(worse, better, Rotation.identity())
    assert not ok
    assert not report["n_bar"][0]


def test_oracle_on_fixtures(hemisphere, f4):
    assert oracle_verify(hemisphere) == []
    assert oracle_verify(f4) == []
    assert oracle_verify(generate_closed_cyclic_cover(3)) == []


def test_oracle_recounts_the_tables_instead_of_reading_the_cache(f4):
    # planted after the report: a boundary side over a scaffold arc in the
    # cached multiplicities, which no length or edge-relation check sees
    functionals(f4)
    mult = f4.multiplicities()
    e = next(e for e in mult if f4.base.edges[e].kind == "scaffold")
    f4._cache["mult"] = {**mult, e: (1, 0)}
    assert [m.split(":")[0] for m in oracle_verify(f4)] == ["multiplicities"]
    f4._cache["mult"] = mult
    f4._cache["free"] = f4._cache["free"][1:]
    assert [m.split(":")[0] for m in oracle_verify(f4)] == ["free sides"]
    f4.invalidate()
    assert oracle_verify(f4) == []
    side = next(x for x in sorted(f4.pairing) if f4.base.kind(f4.dart_of(x)) == "scaffold")
    f4.unpair(side)
    assert "scaffold arc %d on the boundary" % (f4.dart_of(side) >> 1) in oracle_verify(f4)


def test_validate_flags_cross_wired_pairing():
    s = f4_with_north()
    curve_sides = [x for x in s.pairing
                   if s.base.edges[s.dart_of(x) >> 1].kind == "curve"
                   and (s.dart_of(x) & 1) == 0]
    a, b = curve_sides[0], curve_sides[1]
    assert s.dart_of(a) != s.dart_of(b)
    pa, pb = s.pairing[a], s.pairing[b]
    s.pairing[a], s.pairing[pb] = pb, a
    s.pairing[b], s.pairing[pa] = pa, b
    s.invalidate()
    bad = validate(s)
    assert any("opposite darts" in msg for msg in bad)


def test_oracle_flags_unbalanced_multiplicity():
    # dropping a whole copy's pairings by hand leaves sides referencing a dead
    # copy; validate reports it before any functional is trusted
    s = f4_with_north()
    victim = s.live_copy_ids()[-1]
    s.copies[victim] = None
    s.invalidate()
    assert validate(s) != []
