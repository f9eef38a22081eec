import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from spherecover import io
from spherecover.arrangement import CURVE
from spherecover.generators import generate_closed_cyclic_cover, generate_disk_covering
from spherecover.surface import (
    BoundaryWalk,
    CLOSED,
    DISK,
    InvalidSurface,
    SurfaceComplex,
    SurfaceError,
    closed_subarc_match,
    functionals,
    is_better_than,
    is_closed_subarc,
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
    sheets = f4.sheet_list()
    branch = [sh for sh in sheets if sh.is_branch]
    assert len(branch) == 1
    sh = branch[0]
    assert sh.interior and sh.degree == 2 and sh.multiplicity == 2
    assert sh.branch_index == 1 and not sh.special


def test_classify_regular_boundary_vertex(hemisphere):
    sheets = hemisphere.sheet_list()
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
    folded = [sh for sh in cut.sheet_list()
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
    curve = {e: mm for e, mm in hemisphere.multiplicities().items()
             if hemisphere.base.edges[e].kind == CURVE}
    assert sorted(curve.values()) == [(0, 1), (0, 1), (0, 1)] or \
        sorted(curve.values()) == [(1, 0), (1, 0), (1, 0)]


def test_boundary_multiplicities_f4(f4):
    nf = f4.n_face()
    curve = {e: mm for e, mm in f4.multiplicities().items()
             if f4.base.edges[e].kind == CURVE}
    assert curve
    for e, (mp, mm) in curve.items():
        assert mp + mm == 2
        assert min(mp, mm) == 0
        lhs = nf[f4.base.face_of_dart(2 * e)] - mp
        rhs = nf[f4.base.face_of_dart(2 * e + 1)] - mm
        assert lhs == rhs


def test_riemann_hurwitz_sweep():
    for d in (1, 2, 3, 4):
        s = generate_closed_cyclic_cover(d)
        rep = functionals(s)
        assert rep.degree == d
        assert rep.b_special + rep.b_nonspecial - (2 * rep.degree - 2) == 0


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


def ref_closed_subarc_match(word1, junctions1, word2):
    """closed_subarc_match as a depth-first search over (i, j) states: i
    symbols of the rotation passed, j of word2 kept.  A kept symbol moves to
    (i + 1, j + 1) and a deletion to any later position with junction i's key;
    the witness is the path that first reaches (n, m)."""
    word1, junctions1, word2 = list(word1), list(junctions1), list(word2)
    n, m = len(word1), len(word2)
    if m == 0 or n == 0:
        return None
    if n == m:
        for rot in range(n):
            if word1[rot:] + word1[:rot] == word2:
                return {"rotation": rot, "kept_runs": [(0, n)]}
        return None

    def attempt(rot):
        w = word1[rot:] + word1[:rot]
        jv = junctions1[rot:] + junctions1[:rot]

        def junction(i):
            return jv[i % n]

        by_key = {}
        for i in range(n + 1):
            by_key.setdefault(junction(i), []).append(i)
        start = (0, 0)
        parents = {start: None}
        stack = [start]
        while stack:
            i, j = stack.pop()
            if (i, j) == (n, m):
                continue
            if i < n and j < m and w[i] == word2[j]:
                nxt = (i + 1, j + 1)
                if nxt not in parents:
                    parents[nxt] = (i, j)
                    stack.append(nxt)
            for i2 in by_key.get(junction(i), []):
                if i2 > i:
                    nxt = (i2, j)
                    if nxt not in parents:
                        parents[nxt] = (i, j)
                        stack.append(nxt)
        if (n, m) not in parents:
            return None
        path = []
        cur = (n, m)
        while cur is not None:
            path.append(cur)
            cur = parents[cur]
        path.reverse()
        runs = []
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            if j2 == j1 + 1:
                if runs and runs[-1][1] == i1:
                    runs[-1] = (runs[-1][0], i2)
                else:
                    runs.append((i1, i2))
        return {"rotation": rot, "kept_runs": runs}

    for rot in range(n):
        if word1[rot] == word2[0]:
            res = attempt(rot)
            if res is not None:
                return res
    return None


def _closed_walk(data, max_n):
    """A closed walk over the junctions "xyz": symbols (tail, label, head),
    each head the next symbol's tail, and its tails."""
    n = data.draw(st.integers(1, max_n))
    tails = data.draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    word1 = [(tails[i], labels[i], tails[(i + 1) % n]) for i in range(n)]
    return word1, tails


def _sub_word(data, word1, tails):
    """word1 rotated, then loops deleted, symbols dropped or one mutated; or
    a word drawn from word1's symbols and strangers."""
    n = len(word1)
    rot = data.draw(st.integers(0, n - 1))
    w = word1[rot:] + word1[:rot]
    jv = tails[rot:] + tails[:rot] + [tails[rot]]
    how = data.draw(st.sampled_from(["loops", "drop", "mutate", "equal", "any"]))
    if how == "loops":
        keep = [True] * n
        for a in data.draw(st.lists(st.integers(0, n), max_size=3)):
            b = data.draw(st.sampled_from([b for b in range(a, n + 1) if jv[b] == jv[a]]))
            keep[a:b] = [False] * (b - a)
        return [c for c, k in zip(w, keep) if k]
    if how == "drop":
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return [c for c, k in zip(w, mask) if k]
    symbols = st.sampled_from(word1) | st.tuples(*[st.sampled_from(s) for s in ("xyz", "ab", "xyz")])
    if how == "mutate":
        i = data.draw(st.integers(0, n - 1))
        return w[:i] + [data.draw(symbols)] + w[i + 1:]
    if how == "equal":
        return w
    return data.draw(st.lists(symbols, min_size=1, max_size=n + 1))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_closed_subarc_match_agrees_with_brute_force(data):
    word1, junctions1 = _closed_walk(data, 7)
    word2 = _sub_word(data, word1, junctions1) or word1[:1]
    n = len(word1)
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


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_closed_subarc_match_gives_the_search_witness(data):
    word1, junctions1 = _closed_walk(data, 12)
    word2 = _sub_word(data, word1, junctions1)
    assert closed_subarc_match(word1, junctions1, word2) == ref_closed_subarc_match(word1, junctions1, word2)


def test_closed_subarc_match_refuses_a_walk_that_is_not_closed():
    # "a" ends at y before "b" and at z before "c": its head is not its own
    word1, junctions1 = ["a", "b", "a", "c"], ["x", "y", "x", "z"]
    with pytest.raises(SurfaceError, match="not a closed walk"):
        closed_subarc_match(word1, junctions1, ["a"])


class _Counted:
    """A symbol that counts the equality tests made on symbols."""

    eqs = 0

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        _Counted.eqs += 1
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)


def test_closed_subarc_match_work_is_linear():
    rng = random.Random(32)
    n = 800
    tails = [rng.choice("wxyz") for _ in range(n)]
    interned = {}
    word1 = [interned.setdefault(key, _Counted(key))
             for key in ((tails[i], rng.choice("ab"), tails[(i + 1) % n]) for i in range(n))]
    # delete the loop from position 100 to the next one at the same junction (103)
    a = 100
    b = next(b for b in range(a + 1, n) if tails[b] == tails[a])
    word2 = word1[:a] + word1[b:]
    _Counted.eqs = 0
    witness = closed_subarc_match(word1, tails, word2)
    assert witness == {"rotation": 0, "kept_runs": [(0, a), (b, n)]}
    # the scan makes 798 equality tests here; ref_closed_subarc_match makes 80,235
    assert _Counted.eqs <= 3 * (n + len(word2))


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


# -- traversals of a pairing that is not an involution ------------------------

STRESS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1" / "stress.jsonl"


def _stress_lines(n):
    """Stress corpus lines 1 to n as surfaces."""
    return [io.surface_from_dict(json.loads(line)) for line in STRESS.read_text().splitlines()[:n]]


def _partner_dropped(s, pick):
    """A copy of s where a side keeps its partner b but b is unpaired: the
    first paired side (pick 0) or the middle one (pick 1) in sorted order."""
    out = SurfaceComplex(s.base, s.copies, s.pairing)
    sides = sorted(out.pairing)
    out.pairing.pop(out.pairing[sides[pick * len(sides) // 2]])
    return out


@pytest.mark.parametrize("traversal, bound_error", [("sheets", "does not end"),
                                                    ("walks", "no boundary successor")])
def test_a_dropped_partner_stops_the_traversal(traversal, bound_error):
    # two drops on each of stress lines 1-12: every traversal raises, and on
    # 8 of the 24 surfaces (a boundary chain of sheets(), walk_successor
    # under walks()) only its step bound stops a loop round a cycle
    errors = []
    for s in _stress_lines(12):
        for pick in (0, 1):
            with pytest.raises(InvalidSurface) as err:
                getattr(_partner_dropped(s, pick), traversal)()
            errors.append(str(err.value))
    assert sum(bound_error in e for e in errors) == 8


def test_two_sides_with_one_partner_stop_the_orbit_walk():
    # In an interior sheet's corner orbit, the corner c before the orbit's
    # least corner f is given f's partner: c then steps past f, so the walk
    # from f (the first corner sheets() takes there) enters a cycle without
    # f.  Stress lines 11 and 12 have no such sheet.
    stopped = 0
    for s in _stress_lines(12):
        inner = [sh for sh in s.sheet_list() if sh.interior and sh.ell >= 2]
        if not inner:
            continue
        corners = inner[0].corners
        i = corners.index(min(corners))
        bad = SurfaceComplex(s.base, s.copies, s.pairing)
        bad.pairing[corners[i - 1]] = bad.pairing[corners[i]]
        with pytest.raises(InvalidSurface, match="^orbit of corner .* does not close$"):
            bad.sheets()
        stopped += 1
    assert stopped == 10
