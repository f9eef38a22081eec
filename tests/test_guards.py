"""tools/guards.py: the package is clean, and each rule reports a seeded offence."""

import pathlib
import re
import shutil

import pytest

from conftest import tool_module

guards = tool_module("guards")
NORMALIZE_ONLY_EDITS = sorted(f.split(".")[1] for f in guards.NORMALIZE_ONLY_EDITS)


def _seeded_copy(tmp_path, module, code):
    """A copy of the package with ``code`` appended to ``module``; returns the
    copy's directory, the seeded file and the first line of the code."""
    pkg = tmp_path / "spherecover"
    shutil.copytree(guards.PACKAGE, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    path = pkg / (module + ".py")
    text = path.read_text()
    path.write_text(text + "\n\n" + code)
    return pkg, path, text.count("\n") + 3


def test_the_package_is_clean(capsys):
    assert guards.check() == []
    assert guards.main() == 0
    assert capsys.readouterr().out == ""


# One seeded offence per rule and per edit of the surgery rule, both forms of a
# private use, and the two uses that text matching misses: an item store on
# .pairing and an alias of require_valid.
SEEDS = [
    ("normalize", "def _seeded(s):\n    return s._cache\n", "touch", "_cache"),
    ("surface", "def _seeded(s):\n    return s.base._segments\n", "touch", "_segments"),
    ("surgery", "def _seeded(s):\n    s.base._invalidate()\n", "touch", "_invalidate"),
    ("generators", "def _seeded(s):\n    s.pairing = {}\n", "write", "pairing"),
    ("generators", "def _seeded(s, side, nxt):\n    s.pairing[side] = nxt\n", "write", "pairing"),
    ("surgery", "def _seeded(trace):\n    _record_step(trace)\n", "ref", "_record_step"),
    ("normalize", "def _seeded(s):\n    return insert_chord_surface(s, 0, 0, 1)\n",
     "ref", "insert_chord_surface"),
    ("normalize", "def _seeded():\n    raise NoSuchPath('no route')\n", "ref", "NoSuchPath"),
    ("normalize", "def _seeded(s):\n    return cleanup_unused_curve_edges(s)\n",
     "ref", "cleanup_unused_curve_edges"),
    ("normalize", "def _seeded(s):\n    require_valid(s, 'step')\n", "ref", "require_valid"),
    ("normalize", "def _seeded(out):\n    check = require_valid\n    check(out)\n", "ref", "require_valid"),
    ("normalize", "def _seeded(segs, axis):\n    return contact_angles(segs, [], axis)\n",
     "ref", "contact_angles"),
] + [
    ("surgery", "def %s(out):\n    require_valid(out, 'edit')\n" % f, "ref", "require_valid")
    for f in NORMALIZE_ONLY_EDITS
] + [
    ("normalize", "from .geometry import _fdot\n", "private", "_fdot"),
    ("surface", "def _seeded(a, b):\n    return geometry._fdot(a, b)\n", "private", "_fdot"),
    ("oracle", "def _never_read():\n    return 1\n", "def", "_never_read"),
    ("surface", "def _seeded(w1, j1, w2):\n    return closed_subarc_match(w1, j1, w2)\n",
     "ref", "closed_subarc_match"),
    ("surgery", "def _seeded(bc):\n    return bc._face_successors(bc.live_vertices())\n",
     "ref", "_face_successors"),
    ("normalize", "def _seeded(segs, p):\n    return geometry.locate_on_arcs(segs, p)\n",
     "ref", "locate_on_arcs"),
    ("arrangement", "def _seeded(bc, v, p, tangents):\n    return wedge_index(bc.vertices[v], p, tangents)\n",
     "ref", "wedge_index"),
    ("arrangement", "from functools import cached_property\n_seeded = cached_property(len)\n",
     "ref", "cached_property"),
    ("surface", "import functools\n_seeded = functools.cached_property(len)\n",
     "ref", "cached_property"),
    ("normalize", "def _seeded(at, p, tangents):\n    return geometry.wedge_index(at, p, tangents)\n",
     "ref", "wedge_index"),
    ("arrangement", "def _seeded(x, y):\n    return math.atan2(y, x)\n", "ref", "atan2"),
    ("surgery", "from math import atan2\n_seeded = atan2(1.0, 0.0)\n", "ref", "atan2"),
    ("normalize", "def _seeded(lifts):\n    return lifts[0].is_boundary_run\n", "ref", "is_boundary_run"),
]


@pytest.mark.parametrize("module, code, kind, name", SEEDS,
                         ids=["%s-%d" % (seed[3], i) for i, seed in enumerate(SEEDS)])
def test_a_seeded_offence_is_reported(tmp_path, module, code, kind, name):
    pkg, path, first = _seeded_copy(tmp_path, module, code)
    offences = guards.check(pkg)
    # the rest of the copy is clean, so every offence lies in the seeded code
    assert offences and all(p == path and line >= first for p, line, _ in offences), offences
    reasons = {reason for rkind, _, _, _, reason in guards.RULES if rkind == kind}
    assert any(msg == "%s (%s)" % (reason, name) for reason in reasons for *_, msg in offences), offences


def test_main_prints_file_line_reason(tmp_path, capsys):
    pkg, path, first = _seeded_copy(tmp_path, "normalize", "def _seeded(s):\n    return s._cache\n")
    assert guards.main(pkg) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(guards.check(pkg)) > 0
    for text in lines:
        assert re.fullmatch(r"\S+normalize\.py:\d+: .+ \(\w+\)", text), text


def test_comments_and_docstrings_are_not_uses(tmp_path):
    pkg, path, _ = _seeded_copy(
        tmp_path, "normalize", "# _record_step(trace); s._cache; s.pairing[side] = nxt; from .geometry import _fdot\n")
    text = path.read_text()
    head = 'def slide_boundary_branch(s: SurfaceComplex, sheet_index: int):\n    """'
    assert head in text
    path.write_text(text.replace(head, head + "Checked by require_valid(out) in _drive.\n\n    "))
    assert guards.check(pkg) == []


@pytest.mark.parametrize("row", [
    ("ref", "contact_angles", {"normalize"}, {"normalize._ordered_contact"}, "misspelt allowed place"),
    ("ref", "contact_angles", {"normalise"}, set(), "misspelt module"),
    ("ref", "dot", {"geometry.Rotation.aply"}, set(), "misspelt method"),
])
def test_a_place_the_package_does_not_hold_is_reported(monkeypatch, row):
    monkeypatch.setattr(guards, "RULES", guards.RULES + [row])
    tool = pathlib.Path(guards.__file__)
    assert [o for o in guards.check() if o[0] == tool] == [
        (tool, 0, "no such place in the package (%s)" % place) for place in sorted(row[2] | row[3])
        if place != "normalize"]


def test_a_renamed_def_does_not_drop_out_of_its_rule(tmp_path):
    # the one caller of contact_angles renamed: its row names a place that is gone
    pkg, path, _ = _seeded_copy(tmp_path, "normalize", "")
    path.write_text(path.read_text().replace("def _ordered_contacts(", "def _contacts_in_order("))
    offences = guards.check(pkg)
    assert (pathlib.Path(guards.__file__), 0, "no such place in the package (normalize._ordered_contacts)") \
        in offences
