"""tools/guards.py: the package is clean, and each rule reports a seeded offence."""

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
