"""Versioned JSON interchange format for surfaces (the SurfaceFile)."""

from __future__ import annotations

import json
import math

from .arrangement import CURVE, SCAFFOLD, ArrangementError, BaseComplex, Edge, Face
from .geometry import EPS_UNIT, Rotation, norm
from .surface import SurfaceComplex

SCHEMA_VERSION = 1


class SurfaceFileError(ValueError):
    pass


def base_to_dict(bc: BaseComplex) -> dict:
    """The base's tables; each number is written as ``repr(float(x))``."""
    return {
        "vertices": [None if v is None else
                     [repr(float(v[0])), repr(float(v[1])), repr(float(v[2]))] for v in bc.vertices],
        "fans": [list(f) for f in bc.fans],
        "edges": [None if e is None else
                  {"a": e.a, "b": e.b, "kind": e.kind, "length": repr(float(e.length))}
                  for e in bc.edges],
        "faces": [None if f is None else
                  {"cycle": list(f.cycle), "area": repr(float(f.area))} for f in bc.faces],
        "specials": {str(v): lab for v, lab in bc.specials.items()},
        "markers": sorted(bc.markers),
        "traversal": list(bc.traversal),
    }


def _vertex_from_list(v) -> tuple:
    try:
        if type(v) is not list or bool in map(type, v):
            raise TypeError  # float() would take a string's characters or a bool
        x, y, z = map(float, v)
    except (TypeError, ValueError):
        x = y = z = math.nan
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise SurfaceFileError("vertex %r is not exactly 3 finite numbers" % (v,))
    if not abs(norm((x, y, z)) - 1.0) <= EPS_UNIT:
        raise SurfaceFileError("vertex %r is not on the unit sphere" % (v,))
    return x, y, z


def _edge_from_dict(e) -> Edge:
    if e["kind"] not in (CURVE, SCAFFOLD):
        raise SurfaceFileError("edge kind %r is not %r or %r" % (e["kind"], CURVE, SCAFFOLD))
    if not (type(e["a"]) is int and type(e["b"]) is int):
        raise SurfaceFileError("edge ends %r and %r are not both ints" % (e["a"], e["b"]))
    return Edge(e["a"], e["b"], e["kind"], float(e["length"]))


def base_from_dict(d: dict) -> BaseComplex:
    bc = BaseComplex()
    bc.vertices = [None if v is None else _vertex_from_list(v) for v in d["vertices"]]
    bc.fans = [list(f) for f in d["fans"]]
    bc.edges = [None if e is None else _edge_from_dict(e) for e in d["edges"]]
    bc.faces = [None if f is None else Face(list(f["cycle"]), float(f["area"]))
                for f in d["faces"]]
    if {type(x) for darts in (*bc.fans, *(f.cycle for f in bc.faces if f)) for x in darts} - {int}:
        raise SurfaceFileError("a fan or face cycle holds a dart that is not an int")
    bc.specials = {int(v): lab for v, lab in d["specials"].items()}
    bc.markers = set(d.get("markers", []))
    traversal = d.get("traversal", [])
    if type(traversal) is not list or {type(x) for x in traversal} - {int}:
        raise SurfaceFileError("traversal %r is not a list of ints" % (traversal,))
    bc.traversal = list(traversal)
    return bc


def surface_to_dict(s: SurfaceComplex, metadata=None) -> dict:
    # the first sides are distinct, so the pairs sort by them alone
    pairing = sorted([list(a), list(b)] for a, b in s.pairing.items() if a <= b)
    return {
        "format": "spherecover-surface",
        "version": SCHEMA_VERSION,
        "base": base_to_dict(s.base),
        "copies": list(s.copies),
        "pairing": pairing,
        "metadata": metadata or {},
    }


def _side_from_list(x) -> tuple:
    if not (isinstance(x, list) and len(x) == 2 and all(type(i) is int for i in x)):
        raise SurfaceFileError("pairing side %r is not exactly 2 ints" % (x,))
    return tuple(x)


def surface_from_dict(d: dict) -> SurfaceComplex:
    """Parse and structurally check a surface document; every malformed
    shape raises SurfaceFileError."""
    if not isinstance(d, dict) or d.get("format") != "spherecover-surface":
        raise SurfaceFileError("not a surface file")
    if d.get("version") != SCHEMA_VERSION:
        raise SurfaceFileError("unsupported version %r" % d.get("version"))
    try:
        base = base_from_dict(d["base"])
        copies = list(d["copies"])
        pairing = {}
        for a, b in d["pairing"]:
            a, b = _side_from_list(a), _side_from_list(b)
            pairing[a] = b
            pairing[b] = a
        base.check()
        faces = set(base.live_faces())
        if any(c is not None and (type(c) is not int or c not in faces) for c in copies):
            raise SurfaceFileError("a copy is not the id of a live face of the base")
        live = set(base.live_vertices())
        if not all(type(v) is int and v in live for v in (*base.specials, *base.markers)):
            raise SurfaceFileError("a special or marker is not a live vertex of the base")
        labels = list(base.specials.values())
        if not all(isinstance(lab, str) for lab in labels) or len(set(labels)) != len(labels):
            raise SurfaceFileError("special labels are not distinct strings")
    except KeyError as err:
        raise SurfaceFileError("missing key %s" % err)
    except (ArrangementError, AttributeError, IndexError, TypeError, ValueError) as err:
        raise SurfaceFileError("malformed surface: %s" % err)
    return SurfaceComplex(base, copies, pairing)


def dumps(doc) -> str:
    """The text of an indented JSON document: a surface file, a trace, a report."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_surface(s: SurfaceComplex, path, metadata=None):
    with open(path, "w") as fh:
        fh.write(dumps(surface_to_dict(s, metadata)))


def load_surface(path) -> SurfaceComplex:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as err:
            raise SurfaceFileError("malformed JSON: %s" % err)
    return surface_from_dict(d)


def trace_to_dict(trace, ok) -> dict:
    """The trace document ``spherecover normalize --trace-out`` writes."""
    steps = [{
        "op": st.op, "case": st.case, "pre": st.pre, "post": st.post,
        "note": st.note, "certificate": st.certificate,
    } for st in trace.steps]
    return {
        "steps": steps,
        "iterations": trace.iterations,
        "iteration_bound": trace.iteration_bound,
        "rotation": rotation_to_dict(trace.composed_rotation()),
        "certificate_ok": ok,
    }


def rotation_to_dict(rot) -> list:
    return [list(map(repr, map(float, row))) for row in rot.matrix]


def rotation_from_dict(rows):
    return Rotation(rows)
