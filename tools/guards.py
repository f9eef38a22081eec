"""Check the package's design rules on the syntax tree of src/spherecover: ``python3 tools/guards.py``
prints each offence as ``file:line: reason (name)`` and exits 1 if there is one."""

import ast
import os
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "spherecover"
NORMALIZE_ONLY_EDITS = {"surgery." + f for f in (
    "split_edge_surface", "insert_chord_surface", "delete_edge_surface", "_delete_edge",
    "cleanup_unused_curve_edges", "star_rewire", "absorb_tip_into_vertex")}

# (kind, name or None for any, places covered or None for all, places allowed, reason).  A place is a
# module, its top-level def or class (normalize._drive), or a method of that class
# (arrangement.BaseComplex.check); it holds every use inside, comments none.
# touch: any attribute .name; write: an assigned or deleted .name or item of it; ref: a read of name
# or .name, aliases too; private: <module>._name or an imported _name; def: a def never read or imported.
RULES = [
    ("touch", "_cache", None, {"surface"}, "a surface's cache has one owner, surface.py"),
    ("touch", "_segments", None, {"arrangement"}, "the base's dart cache has one owner, arrangement.py"),
    ("touch", "_invalidate", None, {"arrangement"}, "only arrangement.py drops the base's caches"),
    ("write", "pairing", None, {"surface", "surgery"}, "only _remap_pairing moves sides"),
    ("ref", "_record_step", None, {"normalize._drive"}, "only the one step loop, _drive, records steps"),
    ("ref", "insert_chord_surface", {"normalize"}, {"normalize._lay_route"}, "one router lays routes"),
    ("ref", "NoSuchPath", {"normalize"}, {"normalize._lay_route"}, "one router finds no route"),
    ("ref", "cleanup_unused_curve_edges", {"normalize"}, {"normalize._drive"},
     "only _drive drops unused curve arcs"),
    ("ref", "require_valid", {"normalize"}, {"normalize.normalize", "normalize._drive"},
     "_drive checks each lemma step's output once"),
    ("ref", "require_valid", NORMALIZE_ONLY_EDITS, set(), "_drive checks the output, not each edit"),
    ("ref", "contact_angles", {"normalize"}, {"normalize._ordered_contacts"},
     "one contact search per rotation axis, over every special"),
    ("ref", "closed_subarc_match", None, {"surface.is_closed_subarc", "surface.is_closed_subarc_geometric"},
     "one closed-subarc matcher, behind the dart and the geometric walk checks"),
    ("ref", "_face_successors", None, {"arrangement.BaseComplex.trace_faces", "arrangement.BaseComplex.check"},
     "one face-cycle tracer: only trace_faces and check read the successor map"),
    ("private", None, None, set(), "private to its module: plain-float decisions stay in geometry.py"),
    ("def", None, None, set(), "dead code: no module reads or imports this def"),
]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _uses(node, modules):
    """The (kind, name) uses that one node makes; ``modules`` holds the package's module names."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield "ref", node.id
    elif isinstance(node, ast.Attribute):
        yield "touch", node.attr
        yield ("ref" if isinstance(node.ctx, ast.Load) else "write"), node.attr
        if isinstance(node.value, ast.Name) and node.value.id in modules and _private(node.attr):
            yield "private", node.attr
    elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        if not isinstance(node.ctx, ast.Load):
            yield "write", node.value.attr
    elif isinstance(node, ast.ImportFrom):
        for a in node.names:
            yield "import", a.name
            if node.level and _private(a.name):
                yield "private", a.name
    elif isinstance(node, ast.FunctionDef) and not node.name[:2] == node.name[-2:] == "__":
        yield "def", node.name


def _inside(places, module, owner):
    return (places is None or module in places or "%s.%s" % (module, owner) in places
            or "%s.%s" % (module, owner.split(".")[0]) in places)


def _owned(tree):
    """(owner, node) for every node under the module's top level: its def or class, or
    Class.method inside a method."""
    for top in tree.body:
        name = str(getattr(top, "name", None))
        methods = {id(node): name + "." + item.name for item in top.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(item)} if isinstance(top, ast.ClassDef) else {}
        for node in ast.walk(top):
            yield methods.get(id(node), name), node


def check(package=PACKAGE):
    """Every offence in the package directory, as sorted (path, line, message)."""
    trees = {p.stem: (p, ast.parse(p.read_text(), str(p))) for p in sorted(package.glob("*.py"))}
    uses = [(p, node.lineno, kind, name, module, owner)
            for module, (p, tree) in trees.items() for owner, node in _owned(tree)
            for kind, name in _uses(node, trees)]
    read = {u[3] for u in uses if u[2] in ("ref", "import")}
    return sorted((path, line, "%s (%s)" % (reason, name))
                  for path, line, kind, name, module, owner in uses if kind != "def" or name not in read
                  for rkind, rname, scope, allowed, reason in RULES
                  if rkind == kind and rname in (None, name)
                  and _inside(scope, module, owner) and not _inside(allowed, module, owner))


def main(package=PACKAGE):
    offences = check(package)
    for path, line, message in offences:
        print("%s:%d: %s" % (os.path.relpath(path), line, message))
    return 1 if offences else 0


if __name__ == "__main__":
    sys.exit(main())
