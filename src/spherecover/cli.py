"""Command line interface: gen / inspect / surgery / normalize / verify / net."""

from __future__ import annotations

import argparse
import json
import sys

from . import generators, io, oracle
from .normalize import certify as pipeline_certify
from .normalize import normalize as run_pipeline
from .arrangement import ArrangementError
from .geometry import GeometryError, Rotation
from .surface import SurfaceError, functionals, is_better_than, validate
from .surgery import (
    SurfacePath,
    cut_interior,
    cut_to_boundary,
    sew,
    sew_annulus,
)

EXIT_OK = 0
EXIT_FAIL = 1


def _report_dict(rep):
    return {
        "A": rep.area,
        "L": rep.boundary_length,
        "R": rep.reduced_area,
        "H": rep.ratio,
        "sum": rep.covering_sum,
        "topology": rep.topology,
        "degree": rep.degree,
        "n_bar": rep.n_bar,
        "n_point": rep.n_point,
        "B_special": rep.b_special,
        "B_nonspecial": rep.b_nonspecial,
        "branch_points": [
            {"vertex": sh.vertex, "interior": sh.interior, "v_f": sh.multiplicity,
             "folded": sh.folded, "special": sh.special}
            for sh in rep.sheets if sh.is_branch or sh.folded],
        "flags": rep.flags,
    }


def cmd_gen(args):
    meta = {"seed": args.seed, "jitter": 1e-6,
            "tolerances": {"eps_unit": 1e-12, "eps_sep": 1e-9}}
    try:
        if args.closed_degree:
            s = generators.generate_closed_cyclic_cover(
                args.closed_degree, q=args.q, branch_special=not args.nonspecial_branch)
        else:
            s = generators.generate_disk_covering(
                args.seed, max_sheets=args.max_sheets, q=args.q,
                branch_budget=args.branch_budget)
    except generators.GenerationStuck as err:
        print("gen failed: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    bad = validate(s)
    if bad:
        print("generated surface invalid: %s" % "; ".join(bad), file=sys.stderr)
        return EXIT_FAIL
    io.save_surface(s, args.out, metadata=meta)
    print("wrote %s" % args.out)
    return EXIT_OK


def _load_valid(path, strict_scaffold=True):
    """The surface in the file at path, or None, with one ``invalid
    surface:`` line on stderr, where ``validate`` refuses it."""
    s = io.load_surface(path)
    bad = validate(s, strict_scaffold=strict_scaffold)
    if bad:
        print("invalid surface: %s" % "; ".join(bad), file=sys.stderr)
        return None
    return s


def cmd_inspect(args):
    s = _load_valid(args.file)
    if s is None:
        return EXIT_FAIL
    rep = functionals(s)
    if args.format == "json":
        sys.stdout.write(io.dumps(_report_dict(rep)))
    else:
        d = _report_dict(rep)
        for k in ("topology", "A", "L", "R", "H", "sum", "degree"):
            print("%-12s %r" % (k, d[k]))
        print("%-12s %r" % ("n_bar", d["n_bar"]))
        print("%-12s %d special, %d non-special" %
              ("B", d["B_special"], d["B_nonspecial"]))
    return EXIT_OK


# the side lists each surgery reads from --params
SURGERY_PARAMS = {"cut_to_boundary": ("sides",), "cut_interior": ("sides",),
                  "sew": ("run_a", "run_b"), "sew_annulus": ("run_a", "run_b")}


def _surgery_sides(s, op, text):
    """The side lists of ``op`` from its --params JSON text, each side a
    ``(copy, position)`` tuple of the surface; ValueError names what is wrong."""
    params = json.loads(text) if text else {}
    if not isinstance(params, dict):
        raise ValueError("expected a JSON object, got %s" % type(params).__name__)
    sides = set(s.sides())
    lists = []
    for name in SURGERY_PARAMS[op]:
        if name not in params:
            raise ValueError("missing %r" % name)
        entries = params[name]
        if not isinstance(entries, list):
            raise ValueError("%r is not a list" % name)
        for x in entries:
            if not (isinstance(x, list) and len(x) == 2 and all(type(v) is int for v in x)):
                raise ValueError("%r entry %s is not a list of two integers"
                                 % (name, json.dumps(x)))
            if tuple(x) not in sides:
                raise ValueError("%r entry %s is not a side of the surface"
                                 % (name, json.dumps(x)))
        lists.append([tuple(x) for x in entries])
    return lists


def cmd_surgery(args):
    s = _load_valid(args.file, strict_scaffold=False)
    if s is None:
        return EXIT_FAIL
    try:
        sides = _surgery_sides(s, args.op, args.params)
    except ValueError as err:  # json.JSONDecodeError included
        print("parse error: --params: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    try:
        if args.op == "cut_to_boundary":
            out = cut_to_boundary(s, SurfacePath(sides[0]))
        elif args.op == "cut_interior":
            out = cut_interior(s, SurfacePath(sides[0]))
        elif args.op == "sew":
            out, case = sew(s, *sides)
            print("sew case %s" % case)
        else:
            out = sew_annulus(s, *sides)
    except (SurfaceError, ArrangementError, GeometryError) as err:
        print("surgery failed: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    io.save_surface(out, args.out, metadata={"surgery": args.op})
    print("wrote %s" % args.out)
    return EXIT_OK


def cmd_normalize(args):
    s = io.load_surface(args.file)
    try:
        out, trace = run_pipeline(s)
        ok, _ = pipeline_certify(out, s, trace)
    except SurfaceError as err:
        print("normalize failed: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    io.save_surface(out, args.out, metadata={"normalized": True})
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(io.dumps(io.trace_to_dict(trace, ok)))
    print("wrote %s (%d steps, certificate %s)"
          % (args.out, len(trace.steps), "ok" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args):
    s = _load_valid(args.file)
    if s is None:
        return EXIT_FAIL
    mismatches = oracle.oracle_verify(s)
    for m in mismatches:
        print("oracle mismatch: %s" % m, file=sys.stderr)
    status = EXIT_FAIL if mismatches else EXIT_OK
    if args.against:
        original = _load_valid(args.against, strict_scaffold=False)
        if original is None:
            return EXIT_FAIL
        rot = Rotation.identity()
        if args.trace:
            try:
                with open(args.trace) as fh:
                    doc = json.load(fh)
                rot = io.rotation_from_dict(doc["rotation"])
                iterations, bound = doc["iterations"], doc["iteration_bound"]
                past = iterations > bound
            except (ValueError, KeyError, TypeError) as err:
                print("parse error: trace %s: %r" % (args.trace, err), file=sys.stderr)
                return EXIT_FAIL
            if past:
                print("trace %s: %s iterations exceed the bound %s" % (args.trace, iterations, bound),
                      file=sys.stderr)
                return EXIT_FAIL
        try:
            ok, report = is_better_than(s, original, rot)
        except SurfaceError as err:
            print("better-than certificate failed: %s" % err, file=sys.stderr)
            return EXIT_FAIL
        print("better-than certificate: %s" % ("ok" if ok else "FAILED"))
        for clause, val in report.items():
            print("  %-8s %s" % (clause, "ok" if val[0] else "FAILED"))
        if not ok:
            status = EXIT_FAIL
    if status == EXIT_OK:
        print("all checks passed")
    return status


def cmd_net(args):
    s = _load_valid(args.file)
    if s is None:
        return EXIT_FAIL
    lines = ["graph gluing {"]
    for c in s.live_copy_ids():
        lines.append('  c%d [label="copy %d / face %d"];' % (c, c, s.copies[c]))
    seen = set()
    for (c, p), (c2, p2) in s.pairing.items():
        key = tuple(sorted([(c, p), (c2, p2)]))
        if key in seen:
            continue
        seen.add(key)
        e = s.dart_of((c, p)) >> 1
        lines.append('  c%d -- c%d [label="e%d"];' % (c, c2, e))
    for side in s.free_sides():
        lines.append('  c%d -- boundary [style=dashed];' % side[0])
    lines.append('  boundary [shape=plaintext];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _int_at_least(lo, hi=None):
    """argparse type: an integer no less than ``lo`` (and, if given, no more
    than ``hi``)."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if n < lo:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (lo, n))
        if hi is not None and n > hi:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (hi, n))
        return n
    return parse


# The most special points ``gen`` takes.  q = 30 generated on every seed
# tried; at q = 60 and 200 none did, each failing only after random_base's
# 400 draws, seconds later.
MAX_Q = 30


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spherecover",
        description="Branched covering surfaces of the sphere: build, inspect, "
                    "operate, normalize.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a surface file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--q", type=_int_at_least(3, MAX_Q), default=3)
    g.add_argument("--max-sheets", type=_int_at_least(1), default=8)
    g.add_argument("--branch-budget", type=_int_at_least(0), default=6)
    g.add_argument("--closed-degree", type=_int_at_least(0), default=0,
                   help="generate a closed cyclic cover of this degree instead")
    g.add_argument("--nonspecial-branch", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    i = sub.add_parser("inspect", help="print the functional report")
    i.add_argument("file")
    i.add_argument("--format", choices=["text", "json"], default="text")
    i.set_defaults(func=cmd_inspect)

    srg = sub.add_parser("surgery", help="apply one named surgery",
                         description="Apply one named surgery to a valid surface file; free"
                                     " scaffold sides are allowed, as in normalize's input.")
    srg.add_argument("file")
    srg.add_argument("--op", required=True,
                     choices=list(SURGERY_PARAMS))
    srg.add_argument("--params", help="JSON parameters for the operation")
    srg.add_argument("--out", required=True)
    srg.set_defaults(func=cmd_surgery)

    n = sub.add_parser("normalize", help="run the normalization pipeline")
    n.add_argument("file")
    n.add_argument("--out", required=True)
    n.add_argument("--trace-out")
    n.set_defaults(func=cmd_normalize)

    v = sub.add_parser("verify", help="oracle checks, optional better-than certificate")
    v.add_argument("file")
    v.add_argument("--against", help="earlier surface file to certify against; free"
                   " scaffold sides are allowed, as in normalize's input")
    v.add_argument("--trace", help="trace file holding the composed rotation; its"
                   " iterations must not exceed its iteration_bound; needs --against")
    v.set_defaults(func=cmd_verify)

    net = sub.add_parser("net", help="emit the face-copy gluing graph (DOT)")
    net.add_argument("file")
    net.add_argument("--out")
    net.set_defaults(func=cmd_net)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify" and args.trace and not args.against:
        ap.error("verify: --trace needs --against")
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print("file not found: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    except io.SurfaceFileError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
