"""Hunt sweep: seeded coverings through normalize and certify, one line each.

    PYTHONPATH=src python tools/hunt.py --seeds 1024 --out hunt.jsonl
    PYTHONPATH=src python tools/hunt.py --regime big --seeds 512 --out big.jsonl

Two regimes.  In the default ``hunt`` regime seed n (from 100001 on)
generates ``generate_disk_covering_filtered(("hunt", n), max_sum=20,
max_degree=8, max_sheets=10, max_faces=48)``.  The ``big`` regime draws
larger coverings: seed n (from 1 on) generates
``generate_disk_covering_filtered(("big", n), max_sum=60, max_degree=16,
max_sheets=24, max_faces=120, branch_budget=14, sew_prob=0.5)``.  Each
covering goes through ``normalize`` and ``certify``.  Each seed writes one JSON line with
sorted keys: the seed, the covering's live copies, the outcome ("ok",
"certificate failed" or the error class), the trace's (op, case) steps and
iteration count and the error text (null without one).  Iterations count
driver passes: one per step taken, plus the last pass, which finds no step
or fails.  On an error the
steps and iterations are those of the partial trace the error carries, the
steps taken before it; they are null when it carries none (an input the
pipeline refuses before its first step).
The lines pin decisions, not bytes: a change that keeps every outcome, step
and error keeps them.  A summary of counts per outcome and per case label
goes to stderr.  ``tests/data/hunt_1024.jsonl`` holds the expected lines
for 1024 hunt seeds, ``tests/data/hunt_big_512.jsonl`` those for 512 big
seeds.
"""

import argparse
import json
import sys
from collections import Counter

from spherecover.generators import generate_disk_covering_filtered
from spherecover.normalize import certify, normalize
from spherecover.surface import SurfaceError

FIRST_SEED = 100001
FILTERS = dict(max_sum=20, max_degree=8, max_sheets=10, max_faces=48)
# regime -> (first seed, generator filters); the regime's name tags its seeds
REGIMES = {
    "hunt": (FIRST_SEED, FILTERS),
    "big": (1, dict(max_sum=60, max_degree=16, max_sheets=24, max_faces=120,
                    branch_budget=14, sew_prob=0.5)),
}


def hunt_line(n, regime="hunt") -> dict:
    """The sweep's record of seed n in the regime."""
    s = generate_disk_covering_filtered((regime, n), **REGIMES[regime][1])
    rec = {"seed": n, "copies": len(s.live_copy_ids()), "steps": None,
           "iterations": None, "error": None}
    trace = None
    try:
        out, trace = normalize(s)
        ok, _ = certify(out, s, trace)
    except SurfaceError as err:
        trace = getattr(err, "trace", trace)
        rec["outcome"], rec["error"] = type(err).__name__, str(err)
    else:
        rec["outcome"] = "ok" if ok else "certificate failed"
    if trace is not None:
        rec["steps"] = [[st.op, st.case] for st in trace.steps]
        rec["iterations"] = trace.iterations
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--regime", choices=sorted(REGIMES), default="hunt",
                    help="generator regime (default: hunt)")
    ap.add_argument("--seeds", type=int, required=True,
                    help="number of seeds, from the regime's first seed")
    ap.add_argument("--out", help="file for the JSON lines (default: stdout)")
    args = ap.parse_args(argv)
    outcomes, cases = Counter(), Counter()
    fh = open(args.out, "w") if args.out else sys.stdout
    try:
        first = REGIMES[args.regime][0]
        for n in range(first, first + args.seeds):
            rec = hunt_line(n, args.regime)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            outcomes[rec["outcome"]] += 1
            cases.update("%s.%s" % tuple(step) for step in rec["steps"] or ())
    finally:
        if fh is not sys.stdout:
            fh.close()
    print("outcomes: %s" % json.dumps(dict(sorted(outcomes.items()))), file=sys.stderr)
    print("cases: %s" % json.dumps(dict(sorted(cases.items()))), file=sys.stderr)


if __name__ == "__main__":
    main()
