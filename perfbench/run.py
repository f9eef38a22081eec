"""Seeded benchmark of spherecover: covering generation and the normalize pipeline.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 10 --trace 0

Workloads, each a closed loop with one client run in this one process:

- ``generate``: ``generate_disk_covering_filtered(("c5", n), max_sum=6,
  max_degree=4)`` over the first ``GENERATE_POOL`` generator seeds of the
  criterion-5 corpus.
- ``pipeline_batch``: the criterion-5 corpus, read from surface JSON.
- ``pipeline_stress``: the multi-copy stress corpus, read from surface JSON.
  It keeps the coverings that ``normalize`` fails on today, so its
  ``fail_share`` is not 0.

A pipeline item runs normalize -> certify -> validate + oracle_verify of the
output -> io round trip of the output. Every item's outputs are checked; a
failed check or a typed error counts as a failed item and the run goes on.
``--seed`` sets the order in which the items are sent (a fresh shuffle per
pass over all items); ``--corpus-dir`` selects a corpus built by
``perfbench/corpus.py``.

With ``--trace 0`` the run reports the end-to-end metrics, timed over the
whole passes of the run: ``items_per_s`` is items over their summed time,
and ``item_ms_p50``/``item_ms_p90`` are quantiles over the items of each
item's median time across the passes, so one slow run of an item does not
move them. ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups, each a
fresh interpreter importing spherecover (waited for) plus a corpus load
(digest check included) with warm-up items.

The end-to-end times are calibrated: a shared host runs the same code up to
1.8x slower, switching within a second and staying slow for minutes at a
time, which no run length averages out. So the run interleaves
``REF_BURST`` runs of ``reference_kernel`` (fixed work that calls no
spherecover code) with the items, after each ``REF_EVERY_S`` of item time,
and scales each item's wall time by ``REF_NOMINAL_S`` over the mean time of
the ``REF_WINDOW`` reference runs on either side of it. The mean, not the
median, follows the share of time spent slow. Each set-up is scaled the
same way by ``REF_WINDOW`` reference runs on either side of it. The values
read as times on a machine where the kernel takes ``REF_NOMINAL_S``; the
summary lines also print the raw wall-clock figures.

With ``--trace 1`` the run goes untraced for a third of the time, then
traced (``tracing.Tracer``) for the rest, and reports the per-layer metrics
per traced item; ``bench.trace_overhead`` is traced over untraced time on
the items both phases sent. The last line of stdout is the JSON result; the
lines before it are a readable summary and the run's provenance (git
revision, CPU count, Python and numpy versions, src line count, corpus
digests).
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_CORPUS = HERE / "corpus" / "seed1"

SETUP_REPEATS = 5
# A covering takes 0.2 to 1.5 s to generate, about 0.5 s at the median, so a
# run of 50 s holds four to seven whole passes over this many generator
# seeds: enough runs of each item for a steady median.
GENERATE_POOL = 12
# Calibration: reference runs after at least this much item time, this many
# at a time, and the mean of this many on either side of an item scales it.
REF_EVERY_S = 0.1
REF_BURST = 3
REF_WINDOW = 3
# The reference kernel's time on a 2-vCPU Intel Xeon VM while it runs fast,
# so that calibrated times read as wall times on that VM then.
REF_NOMINAL_S = 0.0032
KNOWN_FAILURES = ("NoSuchPath", "InvalidSurface", "PipelineError")
TYPED_FAILURES = KNOWN_FAILURES + ("GenerationStuck",)

# (module, function) pairs reported with .calls and .self_s
CALLS_AND_SELF = {
    "geometry": ("angle_between", "GeodesicSegment", "GeodesicSegment.param_of",
                 "segment_intersection", "Rotation.apply"),
    "arrangement": ("build_arrangement", "attach_scaffold", "BaseComplex.copy",
                    "BaseComplex.rotated"),
    "generators": ("random_base", "generate_disk_covering"),
    "surface": ("functionals", "validate", "SurfaceComplex.sheets", "is_better_than",
                "is_closed_subarc_geometric"),
    "surgery": ("lift_path", "split_on_lifts", "star_rewire", "sew",
                "absorb_tip_into_vertex", "cleanup_unused_curve_edges",
                "delete_edge_surface", "insert_chord_surface", "split_edge_surface"),
    "oracle": ("oracle_verify",),
}
# (module, function) pairs reported with .self_s only
SELF_ONLY = {
    "normalize": ("normalize", "certify", "remove_nonspecial_folds",
                  "clear_interior_branches", "sweep_boundary_branches",
                  "sink_branch_to_special", "rotate_to_touch_special"),
    "io": ("surface_to_dict", "surface_from_dict"),
}
CASES = (("remove_fold", "glue-A"),
         *(("push_interior_branch", str(k)) for k in range(1, 6)),
         *(("slide_boundary_branch", str(k)) for k in range(1, 5)),
         ("sink_branch_to_special", "1"), ("sink_branch_to_special", "2"),
         ("rotate_to_touch_special", "rotation"))

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_p90": "ms", "peak_rss_mb": "MB"}


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for table, stats in ((CALLS_AND_SELF, ("calls", "self_s")), (SELF_ONLY, ("self_s",))):
        for mod, fns in table.items():
            for fn in fns:
                for stat in stats:
                    specs.append(("%s.%s.%s" % (mod, fn, stat),
                                  "1/item" if stat == "calls" else "s/item", "lower"))
    specs += [("%s.self_s" % mod, "s/item", "lower") for mod in tracing.MODULES]
    specs += [
        ("generators.stuck", "1/item", "lower"),
        ("generators.rejected_filter", "1/item", "lower"),
        ("generators.accept_ratio", "ratio", "higher"),
        ("generators.fail.GenerationStuck", "1/item", "lower"),
        ("normalize.steps", "1/item", "lower"),
        ("normalize.iterations", "1/item", "lower"),
    ]
    specs += [("normalize.case.%s.%s" % c, "1/item", "higher") for c in CASES]
    specs += [("normalize.fail.%s" % e, "1/item", "lower") for e in KNOWN_FAILURES + ("other",)]
    specs += [
        ("oracle.mismatches", "1/item", "lower"),
        ("io.bytes_per_item", "B/item", "lower"),
        ("bench.fail.check", "1/item", "lower"),
        ("bench.items_per_s_untraced", "1/s", "higher"),
        ("bench.items_per_s_traced", "1/s", "higher"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
    return specs


# -- workloads -------------------------------------------------------------------


class Stats:
    """Counts of one phase of a run, filled in by the items."""

    def __init__(self):
        self.times = []
        self.ids = []            # index into work.items, per item run
        self.failed = Counter()  # failure class -> items
        self.cases = Counter()   # (op, case) -> trace steps
        self.steps = 0
        self.iterations = 0
        self.oracle_mismatches = 0
        self.out_bytes = 0
        self.elapsed = 0.0
        self.passes = []         # (items, elapsed) at the end of each complete pass
        self.refs = []           # (items done before it, seconds) per reference run


def _dump(doc) -> str:
    # the bytes `io.save_surface` writes
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def sc_module(name):
    # `spherecover.normalize` the attribute is the function, so go by sys.modules
    return sys.modules["spherecover." + name]


def _is_clean(s) -> bool:
    return all((sh.special or not sh.is_branch) and (sh.special or sh.interior or not sh.folded)
               for sh in s.sheet_list())


class Generate:
    """One item: one filtered criterion-5 covering from its generator seed."""

    warm_up = 1

    def __init__(self, corpus_dir):
        entry = corpus.read_manifest(corpus_dir)["corpora"]["batch"]
        self.tag, self.params = entry["tag"], entry["params"]
        self.items = entry["seeds"][:GENERATE_POOL]

    def run(self, n, stats):
        generators, surface = sc_module("generators"), sc_module("surface")
        s = generators.generate_disk_covering_filtered((self.tag, n), **self.params)
        bad = []
        if surface.validate(s):
            bad.append("validate")
        if s.topology_kind() != surface.DISK:
            bad.append("disk")
        rep = surface.functionals(s)
        if rep.ratio is None or rep.ratio < 0:
            bad.append("H")
        if rep.covering_sum > self.params["max_sum"]:
            bad.append("max_sum")
        if max(rep.n_component.values()) > self.params["max_degree"]:
            bad.append("max_degree")
        return bad


class Pipeline:
    """One item: one stored covering through the normalize CLI chain, checked."""

    warm_up = 3

    def __init__(self, corpus_dir, name):
        self.items = corpus.load(corpus_dir, name)

    def run(self, s, stats):
        io, normalize = sc_module("io"), sc_module("normalize")
        oracle, surface = sc_module("oracle"), sc_module("surface")
        out, trace = normalize.normalize(s)
        ok, _ = normalize.certify(out, s, trace)
        bad = []
        if not ok:
            bad.append("certify")
        if not _is_clean(out):
            bad.append("clean")
        if trace.iterations > trace.iteration_bound:
            bad.append("iterations")
        if surface.validate(out):
            bad.append("validate")
        mismatches = oracle.oracle_verify(out)
        if mismatches:
            bad.append("oracle")
        text = _dump(io.surface_to_dict(out, {"normalized": True}))
        again = _dump(io.surface_to_dict(io.surface_from_dict(json.loads(text)),
                                         {"normalized": True}))
        if again != text:
            bad.append("io")
        stats.steps += len(trace.steps)
        stats.iterations += trace.iterations
        stats.cases.update((st.op, st.case) for st in trace.steps)
        stats.oracle_mismatches += len(mismatches)
        stats.out_bytes += len(text)
        return bad


_REF_U = np.array([0.36, 0.48, 0.8])
_REF_V = np.array([0.6, -0.8, 0.0])


def reference_kernel(steps=120):
    """Fixed work that calls no spherecover code: 3-vector numpy calls and
    dict/tuple churn, the mix the spherecover layers run."""
    x, table, acc = _REF_U, {}, 0.0
    for i in range(steps):
        x = np.cross(x, _REF_V)
        x = x / np.sqrt(x @ x) + _REF_U
        table[i & 63] = (i, acc)
        acc += float(x[i % 3]) + len(table)
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def time_import() -> float:
    """Wall time of a fresh interpreter that imports spherecover and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import spherecover", str(SRC)], check=True)
    return time.perf_counter() - t0


WORKLOADS = {
    "generate": Generate,
    "pipeline_batch": lambda corpus_dir: Pipeline(corpus_dir, "batch"),
    "pipeline_stress": lambda corpus_dir: Pipeline(corpus_dir, "stress"),
}


def run_item(work, item, stats, errors_shown):
    t0 = time.perf_counter()
    try:
        bad = work.run(item, stats)
        if bad:
            stats.failed["check:" + "+".join(bad)] += 1
    except Exception as err:  # a failed item is counted, the run goes on
        name = type(err).__name__
        stats.failed[name] += 1
        if name not in TYPED_FAILURES and name not in errors_shown:
            errors_shown.add(name)
            traceback.print_exc(file=sys.stderr)
    stats.times.append(time.perf_counter() - t0)


def run_phase(work, seed, seconds, errors_shown):
    """Closed loop over seeded shuffles of the items, for `seconds`."""
    rng = random.Random(seed)
    stats = Stats()
    order = list(range(len(work.items)))
    since_ref = 0.0
    t0 = time.perf_counter()
    while True:
        rng.shuffle(order)
        for i in order:
            run_item(work, work.items[i], stats, errors_shown)
            stats.ids.append(i)
            since_ref += stats.times[-1]
            stats.elapsed = time.perf_counter() - t0
            last = stats.elapsed >= seconds
            if since_ref >= REF_EVERY_S or last:
                stats.refs += [(len(stats.times), time_reference()) for _ in range(REF_BURST)]
                since_ref = 0.0
            if last:
                return stats
        stats.passes.append((len(stats.times), stats.elapsed))


# -- reporting -------------------------------------------------------------------


def provenance(corpus_dir):
    import numpy

    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("spherecover/*.py")))
    manifest = corpus.read_manifest(corpus_dir)
    return {
        "git": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_loc": loc,
        "corpus_seed": manifest["corpus_seed"],
        "corpus_sha256": {k: v["sha256"] for k, v in manifest["corpora"].items()},
    }


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def calibrated(stats):
    """Each item's time scaled by REF_NOMINAL_S over the mean of the
    reference runs nearest to it."""
    done = [k for k, _ in stats.refs]
    secs = [t for _, t in stats.refs]
    out = []
    for i, t in enumerate(stats.times):
        j = bisect.bisect_right(done, i)  # the first reference run after item i
        lo = max(0, min(j - REF_WINDOW, len(secs) - 2 * REF_WINDOW))
        out.append(t * REF_NOMINAL_S / statistics.fmean(secs[lo:lo + 2 * REF_WINDOW]))
    return out


def _per_item_median(ids, times):
    by_item = {}
    for i, t in zip(ids, times):
        by_item.setdefault(i, []).append(t)
    return [statistics.median(v) for v in by_item.values()]


def _p90(times):
    # inclusive: of 100 items, the 10 slowest lie beyond p90
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 \
        else times[0]


def end_to_end(stats, setup_s):
    # Every pass sends the same items, so metrics over whole passes do not
    # depend on which items the last, partial pass happened to reach.
    n = stats.passes[-1][0] if stats.passes else len(stats.times)
    times = calibrated(stats)[:n]
    item_s = _per_item_median(stats.ids[:n], times)
    p90 = _p90(item_s)
    values = {
        "setup_s": setup_s,
        "items_per_s": n / sum(times),
        "item_ms_p50": 1000 * statistics.median(item_s),
        "item_ms_p90": 1000 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n_fail = sum(stats.failed.values())
    raw = stats.times[:n]
    raw_item_s = _per_item_median(stats.ids[:n], raw)
    print("items          %d attempted; timed over %d whole passes: %d runs of %d items, "
          "%d items beyond p90" % (len(stats.times), len(stats.passes), n, len(item_s),
                                  sum(t > p90 for t in item_s)))
    print("raw wall time  items_per_s %.4g, item_ms_p50 %.4g, item_ms_p90 %.4g; "
          "%d reference runs, median %.4g ms"
          % (n / sum(raw), 1000 * statistics.median(raw_item_s), 1000 * _p90(raw_item_s),
             len(stats.refs), 1000 * statistics.median(t for _, t in stats.refs)))
    print("fail_share     %.4f  (%d failed / %d attempted)  %s"
          % (n_fail / len(stats.times), n_fail, len(stats.times), dict(stats.failed)))
    return values


def per_layer(stats, tracer, untraced):
    n = len(stats.times)
    values = {}
    for table, fields in ((CALLS_AND_SELF, ("calls", "self_s")), (SELF_ONLY, ("self_s",))):
        for mod, fns in table.items():
            for fn in fns:
                key = "%s.%s" % (mod, fn)
                if "calls" in fields:
                    values[key + ".calls"] = tracer.calls[key] / n
                values[key + ".self_s"] = tracer.self_s[key] / n
    for mod in tracing.MODULES:
        values[mod + ".self_s"] = tracer.module_self_s(mod) / n
    attempts = tracer.calls["generators.generate_disk_covering"]
    stuck = tracer.raised["generators.generate_disk_covering", "GenerationStuck"]
    accepted = (tracer.calls["generators.generate_disk_covering_filtered"]
                - tracer.raised["generators.generate_disk_covering_filtered", "GenerationStuck"])
    values["generators.stuck"] = stuck / n
    values["generators.rejected_filter"] = (attempts - stuck - accepted) / n
    values["generators.accept_ratio"] = accepted / attempts if attempts else 0.0
    values["generators.fail.GenerationStuck"] = stats.failed["GenerationStuck"] / n
    values["normalize.steps"] = stats.steps / n
    values["normalize.iterations"] = stats.iterations / n
    for op, case in CASES:
        values["normalize.case.%s.%s" % (op, case)] = stats.cases[op, case] / n
    other = sum(v for k, v in stats.failed.items()
                if k not in TYPED_FAILURES and not k.startswith("check:"))
    for e in KNOWN_FAILURES:
        values["normalize.fail." + e] = stats.failed[e] / n
    values["normalize.fail.other"] = other / n
    values["oracle.mismatches"] = stats.oracle_mismatches / n
    values["io.bytes_per_item"] = stats.out_bytes / n
    values["bench.fail.check"] = sum(v for k, v in stats.failed.items()
                                     if k.startswith("check:")) / n
    values["bench.items_per_s_untraced"] = len(untraced.times) / sum(untraced.times)
    values["bench.items_per_s_traced"] = n / sum(stats.times)
    # both phases send the items in the same order: compare time on the common prefix
    k = min(n, len(untraced.times))
    values["bench.trace_overhead"] = sum(stats.times[:k]) / sum(untraced.times[:k])
    print("traced items   %d; accepted/attempts %d/%d; case steps %s"
          % (n, accepted, attempts, {"%s.%s" % k: v for k, v in sorted(stats.cases.items())}))
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-dir", type=Path, default=DEFAULT_CORPUS)
    args = ap.parse_args(argv)

    if not (SRC / "spherecover" / "__init__.py").is_file():
        print("no spherecover sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spherecover
    if Path(spherecover.__file__).resolve().parent != SRC / "spherecover":
        print("imported spherecover from %s, not %s" % (spherecover.__file__, SRC),
              file=sys.stderr)
        return 2

    errors_shown = set()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = [time_reference() for _ in range(REF_WINDOW)]
        import_s = time_import()
        t0 = time.perf_counter()
        try:
            work = WORKLOADS[args.workload](args.corpus_dir)
        except corpus.CorpusError as err:
            print("corpus error: %s" % err, file=sys.stderr)
            return 2
        warm = Stats()
        for item in work.items[:work.warm_up]:
            run_item(work, item, warm, errors_shown)
        elapsed = import_s + time.perf_counter() - t0
        after = [time_reference() for _ in range(REF_WINDOW)]
        setups.append((elapsed, REF_NOMINAL_S / statistics.fmean(before + after)))
    setup_s = statistics.median(t * f for t, f in setups)
    print("# setup        %.4g s raw wall time, median of %d"
          % (statistics.median(t for t, _ in setups), len(setups)))
    # The loaded corpus is benchmark state, not the program's: keep the
    # collector from scanning it, as it would not in a one-covering process.
    gc.collect()
    gc.freeze()

    print("# workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# provenance " + json.dumps(provenance(args.corpus_dir), sort_keys=True))
    if args.trace:
        untraced = run_phase(work, args.seed, args.seconds / 3, errors_shown)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            stats = run_phase(work, args.seed, args.seconds - untraced.elapsed, errors_shown)
        finally:
            tracer.uninstall()
        values = per_layer(stats, tracer, untraced)
        units = {name: unit for name, unit, _ in per_layer_specs()}
    else:
        stats = run_phase(work, args.seed, args.seconds, errors_shown)
        values = end_to_end(stats, setup_s)
        units = END_TO_END_UNITS
    for name, value in values.items():
        print("%-48s %.6g %s" % (name, value, units[name]))
    n_fail = sum(stats.failed.values())
    result = {
        "correct": n_fail == 0,
        "attempted": len(stats.times),
        "failed": n_fail,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
