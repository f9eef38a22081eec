"""Byte-identity gate: normalize + certify over the stored corpora.

Per corpus line the hash takes the ``io.dumps`` text of the normalized
surface file, as ``save_surface`` writes it, and of the trace document, as
``spherecover normalize --trace-out`` writes it, and the certificate report;
a typed failure is hashed as its class and message instead.  A change that must keep behaviour keeps
both digests.  The library rounds every product and sum itself (see
README), so the pins hold on every host and Python version;
``test_host_independence.py`` reruns them under another BLAS kernel."""

import hashlib
import importlib
import json
import pathlib

import pytest

from spherecover import io
from spherecover.normalize import (
    PipelineTrace,
    certify,
    declared_iteration_bound,
    normalize,
    sink_branch_to_special,
)
from spherecover.surface import SurfaceError

from conftest import f4_with_north

# the module (the package's ``normalize`` attribute is the function)
nm = importlib.import_module("spherecover.normalize")

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"

PINNED = {
    "batch": ("7c68a3084e003f3a05f4029a73a1e6acc3e3df5ca402a6430dd849d7bc34a6db",
              {"ok": 100}),
    "stress": ("d6032954da2deae9d5e8d6a156c0195af61b6ed09d51076077f288ffea042bf2",
               {"ok": 80}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_digest(name):
    digest, outcomes = PINNED[name]
    h = hashlib.sha256()
    counts = {}
    for line in (CORPUS / (name + ".jsonl")).read_text().splitlines():
        s = io.surface_from_dict(json.loads(line))
        try:
            out, trace = normalize(s)
            ok, report = certify(out, s, trace)
        except SurfaceError as err:
            outcome = type(err).__name__
            h.update(("ERR %s: %s\n" % (outcome, err)).encode())
        else:
            outcome = "ok" if ok else "certificate failed"
            h.update(io.dumps(io.surface_to_dict(out, {"normalized": True})).encode())
            h.update(io.dumps(io.trace_to_dict(trace, ok)).encode())
            h.update(json.dumps(report, sort_keys=True, default=repr).encode())
        counts[outcome] = counts.get(outcome, 0) + 1
    assert counts == outcomes
    assert h.hexdigest() == digest


# No corpus line reaches ``sink_branch_to_special``, so this pin covers it on
# the two sink fixtures: the output surface and trace of the pipeline's loop
# on each (a push, then a sink), and the direct sink of the first.
SINK_PINNED = "4fcd60f651d92735c49be0356d24b86c689904758aa59adf048ccc8e50e95adb"


def test_sink_digest():
    h = hashlib.sha256()
    for s in (f4_with_north(a1_south=True), f4_with_north(marker_at=0, a1_south=True)):
        trace = PipelineTrace(iteration_bound=declared_iteration_bound(s))
        out = nm._drive(s, trace)
        ok, _ = certify(out, s, trace)
        assert [(st.op, st.case) for st in trace.steps] == [
            ("push_interior_branch", "4"), ("sink_branch_to_special", "1")]
        h.update(io.dumps(io.surface_to_dict(out, {"normalized": True})).encode())
        h.update(io.dumps(io.trace_to_dict(trace, ok)).encode())
    s = f4_with_north(a1_south=True)
    [b] = nm._boundary_nonspecial_branches(s)
    tip = s.base.special_tips_by_face()[s.base.face_of_dart(s.dart_of(b.in_side))][0]
    out, case, other = sink_branch_to_special(s, b.index, tip)
    assert (case, other) == ("2", None)
    h.update(io.dumps(io.surface_to_dict(out)).encode())
    assert h.hexdigest() == SINK_PINNED
