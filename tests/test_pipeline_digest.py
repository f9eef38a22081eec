"""Byte-identity gate: normalize + certify over the stored corpora.

Per corpus line the hash takes the ``io.dumps`` text of the normalized
surface file, as ``save_surface`` writes it, and of the trace document, as
``spherecover normalize --trace-out`` writes it, and the certificate report;
a typed failure is hashed as its class and message instead.  A change that must keep behaviour keeps
both digests.  The library rounds every product and sum itself (see
README), so the pins hold on every host and Python version;
``test_host_independence.py`` reruns them under another BLAS kernel."""

import hashlib
import json
import pathlib

import pytest

from spherecover import io
from spherecover.normalize import certify, normalize
from spherecover.surface import SurfaceError

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"

PINNED = {
    "batch": ("19ea8a5114799092e30c9aaba8c19d6c6e33a73685757f5ec4506cd46b1436dc",
              {"ok": 100}),
    "stress": ("99dc8f5e86dc95de7434ba91104a3407e30894d8312c412d62943a0718ff8b8f",
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
