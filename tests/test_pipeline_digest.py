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
