"""Byte-identity gate: normalize + certify over the stored corpora.

Per corpus line the hash takes the normalized surface file as
``save_surface`` writes it, the trace document ``spherecover normalize
--trace-out`` writes, and the certificate report; a typed failure is hashed
as its class and message instead.  A change that must keep behaviour keeps
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
    "batch": ("a4e809ead7a111f42590874bb10121785ee39a9e988ce6eaf4321c20eb177857",
              {"ok": 100}),
    "stress": ("80c1ef08f594fa40f4b56926e53ee1b7c183892b48349254c799e78bb4c3502e",
               {"ok": 66, "NoSuchPath": 14}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_digest(tmp_path, name):
    digest, outcomes = PINNED[name]
    h = hashlib.sha256()
    counts = {}
    surf = tmp_path / "out.json"
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
            io.save_surface(out, surf, metadata={"normalized": True})
            h.update(surf.read_bytes())
            doc = json.dumps(io.trace_to_dict(trace, ok), indent=1, sort_keys=True) + "\n"
            h.update(doc.encode())
            h.update(json.dumps(report, sort_keys=True, default=repr).encode())
        counts[outcome] = counts.get(outcome, 0) + 1
    assert counts == outcomes
    assert h.hexdigest() == digest
