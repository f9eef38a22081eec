"""No-regression gate on the multi-copy stress coverings of the benchmark corpus."""

import json
import pathlib

from spherecover import io
from spherecover.normalize import certify, normalize
from spherecover.surface import SurfaceError

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"

# Generator seeds whose coverings normalize cannot handle yet (ROADMAP item 3):
# they may fail with a typed error, but every other covering must pass.
KNOWN_FAILING = {12, 15, 33, 48, 56, 87, 135, 161, 176, 182, 260, 264, 306, 309}


def test_stress_corpus_normalizes_and_certifies():
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    seeds = manifest["corpora"]["stress"]["seeds"]
    lines = (CORPUS / "stress.jsonl").read_text().splitlines()
    assert len(lines) == len(seeds) == 80
    bad = []
    for seed, line in zip(seeds, lines):
        s = io.surface_from_dict(json.loads(line))
        try:
            out, trace = normalize(s)
            ok, _ = certify(out, s, trace)
        except SurfaceError as err:
            if seed not in KNOWN_FAILING:
                bad.append((seed, "%s: %s" % (type(err).__name__, err)))
            continue
        if not ok:
            bad.append((seed, "certificate failed"))
    assert bad == []
