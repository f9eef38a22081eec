"""Seeded corpora of disk coverings for the pipeline workloads.

    python3 perfbench/corpus.py --seed 1 --out perfbench/corpus/seed1

writes, for one corpus seed:

- ``batch.jsonl``: the criterion-5 coverings, ``generate_disk_covering_filtered
  (("c5", n), max_sum=6, max_degree=4)`` over consecutive ``n``;
- ``stress.jsonl``: the multi-copy stress coverings, ``("stress", n)`` with
  ``max_sum=14, max_degree=6, max_sheets=8, max_faces=40``, keeping every
  covering with at least two copies whether or not the pipeline succeeds on it;
- ``manifest.json``: parameters, the generator seeds of every line, the seeds
  that raised ``GenerationStuck``, and the sha256 of each corpus file.

One line holds one surface file (``io.surface_to_dict``) in compact JSON.
Corpus seed ``k`` uses generator seeds ``(k - 1) * SEED_STRIDE + 1, + 2, ...``,
so seed 1 is exactly the criterion-5 batch of the acceptance tests. Building
the same seed again reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SEED_STRIDE = 100_000

CORPORA = {
    "batch": {"tag": "c5", "count": 100, "min_copies": 1,
              "params": {"max_sum": 6, "max_degree": 4}},
    "stress": {"tag": "stress", "count": 80, "min_copies": 2,
               "params": {"max_sum": 14, "max_degree": 6, "max_sheets": 8,
                          "max_faces": 40}},
}


class CorpusError(RuntimeError):
    pass


def build_one(name: str, corpus_seed: int, count: int, progress=None):
    """Returns (jsonl text, manifest entry) of the first `count` coverings of one corpus."""
    from spherecover import io
    from spherecover.generators import GenerationStuck, generate_disk_covering_filtered

    spec = CORPORA[name]
    lines, seeds, stuck = [], [], []
    n = (corpus_seed - 1) * SEED_STRIDE
    while len(lines) < count:
        n += 1
        if n - (corpus_seed - 1) * SEED_STRIDE > 20 * count:
            raise CorpusError("%s: too few coverings from corpus seed %d" % (name, corpus_seed))
        seed = (spec["tag"], n)
        try:
            s = generate_disk_covering_filtered(seed, **spec["params"])
        except GenerationStuck:
            stuck.append(n)
            continue
        if len(s.live_copy_ids()) < spec["min_copies"]:
            continue
        doc = io.surface_to_dict(s, metadata={"seed": list(seed)})
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        seeds.append(n)
        if progress:
            progress("%s %d/%d (seed %d)" % (name, len(lines), count, n))
    text = "\n".join(lines) + "\n"
    entry = {
        "file": name + ".jsonl",
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "count": len(lines),
        "tag": spec["tag"],
        "params": spec["params"],
        "min_copies": spec["min_copies"],
        "seeds": seeds,
        "stuck_seeds": stuck,
    }
    return text, entry


def build(corpus_seed: int, out: Path, counts=None, progress=None):
    """Writes every corpus of `corpus_seed` into `out`; `counts` overrides sizes by name."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"corpus_seed": corpus_seed, "seed_stride": SEED_STRIDE, "corpora": {}}
    for name, spec in CORPORA.items():
        count = (counts or {}).get(name, spec["count"])
        text, entry = build_one(name, corpus_seed, count, progress)
        (out / entry["file"]).write_text(text)
        manifest["corpora"][name] = entry
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def read_manifest(corpus_dir: Path) -> dict:
    try:
        return json.loads((Path(corpus_dir) / "manifest.json").read_text())
    except FileNotFoundError:
        raise CorpusError("no manifest.json in %s; build it with perfbench/corpus.py"
                          % corpus_dir)


def load(corpus_dir: Path, name: str):
    """The surfaces of one corpus, after checking its digest against the manifest."""
    from spherecover import io

    entry = read_manifest(corpus_dir)["corpora"][name]
    data = (Path(corpus_dir) / entry["file"]).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry["sha256"]:
        raise CorpusError("%s: sha256 %s does not match the manifest's %s"
                          % (entry["file"], digest, entry["sha256"]))
    surfaces = [io.surface_from_dict(json.loads(line)) for line in data.splitlines()]
    if len(surfaces) != entry["count"]:
        raise CorpusError("%s: %d surfaces, manifest says %d"
                          % (entry["file"], len(surfaces), entry["count"]))
    return surfaces


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="corpus seed (1 or more)")
    ap.add_argument("--out", type=Path, required=True, help="output directory")
    args = ap.parse_args(argv)
    if args.seed < 1:
        ap.error("--seed must be at least 1")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    manifest = build(args.seed, args.out,
                     progress=lambda msg: print(msg, file=sys.stderr, flush=True))
    for name, entry in manifest["corpora"].items():
        print("%s: %d coverings, sha256 %s" % (name, entry["count"], entry["sha256"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
