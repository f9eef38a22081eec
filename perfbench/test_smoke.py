"""Smoke test of the benchmark on a tiny corpus: every named metric, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus.build(1, out, counts={"batch": 3, "stress": 2})
    return out


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_tiny_build_is_a_prefix_of_the_committed_corpus(tiny_corpus):
    committed = json.loads((run.DEFAULT_CORPUS / "manifest.json").read_text())
    for name, entry in json.loads((tiny_corpus / "manifest.json").read_text())["corpora"].items():
        lines = (tiny_corpus / entry["file"]).read_text().splitlines()
        full = (run.DEFAULT_CORPUS / entry["file"]).read_text().splitlines()
        assert lines == full[:len(lines)]
        assert entry["seeds"] == committed["corpora"][name]["seeds"][:len(lines)]


def test_a_second_seed_builds_other_coverings(tmp_path):
    manifest = corpus.build(2, tmp_path, counts={"batch": 2, "stress": 1})
    assert manifest["corpora"]["batch"]["seeds"][0] > corpus.SEED_STRIDE
    assert len(corpus.load(tmp_path, "stress")) == 1


def test_committed_corpus_matches_its_manifest():
    for name in corpus.CORPORA:
        assert len(corpus.load(run.DEFAULT_CORPUS, name)) == corpus.CORPORA[name]["count"]


def test_per_layer_list_matches_the_benchmark_file():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == run.per_layer_specs()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(tiny_corpus, workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--corpus-dir", str(tiny_corpus))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if workload != "pipeline_stress":
        assert result["correct"], proc.stdout
    if trace and workload != "generate":
        assert result["metrics"]["oracle.oracle_verify.calls"]["value"] == 1.0
        assert result["metrics"]["oracle.mismatches"]["value"] == 0.0


def test_calibration_scales_by_the_nearest_reference_runs():
    stats = run.Stats()
    stats.times = [0.010] * 40
    # the machine runs at nominal speed for 20 items, then at half speed
    stats.refs = [(k, run.REF_NOMINAL_S) for k in range(1, 21)] + \
        [(k, 2 * run.REF_NOMINAL_S) for k in range(21, 41)]
    cal = run.calibrated(stats)
    assert cal[:10] == pytest.approx([0.010] * 10)
    assert cal[-10:] == pytest.approx([0.005] * 10)


def test_corpus_tampering_is_refused(tiny_corpus, tmp_path):
    bad = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, bad)
    with open(bad / "batch.jsonl", "a") as fh:
        fh.write("\n")
    proc = bench("--workload", "pipeline_batch", "--seed", "1", "--seconds", "0.5",
                 "--trace", "0", "--corpus-dir", str(bad))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCHMARK["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "generate", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
