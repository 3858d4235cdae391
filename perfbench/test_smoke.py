"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Each workload runs through the benchmark's own entry point with small inputs
(``verify --n-max 3``, ``regions --n 3 --k 3``, 20-word batches) and the
printed result is checked against ``BENCHMARK.json``.  The negative tests
make sure the correctness checks cannot pass vacuously.
"""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
sys.path.insert(0, str(bench.SRC))

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# SHA-256 of `verify --n-max 3 --json FILE` and `regions --n 3 --k 3 --out FILE`,
# captured together with the full-size digests in run.py.
VERIFY_N3_SHA256 = "d52bd282847dd518c5bf0651de69d177b7ccd668a1d771fb7c48928d3204c957"
REGIONS_N3_K3_SHA256 = "85a7499e3dadf755b6f2f9692cd2ab5b67c4e7121dbd9633db6683f6453170b9"


def tiny(name, sha256=None):
    if name == "verify_n5":
        return bench.VerifyWorkload(n_max=3, sha256=sha256 or VERIFY_N3_SHA256)
    if name == "regions_n6_k3":
        return bench.RegionsWorkload(n=3, k=3, sha256=sha256 or REGIONS_N3_K3_SHA256)
    return bench.ClassifyWorkload(n_lo=3, n_hi=10, batch_size=20)


def run_main(monkeypatch, capsys, tmp_path, name, workload, trace):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setitem(bench.WORKLOADS, name, lambda: workload)
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    assert bench.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_printed_with_unit(monkeypatch, capsys, tmp_path, name, trace):
    result = run_main(monkeypatch, capsys, tmp_path, name, tiny(name), trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: printed[metric]["unit"] for metric in printed
    }
    for metric in printed.values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in printed.values())
    else:
        assert list(tmp_path.glob(f"trace-{name}-seed7.jsonl.gz"))


def test_traced_counts_match_call_structure(tmp_path):
    run = bench.measure(tiny("verify_n5"), 7, 0.01, True, tmp_path)
    metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
    # Cells (2,2), (3,2), (3,3); tables n=3 and four n=4 calls; count sweep
    # n=2..3 re-enumerates the three cells.
    assert metrics["arrangement.enumerate_regions.calls"] == 3 + 5 + 3
    assert metrics["arrangement.enumerate_regions.distinct"] == 6
    assert metrics["verify.cross_validate.calls"] == 3
    assert metrics["cli.main.calls"] == 1
    assert metrics["core.Word.parse.calls"] == 0
    spans = run["tracer"].spans
    ids = {span[0] for span in spans}
    assert all(parent is None or parent in ids for _, _, _, _, parent, _ in spans)


@pytest.mark.parametrize("name", ["verify_n5", "regions_n6_k3"])
def test_corrupted_digest_fails(tmp_path, name):
    run = bench.measure(tiny(name, sha256="0" * 64), 7, 0.01, False, tmp_path)
    assert run["result"]["failed"] == run["result"]["attempted"] > 0
    assert run["result"]["correct"] is False


def test_flipped_oracle_result_fails(monkeypatch, tmp_path):
    from shiish import parking

    original = parking.classification_report

    def flipped(word, ks=None):
        report = original(word, ks)
        last = str(word.n)
        report["partial"][last] = not report["partial"][last]
        return report

    monkeypatch.setattr(parking, "classification_report", flipped)
    run = bench.measure(tiny("classify_words"), 7, 0.01, False, tmp_path)
    assert run["result"]["failed"] == run["result"]["attempted"] > 0


def test_parking_generator_is_uniform_over_parking_functions():
    rng = random.Random(3)
    seen = {tuple(bench.random_parking_function(rng, 3)) for _ in range(2000)}
    assert len(seen) == 16
    assert all(bench._is_parking(list(word)) for word in seen)


def test_full_speed_keeps_passes_near_the_best_probe_reading():
    assert bench.full_speed([1.0, 1.1, 1.2, 2.0]) == [0, 1]
    assert bench.full_speed([0.7]) == [0]


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_n5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
