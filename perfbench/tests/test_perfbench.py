"""Self-test of the benchmark: run it on the smoke grid and check its output.

    python -m pytest perfbench/tests -q
"""

import json
from itertools import combinations
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_names_the_metrics_run_reports():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(run.workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(trace):
    out = _bench("--workload", "all", "--smoke", "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    want = {f"{w}.{m}" for w in run.workloads.WORKLOADS for m in names}
    assert set(result["metrics"]) == want
    for key, metric in result["metrics"].items():
        assert metric["unit"] == names[key.split(".", 1)[1]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "build", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_lex_rank_matches_combinations_order():
    for p in range(3, 9):
        for rank, (i, j, k) in enumerate(combinations(range(p), 3)):
            assert tracer.lex_rank(i, j, k, p) == rank
