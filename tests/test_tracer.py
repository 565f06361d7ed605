"""perfbench/tracer.py on real commands: the counters its hooks derive
from the package's arguments and return values."""

from array import array
from collections import Counter
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]


def trace(folder, *cli_args):
    """(header, span calls by name, stdout) of one traced command run in
    folder, after asserting it exited 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), "trace.json",
                           *cli_args], cwd=folder, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    header = json.loads((folder / "trace.json").read_text())
    assert header["exit"] == 0
    name = array("i")
    with open(folder / "trace.json.spans", "rb") as fh:
        name.fromfile(fh, header["count"])
    return header, Counter(header["names"][i] for i in name), done.stdout


@pytest.fixture(scope="module")
def witness(tmp_path_factory):
    """A folder holding w.h3, built by a traced build whose plan has a
    surgery, and that build's trace."""
    folder = tmp_path_factory.mktemp("tracer")
    return folder, trace(folder, "build", "--n", "45", "--ell", "5", "--m", "58", "-o", "w.h3")


def test_tracer_counts_a_build_with_a_surgery(witness):
    _, (header, calls, stdout) = witness
    counters = header["counters"]
    assert "saturated=True" in stdout
    # one sampler call, on one route, that searched for the surgery's pair
    assert calls["confmodel.sample"] == 1 and calls["confmodel.pair_search"] >= 1
    assert counters["confmodel.route_repair"] + counters.get("confmodel.route_dfs", 0) == 1
    assert counters["confmodel.tries"] >= 1
    assert counters["hypercore.edges_made"] >= 58
    assert 0 < counters["checker.tagged"] <= counters["checker.vertices"] == 45


def test_tracer_counts_both_verify_scans(witness):
    folder, (built, _, _) = witness
    fast, _, _ = trace(folder, "verify", "w.h3", "--ell", "5")
    full, _, _ = trace(folder, "verify", "w.h3", "--ell", "5", "--full-scan")
    for header in (fast, full):
        assert header["counters"]["checker.tagged"] == built["counters"]["checker.tagged"]
        assert header["counters"]["hypercore.bytes_read"] == (folder / "w.h3").stat().st_size
    # the fast path scans the untagged vertices, the full scan all 45
    assert fast["counters"]["checker.pool_size"] < full["counters"]["checker.pool_size"] == 45
    assert full["counters"]["checker.triples_scanned"] > fast["counters"]["checker.triples_scanned"]


def test_tracer_counts_an_exhaustive_sweep(tmp_path):
    header, _, stdout = trace(tmp_path, "spectrum", "--exhaustive", "--n", "5", "--ell", "4")
    counters = header["counters"]
    assert counters["oracle.masks_swept"] == 2**10
    assert counters["oracle.saturated_found"] == sum(json.loads(stdout)["counts"].values()) > 0


def test_tracer_spans_classify_links(witness):
    folder, _ = witness
    header, calls, stdout = trace(folder, "classify-links", "w.h3")
    # one classify_link_5 call per printed vertex
    assert calls["checker.classify"] == len(stdout.splitlines()) > 0
    assert header["counters"]["twographs.classes"] > 0
