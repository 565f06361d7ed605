"""Command-line behavior: exit codes, artifacts, determinism, reports."""

import dataclasses
import json
import os
from pathlib import Path
import subprocess
import sys
import time
from itertools import combinations

import bergesat
from bergesat import assembler, checker, oracle
from bergesat.cli import main
from bergesat.hypercore import Hypergraph3, InternalError, read_h3, write_h3


def run(*argv):
    return main(list(argv))


def test_build_then_verify_round_trip(tmp_path):
    out = tmp_path / "w.h3"
    code = run("build", "--n", "45", "--ell", "5", "--m", "63",
               "--seed", "1", "-o", str(out), "--quiet")
    assert code == 0
    assert out.exists()
    assert run("verify", str(out), "--ell", "5", "--quiet") == 0


def test_build_reports_provable_infeasibility(capsys):
    assert run("build", "--n", "45", "--ell", "5", "--m", "88") == 6
    assert "infeasible_by_theorem" in capsys.readouterr().out
    assert run("build", "--n", "45", "--ell", "5", "--m", "10") == 6
    assert run("build", "--n", "45", "--ell", "5", "--m", "500") == 7


def test_unrealizable_core_plans_exit_7_not_4(capsys):
    # the clique split leaves cores with too few edges for their
    # pairwise non-adjacent low vertices; degree_spec refuses the plan
    for n, m in (("45", "87"), ("100", "232")):
        assert run("build", "--n", n, "--ell", "6", "--m", m) == 7
        out = capsys.readouterr()
        assert "unsupported" in out.out and "pairwise non-adjacent" in out.out
        assert out.err == ""


def test_tiny_cores_near_ex_are_refused_at_once(capsys):
    # cores d(27, 6, 1) and d(15, 6, 0) with the disjoint pair: 25 edges,
    # while the pair and the edges at its six vertices need 26
    for m in ("350", "367"):
        start = time.perf_counter()
        assert run("build", "--n", "120", "--ell", "6", "--m", m, "--quiet") == 5
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err.startswith("error: no simple linear realization of")
    start = time.perf_counter()
    assert run("sample-config", "--n", "12", "--ell", "7", "--quiet") == 5
    assert time.perf_counter() - start < 5


def test_build_above_the_midpoint_uses_the_clique_split(tmp_path):
    # 12 m > ell(ell-1)n at (120, 6, 320); n0 is accepted and ignored
    out, rep = tmp_path / "w.h3", tmp_path / "rep.json"
    assert run("build", "--n", "120", "--ell", "6", "--m", "320", "--n0", "72",
               "-o", str(out), "--report", str(rep), "--quiet") == 0
    obj = json.loads(rep.read_text())
    assert obj["verified_saturated"] is True and set(obj["plan"]) >= {"c", "k", "i"}
    assert run("verify", str(out), "--ell", "6", "--quiet") == 0


def test_build_summary_echoes_the_seed(capsys, tmp_path):
    out = tmp_path / "w.h3"
    run("build", "--n", "45", "--ell", "5", "--m", "59",
        "--seed", "77", "-o", str(out))
    assert "seed=77" in capsys.readouterr().out


def test_identical_command_lines_write_identical_artifacts(tmp_path):
    a, b = tmp_path / "a.h3", tmp_path / "b.h3"
    for path in (a, b):
        assert run("build", "--n", "60", "--ell", "5", "--m", "85",
                   "--seed", "4", "-o", str(path), "--quiet") == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_separates_unsaturated_from_not_free(tmp_path):
    near = tmp_path / "near.h3"
    edges = [e for e in combinations(range(5), 3) if e != (2, 3, 4)]
    near.write_text(write_h3(Hypergraph3(5, tuple(edges))))
    assert run("verify", str(near), "--ell", "5", "--quiet") == 2
    full = tmp_path / "full.h3"
    full.write_text(write_h3(Hypergraph3(5, tuple(combinations(range(5), 3)))))
    assert run("verify", str(full), "--ell", "4", "--quiet") == 3


def test_verify_report_carries_the_verdict(tmp_path):
    g = tmp_path / "g.h3"
    rep = tmp_path / "rep.json"
    run("gadget", "--name", "lantern", "--ell", "5", "-o", str(g), "--quiet")
    assert run("verify", str(g), "--ell", "5",
               "--report", str(rep), "--quiet") == 0
    obj = json.loads(rep.read_text())
    assert obj["is_saturated"] is True and obj["ell"] == 5


def test_verify_refuses_a_huge_vertex_count(tmp_path, capsys):
    for name, text in [("huge.h3", "h3 99999999999 0\n"),
                       ("huge.json", '{"n": 99999999999, "edges": []}')]:
        path = tmp_path / name
        path.write_text(text)
        assert run("verify", str(path), "--ell", "5") == 4
        assert "exceeds the reader limit" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(tmp_path):
    assert run("verify", str(tmp_path / "absent.h3"), "--ell", "5") == 4


def test_malformed_json_inputs_are_usage_errors(tmp_path, capsys):
    for name, text in [
        ("deep.json", '{"n": ' + "[" * 5000),
        ("bool_n.json", '{"n": true, "edges": []}'),
        ("bool_edge.json", '{"n": 3, "edges": [[false, true, 2]]}'),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert run("verify", str(path), "--ell", "5") == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_spectrum_rejects_a_nonpositive_shard_count(capsys):
    for shards in ("0", "-1"):
        assert run("spectrum", "--exhaustive", "--n", "6", "--ell", "3",
                   "--shards", shards) == 4
        assert "shard count must be at least 1" in capsys.readouterr().err


def test_bad_arguments_are_usage_errors():
    assert run("build", "--n", "45") == 4
    assert run("nonsense") == 4


def test_sampler_budget_exit_code(tmp_path):
    # this overlay remainder is provably unrealizable, so the search
    # exhausts its space and reports through the budget channel
    assert run("sample-config", "--n", "22", "--ell", "5", "--k", "1",
               "--quiet") == 5


def test_impossible_pair_spec_fails_fast(capsys):
    # the plan's remainder d(84, 8, 3) has 136 edges, 135 of them through
    # its pairwise non-adjacent low vertices, so no disjoint pair exists
    start = time.perf_counter()
    assert run("build", "--n", "87", "--ell", "8", "--m", "207", "--quiet") == 5
    assert time.perf_counter() - start < 10
    assert "only 1 of its 136 edges can avoid" in capsys.readouterr().err


def test_sample_config_dense_spec_exits_cleanly(capsys):
    assert run("sample-config", "--n", "200", "--ell", "61", "--quiet") == 0
    assert json.loads(capsys.readouterr().err)["repaired"] is True


def test_sample_config_emits_stats_on_stderr(capsys, tmp_path):
    out = tmp_path / "s.h3"
    assert run("sample-config", "--n", "30", "--ell", "5", "--seed", "3",
               "-o", str(out), "--quiet") == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["tries"] >= 1
    g = read_h3(out.read_text())
    assert g.vertex_count == 30


def test_gadget_json_format(tmp_path):
    out = tmp_path / "g.json"
    assert run("gadget", "--name", "gadget-q", "-o", str(out),
               "--format", "json", "--quiet") == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 20 and len(obj["edges"]) == 29


def test_spectrum_theory_names_each_range(capsys):
    assert run("spectrum", "--theory", "--n", "45", "--ell", "5",
               "--quiet") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sat"] == 57 and obj["ex"] == 90
    rules = {r["rule"] for r in obj["ranges"]}
    assert any("lower-range" in r for r in rules)
    statuses = [r["status"] for r in obj["ranges"]]
    assert "infeasible" in statuses and "feasible" in statuses


def test_spectrum_theory_runs_follow_the_planner(capsys):
    assert run("spectrum", "--theory", "--n", "120", "--ell", "6", "--quiet") == 0
    obj = json.loads(capsys.readouterr().out)
    ranges = obj["ranges"]
    assert ranges[0] == {"lo": 0, "hi": 195, "status": "infeasible",
                         "rule": "below the saturation minimum"}
    assert [r["lo"] for r in ranges[1:]] == [r["hi"] + 1 for r in ranges[:-1]]
    assert ranges[-1]["hi"] == obj["ex"] == 400
    want = {"feasible": assembler.OK, "unsupported": assembler.UNSUPPORTED,
            "sampler-refused": assembler.OK}
    for r in ranges[1:]:
        for m in range(r["lo"], r["hi"] + 1):
            assert assembler.plan_witness(120, 6, m).status == want[r["status"]], m
    statuses = {(r["lo"], r["hi"]): r["status"] for r in ranges}
    assert statuses[(350, 351)] == "sampler-refused"
    assert any(r["status"] == "feasible" and r["hi"] > 300 for r in ranges)


def test_perfbench_tracer_installs_on_the_current_names():
    # the traced benchmark wraps planner, sampler and checker functions by
    # name; deleting one of them must fail here, not only in perfbench
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    src = str(Path(bergesat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import tracer; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], cwd=root / "perfbench",
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_spectrum_exhaustive_small(capsys):
    assert run("spectrum", "--exhaustive", "--n", "5", "--ell", "5",
               "--quiet") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["realizable"] == [10]


def test_classify_links_table(capsys):
    assert run("classify-links", "--enumerate", "--quiet") == 0
    out = capsys.readouterr().out
    assert "K2+K1,3" in out and "strata sizes" in out


def test_classify_links_per_vertex(tmp_path, capsys):
    # only vertices with 5+ neighbors are reported: the six lantern
    # spine vertices, each seeing its mate pair plus a group triangle
    g = tmp_path / "l5.h3"
    assert run("gadget", "--name", "lantern", "--ell", "5",
               "-o", str(g), "--quiet") == 0
    assert run("classify-links", str(g), "--quiet") == 0
    out = capsys.readouterr().out
    assert out.count("K2+K3") == 6


def test_no_partial_artifact_after_infeasible_build(tmp_path):
    out = tmp_path / "none.h3"
    assert run("build", "--n", "45", "--ell", "5", "--m", "88",
               "-o", str(out), "--quiet") == 6
    assert not out.exists()


def test_uncertified_build_writes_nothing(tmp_path, monkeypatch):
    certify = checker.is_saturated

    def unsaturated(g, ell, full_scan=False):
        rep = certify(g, ell, full_scan)
        return dataclasses.replace(rep, is_saturated=False, counterexample=(0, 1, 2))

    monkeypatch.setattr(checker, "is_saturated", unsaturated)
    out, rep = tmp_path / "w.h3", tmp_path / "rep.json"
    assert run("build", "--n", "45", "--ell", "5", "--m", "63", "--seed", "1",
               "-o", str(out), "--report", str(rep), "--quiet") == 2
    assert not out.exists()
    assert json.loads(rep.read_text())["verified_saturated"] is False


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalError("named class T0 not found exactly once")

    monkeypatch.setattr(oracle, "enumerate_link_catalog", broken)
    assert run("classify-links", "--enumerate", "--quiet") == 8
    err = capsys.readouterr().err
    assert err.startswith("error: internal error:") and "T0" in err
    assert "Traceback" not in err
