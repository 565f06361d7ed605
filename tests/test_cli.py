"""Command-line behavior: exit codes, artifacts, determinism, reports."""

from array import array
import gc
from hashlib import sha256
import json
import os
from pathlib import Path
import subprocess
import sys
import time
from itertools import combinations
from math import comb

import pytest

import bergesat
from bergesat import assembler, checker, confmodel, gadgets, hypercore, oracle
from bergesat.cli import main
from bergesat.hypercore import FormatError, Hypergraph3, InternalError, make, read_h3, write_h3


def run(*argv):
    return main(list(argv))


def _src_env():
    """The environment a fresh interpreter needs to import this package."""
    env = dict(os.environ)
    src = str(Path(bergesat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_build_then_verify_round_trip(tmp_path):
    out = tmp_path / "w.h3"
    code = run("build", "--n", "45", "--ell", "5", "--m", "63",
               "--seed", "1", "-o", str(out), "--quiet")
    assert code == 0
    assert out.exists()
    assert run("verify", str(out), "--ell", "5", "--quiet") == 0


def test_a_failed_rename_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "w.h3"
    out.write_text("the earlier artifact\n")

    def refuse(src, dst):
        raise OSError(28, "No space left on device", dst)

    monkeypatch.setattr(os, "replace", refuse)
    assert run("build", "--n", "45", "--ell", "5", "--m", "63", "-o", str(out), "--quiet") == 4
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_text() == "the earlier artifact\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.h3"]


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


def test_tiny_cores_near_ex_are_refused_at_once(tmp_path, capsys):
    # cores d(27, 6, 1) and d(15, 6, 0) with the disjoint pair: 25 edges,
    # while the pair and the edges at its six vertices need 26
    for m in ("350", "367"):
        rep = tmp_path / f"rep{m}.json"
        start = time.perf_counter()
        assert run("build", "--n", "120", "--ell", "6", "--m", m,
                   "--report", str(rep), "--quiet") == 5
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("error: no simple linear realization of")
        # the refusal still leaves its report
        obj = json.loads(rep.read_text())
        assert obj["status"] == "sampler_budget" and obj["m"] == int(m)
        assert err == f"error: {obj['rule']}\n"
        assert obj["stats"]["tries"] == 0
    start = time.perf_counter()
    assert run("sample-config", "--n", "12", "--ell", "7", "--quiet") == 5
    assert time.perf_counter() - start < 5


def test_cores_above_the_packing_bound_are_refused_at_once(tmp_path, capsys):
    # (20, 6, 40) plans the core d(11, 6, 0): 18 triples on 11 vertices,
    # one more than a linear 3-graph on them can hold
    rep = tmp_path / "rep.json"
    start = time.perf_counter()
    assert run("build", "--n", "20", "--ell", "6", "--m", "40",
               "--report", str(rep), "--quiet") == 5
    assert time.perf_counter() - start < 5
    assert "has at most 17 triples, the spec has 18" in capsys.readouterr().err
    obj = json.loads(rep.read_text())
    assert obj["status"] == "sampler_budget" and obj["stats"]["tries"] == 0
    assert run("spectrum", "--theory", "--n", "20", "--ell", "6", "--quiet") == 0
    ranges = json.loads(capsys.readouterr().out)["ranges"]
    # one rule covers every counting refusal, so m = 40 (the packing bound)
    # and m = 41, 42 (too few edges for the disjoint pair) share one run
    refused = [r for r in ranges if r["lo"] <= 40 <= r["hi"]]
    assert [(r["lo"], r["hi"], r["status"]) for r in refused] == [(40, 42, "sampler-refused")]
    assert refused[0]["rule"].endswith(
        "(too few active vertices or edges, or more edges than a linear 3-graph "
        "on its active vertices holds); exit 5")


def test_build_above_the_midpoint_uses_the_clique_split(tmp_path):
    # 12 m > ell(ell-1)n at (120, 6, 320); n0 is accepted and ignored
    out, rep = tmp_path / "w.h3", tmp_path / "rep.json"
    assert run("build", "--n", "120", "--ell", "6", "--m", "320", "--n0", "72",
               "-o", str(out), "--report", str(rep), "--quiet") == 0
    obj = json.loads(rep.read_text())
    assert obj["verified_saturated"] is True
    # the report lists the plan's runs of blocks: the core W, then the
    # 6-cliques as one entry with their count
    (w, cliques) = obj["plan"]
    assert (w["name"], w["copies"], cliques["name"]) == ("W", 1, "K_6")
    assert sum(b["copies"] * b["vertices"] for b in obj["plan"]) == 120
    assert sum(b["copies"] * b["edges"] for b in obj["plan"]) == 320
    assert run("verify", str(out), "--ell", "6", "--quiet") == 0


def test_ex_with_ell_dividing_n_builds_disjoint_cliques(tmp_path):
    for n, ell, m in (("120", "6", "400"), ("84", "7", "420")):
        out, rep = tmp_path / f"w{n}.h3", tmp_path / f"rep{n}.json"
        assert run("build", "--n", n, "--ell", ell, "--m", m, "-o", str(out),
                   "--report", str(rep), "--quiet") == 0
        obj = json.loads(rep.read_text())
        assert obj["verified_saturated"] is True
        clique = {"name": f"K_{ell}", "vertices": int(ell), "edges": comb(int(ell), 3),
                  "nonfull": 0, "copies": int(n) // int(ell)}
        assert obj["plan"] == [clique]
        assert run("verify", str(out), "--ell", ell, "--quiet") == 0


def test_closed_form_requests_build(tmp_path, capsys):
    # K_6^(3) is the only saturated graph when n <= ell; a tight cycle
    # serves m = n at ell = 4, and from n = 9 the sparse split serves n - 1
    for n, ell, m in (("6", "6", "20"), ("15", "4", "15")):
        out = tmp_path / f"w{n}.h3"
        assert run("build", "--n", n, "--ell", ell, "--m", m, "-o", str(out), "--quiet") == 0
        assert run("verify", str(out), "--ell", ell, "--quiet") == 0
    assert run("spectrum", "--theory", "--n", "10", "--ell", "4", "--quiet") == 0
    ranges = json.loads(capsys.readouterr().out)["ranges"]
    assert ranges[0]["lo"] == 0 and ranges[-1]["hi"] == 10
    assert [r["lo"] for r in ranges[1:]] == [r["hi"] + 1 for r in ranges[:-1]]
    assert [r["status"] for r in ranges] == ["infeasible", "feasible", "feasible", "feasible"]


def test_l4_sparse_build_ignores_seed_but_checks_max_tries(tmp_path, capsys):
    outs = [tmp_path / f"w{seed}.h3" for seed in (0, 3)]
    for seed, out in zip((0, 3), outs):
        assert run("build", "--n", "30", "--ell", "4", "--m", "29", "--seed", str(seed),
                   "-o", str(out), "--quiet") == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert read_h3(outs[0].read_text()) == gadgets.l4_sparse(30)
    # every build refuses a budget below 1, also when its plan samples nothing
    for n, ell, m in ((30, 4, 29), (4, 2, 1), (45, 5, 80), (30, 4, 28)):
        assert run("build", "--n", str(n), "--ell", str(ell), "--m", str(m),
                   "--max-tries", "0", "--quiet") == 4
        err = capsys.readouterr().err
        assert err == "error: max_tries must be >= 1, got 0\n"


def test_small_star_requests_sample_only_what_they_return(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a graph the request does not return")

    monkeypatch.setattr(confmodel, "sample_linear", refuse)
    for m, status in ((3000, assembler.OK), (2999, assembler.OK), (2998, assembler.OK),
                      (5000, assembler.OUT_OF_RANGE)):
        assert assembler.build_spectrum_witness(3000, 4, m)[0].status == status
    assert run("spectrum", "--theory", "--n", "3000", "--ell", "4", "--quiet") == 0
    assert json.loads(capsys.readouterr().out)["ranges"][-1]["hi"] == 3000


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


# sha256 of the `verify --report` file, fast path and --full-scan alike,
# on the seed-0 (10008, 6, 25590) witness and on it minus its middle edge,
# as the per-line reader and the link pass that built N(v) less v gave them
PINNED_REPORTS = {
    "witness": (0, "8932a0ec7fb19f06ddc37b7c3b07d84f39f85bbdf3743a20104f7ea8583d300b"),
    "minus-middle-edge": (2, "f2daef8a5c790ebc95de149539cbf940b9e5425e0374a5cd429e2c02ccb43cb7"),
}


def test_verify_reports_are_pinned(tmp_path):
    _, g = assembler.build_spectrum_witness(10008, 6, 25590, seed=0)
    graphs = {"witness": g,
              "minus-middle-edge": hypercore.remove_edge(g, g.edges[len(g.edges) // 2])}
    rep = tmp_path / "rep.json"
    for name, (code, digest) in PINNED_REPORTS.items():
        path = tmp_path / f"{name}.h3"
        path.write_text(write_h3(graphs[name]))
        for scan in ((), ("--full-scan",)):
            assert run("verify", str(path), "--ell", "6", "--report", str(rep),
                       "--quiet", *scan) == code
            assert sha256(rep.read_bytes()).hexdigest() == digest, (name, scan)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    # the cyclic collector is off while a command runs, on success and on
    # an exit-4 error alike, and main restores the caller's setting
    k5 = tmp_path / "k5.h3"
    k5.write_text(write_h3(gadgets.clique3(5)))
    during = []
    verdict = checker.is_saturated

    def spy(*args, **kwargs):
        during.append(gc.isenabled())
        return verdict(*args, **kwargs)

    monkeypatch.setattr(checker, "is_saturated", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run("verify", str(k5), "--ell", "5", "--quiet") == 0
        assert gc.isenabled() is enabled
        assert run("verify", str(tmp_path / "missing.h3"), "--ell", "5", "--quiet") == 4
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_graph_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # int() reads fullwidth digits, so this is a valid graph; under the C
    # locale the default codec is ascii, which cannot decode them
    path = tmp_path / "fullwidth.h3"
    path.write_bytes("h3 4 1\n\uff10 1 2\n".encode("utf-8"))
    env = _src_env()
    seen = []
    for name, locale in (("utf8", {"PYTHONUTF8": "1"}), ("c", {"LC_ALL": "C", "PYTHONUTF8": "0"})):
        rep = tmp_path / f"{name}.json"
        done = subprocess.run([sys.executable, "-m", "bergesat.cli", "verify", str(path),
                               "--ell", "2", "--report", str(rep)],
                              env={**env, **locale}, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (name, done.stderr)
        seen.append((done.stdout, rep.read_bytes()))
    assert seen[0] == seen[1] and "saturated at ell=2" in seen[0][0]


def test_graph_files_reach_the_reader_with_their_line_ends(tmp_path, capsys):
    # read_h3 splits lines at "\n" only: a "\r\n" file reads as written, a
    # lone-"\r" one is a single line and fails as the library fails on it
    crlf, cr = tmp_path / "crlf.h3", tmp_path / "cr.h3"
    crlf.write_bytes(b"h3 4 1\r\n0 1 2\r\n")
    cr.write_bytes(b"h3 4 1\r0 1 2\r")
    assert main(["verify", str(crlf), "--ell", "2"]) == 0
    assert "saturated at ell=2" in capsys.readouterr().out
    with pytest.raises(FormatError) as e:
        read_h3("h3 4 1\r0 1 2\r")
    assert main(["verify", str(cr), "--ell", "2"]) == 4
    assert capsys.readouterr().err == f"error: {e.value}\n"


# each command and the report fields it writes on exit 0; "K5" is a
# graph file the test writes first
REPORTS = [
    (["build", "--n", "45", "--ell", "5", "--m", "57"],
     {"n": 45, "ell": 5, "m": 57, "seed": 0, "status": "ok", "verified_saturated": True}),
    (["verify", "K5", "--ell", "5"], {"is_saturated": True, "ell": 5}),
    (["spectrum", "--theory", "--n", "10", "--ell", "4"], {"n": 10, "ell": 4, "ex": 10}),
    (["sample-config", "--n", "30", "--ell", "5", "--seed", "2"],
     {"n": 30, "ell": 5, "k": 0, "seed": 2, "edges": 40}),
    (["gadget", "--name", "lantern"], {"name": "lantern", "vertices": 15, "edges": 23}),
    (["classify-links", "--enumerate"], {"discrepancies": ["K2+K1,3"]}),
]


# a matching (ell = 2) and a wrap cycle (ell = 3) on all n vertices: the
# plan holds no empty K_0 run, and the witness keeps its pinned bytes
FULL_CLOSED_FORMS = {
    (12, 3, 8): ("wrap cycle", "62f9912755566e3060e2a4d2b93bb725c8573db4d7967b1d050e37a034e4d45a"),
    (9, 2, 3): ("K_3", "e7c4ad543a191c62d2e4ef1c6149b31a3b632aa3e71f84c72c9e73702298c0b7"),
}


@pytest.mark.parametrize("n, ell, m", sorted(FULL_CLOSED_FORMS))
def test_closed_form_reports_list_no_empty_block(tmp_path, n, ell, m):
    out, rep = tmp_path / "w.h3", tmp_path / "rep.json"
    assert run("build", "--n", str(n), "--ell", str(ell), "--m", str(m),
               "-o", str(out), "--report", str(rep), "--quiet") == 0
    name, digest = FULL_CLOSED_FORMS[(n, ell, m)]
    assert [b["name"] for b in json.loads(rep.read_text())["plan"]] == [name]
    assert sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, fields", REPORTS, ids=[argv[0] for argv, _ in REPORTS])
def test_every_command_writes_its_report(tmp_path, argv, fields):
    k5 = tmp_path / "K5"
    k5.write_text(write_h3(gadgets.clique3(5)))
    rep = tmp_path / "rep.json"
    argv = [str(k5) if a == "K5" else a for a in argv]
    assert run(*argv, "--report", str(rep), "--quiet") == 0
    obj = json.loads(rep.read_text())
    assert {key: obj[key] for key in fields} == fields
    if argv[0] == "sample-config":
        assert obj["stats"]["tries"] >= 1


def test_verify_refuses_a_huge_vertex_count(tmp_path, capsys):
    for name, text in [("huge.h3", "h3 99999999999 0\n"),
                       ("huge.json", '{"n": 99999999999, "edges": []}')]:
        path = tmp_path / name
        path.write_text(text)
        assert run("verify", str(path), "--ell", "5") == 4
        assert "exceeds the reader limit" in capsys.readouterr().err
    # the commands that take --n themselves apply the same cap,
    # sample-config also refuses a spec of more than 2^22 edges, and
    # spectrum --theory more than 2^17 values of m to plan
    for argv, why in ((("build", "--n", "100000000", "--ell", "6", "--m", "300000000"),
                       "exceeds the vertex limit"),
                      (("sample-config", "--n", "1048577", "--ell", "5"),
                       "exceeds the vertex limit"),
                      (("sample-config", "--n", "1048576", "--ell", "100"),
                       "has 34603008 edges, above the edge limit 4194304"),
                      (("gadget", "--name", "l4-sparse", "--n", "1000000000000"),
                       "exceeds the vertex limit"),
                      (("spectrum", "--theory", "--n", "100000000", "--ell", "6"),
                       "exceeds the vertex limit"),
                      (("spectrum", "--theory", "--n", "400", "--ell", "200"),
                       "above the planning limit 131072"),
                      # the smallest gadgets past the edge limit
                      (("gadget", "--name", "clique", "--n", "300"),
                       "4455100 triples, above the edge limit 4194304"),
                      (("gadget", "--name", "sun", "--ell", "3000"),
                       "8988003 triples, above the edge limit 4194304"),
                      (("gadget", "--name", "lantern", "--ell", "250"),
                       "7718258 triples, above the edge limit 4194304")):
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert why in err


def _clique(n):
    return Hypergraph3(n, tuple(combinations(range(n), 3)))


def _broken(*args, **kwargs):
    raise InternalError("an invariant failed")


_certify = checker.is_saturated


def _uncertified(g, ell, full_scan=False):
    rep = _certify(g, ell, full_scan)
    return rep._replace(is_saturated=False, counterexample=(0, 1, 2))


# the exit codes on which a command leaves its --report: verify's
# verdicts, build's certificate and refusals, the others' success only;
# none on exit 4 or 8, and --help writes none
LEAVES_REPORT = {"build": {0, 2, 5, 6, 7}, "verify": {0, 2, 3}, "--help": set()}


@pytest.mark.parametrize("code, argv, broken, says", [
    pytest.param(0, ["verify", "K5", "--ell", "5"], None, None, id="saturated"),
    pytest.param(2, ["verify", "ONE", "--ell", "5"], None, None, id="unsaturated"),
    pytest.param(3, ["verify", "K7", "--ell", "5"], None, None, id="not-free"),
    pytest.param(4, ["build", "--n", "45", "--ell", "5"], None, None, id="missing-m"),
    # a negative m is refused before planning, which exits 8 here
    pytest.param(4, ["build", "--n", "45", "--ell", "5", "--m", "-1"],
                 (assembler, "plan_witness", _broken), None, id="negative-m"),
    # the planner accepts this m = C(3000, 3), and building it would
    # allocate 4.5e9 triples; planning here exits 8, so 4 shows that the
    # cap answers first
    pytest.param(4, ["build", "--n", "3000", "--ell", "3000", "--m", "4495501000"],
                 (assembler, "build_spectrum_witness", _broken), None, id="m-above-cap"),
    # C(3000, 3) triples again, now from the clique gadget; building it
    # here exits 8, so 4 shows that the cap answers before clique3 runs
    pytest.param(4, ["gadget", "--name", "clique", "--n", "3000"],
                 (gadgets, "clique3", _broken), None, id="clique-above-cap"),
    # 1.3e7 and 1e10 triples: the lantern and sun caps also answer first
    pytest.param(4, ["gadget", "--name", "lantern", "--ell", "300"],
                 (gadgets, "lantern", _broken), None, id="lantern-above-cap"),
    pytest.param(4, ["gadget", "--name", "sun", "--ell", "100000"],
                 (gadgets, "sun", _broken), None, id="sun-above-cap"),
    # a file and the catalog together: refused, not the file ignored
    pytest.param(4, ["classify-links", "K5", "--enumerate"],
                 (oracle, "enumerate_link_catalog", _broken), None, id="file-and-enumerate"),
    # neither a file nor the catalog, and a sparse split without its size
    pytest.param(4, ["classify-links"], (checker, "classify_link_5", _broken), None,
                 id="no-input"),
    pytest.param(4, ["gadget", "--name", "l4-sparse"], (gadgets, "l4_sparse", _broken), None,
                 id="l4-sparse-without-n"),
    # the argument guards of the planner and the checker
    pytest.param(4, ["build", "--n", "0", "--ell", "5", "--m", "0"], None,
                 "need n >= 1 and ell >= 1", id="build-n-zero"),
    pytest.param(4, ["build", "--n", "5", "--ell", "0", "--m", "0"], None,
                 "need n >= 1 and ell >= 1", id="build-ell-zero"),
    pytest.param(4, ["spectrum", "--theory", "--n", "0", "--ell", "5"], None,
                 "need n >= 1 and ell >= 1", id="spectrum-n-zero"),
    pytest.param(4, ["verify", "K5", "--ell", "0"], None, "ell must be positive",
                 id="verify-ell-zero"),
    pytest.param(0, ["--help"], None, None, id="help"),
    pytest.param(2, ["build", "--n", "45", "--ell", "5", "--m", "63", "--seed", "1"],
                 (checker, "is_saturated", _uncertified), None, id="uncertified"),
    pytest.param(5, ["build", "--n", "120", "--ell", "6", "--m", "350"], None, None,
                 id="sampler-budget"),
    pytest.param(5, ["sample-config", "--n", "12", "--ell", "7"], None, None,
                 id="sample-config-budget"),
    # sample_linear's own budget guard; build's is build_spectrum_witness's
    pytest.param(4, ["sample-config", "--n", "60", "--ell", "5", "--max-tries", "0"], None,
                 "max_tries must be >= 1, got 0", id="sample-config-max-tries-zero"),
    pytest.param(6, ["build", "--n", "45", "--ell", "5", "--m", "88"], None, None,
                 id="infeasible"),
    pytest.param(7, ["build", "--n", "45", "--ell", "5", "--m", "500"], None, None,
                 id="unsupported"),
    pytest.param(8, ["verify", "K5", "--ell", "5"], (checker, "is_saturated", _broken), None,
                 id="internal"),
    pytest.param(8, ["build", "--n", "45", "--ell", "5", "--m", "57"],
                 (assembler, "plan_witness", _broken), None, id="build-internal"),
])
def test_each_exit_code(tmp_path, monkeypatch, capsys, code, argv, broken, says):
    # one row per documented exit code, what some rows say, and whether
    # the row leaves its --report; a row that raises fails
    graphs = {"K5": _clique(5), "K7": _clique(7), "ONE": make(6, [(0, 1, 2)])}
    for name, g in graphs.items():
        (tmp_path / f"{name}.h3").write_text(write_h3(g))
    if broken:
        monkeypatch.setattr(*broken)
    argv = [str(tmp_path / f"{a}.h3") if a in graphs else a for a in argv]
    rep = tmp_path / "rep.json"
    assert main(argv + ["--report", str(rep), "--quiet"]) == code
    assert rep.exists() == (code in LEAVES_REPORT.get(argv[0], {0}))
    if says:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and says in err, err


def test_missing_file_is_a_usage_error(tmp_path):
    assert run("verify", str(tmp_path / "absent.h3"), "--ell", "5") == 4


def test_malformed_json_inputs_are_usage_errors(tmp_path, capsys):
    for name, text in [
        ("deep.json", '{"n": ' + "[" * 5000),
        ("bool_n.json", '{"n": true, "edges": []}'),
        ("bool_edge.json", '{"n": 3, "edges": [[false, true, 2]]}'),
        # parsed, then refused by graph validation
        ("negative_n.json", '{"n": -1, "edges": []}'),
        ("out_of_range.json", '{"n": 3, "edges": [[0, 1, 5]]}'),
        ("descending.json", '{"n": 3, "edges": [[2, 1, 0]]}'),
        ("unordered.json", '{"n": 4, "edges": [[1, 2, 3], [0, 1, 2]]}'),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert run("verify", str(path), "--ell", "5") == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_spectrum_exhaustive_refuses_n8_and_shards(capsys):
    assert run("spectrum", "--exhaustive", "--n", "8", "--ell", "3") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the exhaustive cap of 7" in err
    # one sweep covers n = 7, so there is nothing to shard
    assert run("spectrum", "--exhaustive", "--n", "6", "--ell", "3",
               "--shards", "2") == 4
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --shards 2" in err
    assert "Traceback" not in err


def test_bad_arguments_are_usage_errors(tmp_path):
    assert run("build", "--n", "45") == 4
    assert run("nonsense") == 4
    # only the commands that write a graph take --seed, --format and -o
    g, out = tmp_path / "k5.h3", tmp_path / "f.h3"
    g.write_text(write_h3(Hypergraph3(5, tuple(combinations(range(5), 3)))))
    assert run("verify", str(g), "--ell", "5", "--quiet") == 0
    assert run("verify", str(g), "--ell", "5", "--seed", "9", "--format", "json",
               "-o", str(out)) == 4
    # every gadget is deterministic, so gadget takes no --seed
    assert run("gadget", "--name", "lantern", "--seed", "1", "-o", str(out)) == 4
    assert not out.exists()


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
    # a gadget that takes its size from --n
    out = tmp_path / "l4.h3"
    assert run("gadget", "--name", "l4-sparse", "--n", "16", "-o", str(out), "--quiet") == 0
    g = read_h3(out.read_text())
    assert g.vertex_count == 16 and len(g.edges) == 15


def test_spectrum_theory_names_each_range(capsys):
    assert run("spectrum", "--theory", "--n", "45", "--ell", "5",
               "--quiet") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sat"] == 57 and obj["ex"] == 90
    rules = {r["rule"] for r in obj["ranges"]}
    assert any("lower-range" in r for r in rules)
    statuses = [r["status"] for r in obj["ranges"]]
    assert "infeasible" in statuses and "feasible" in statuses


def test_spectrum_theory_sat_and_ex_at_n_up_to_ell(capsys):
    # K_n^(3) is the only saturated graph, so sat = ex = C(n,3), the one
    # feasible run
    for n, ell, edges in (("6", "7", 20), ("3", "4", 1)):
        assert run("spectrum", "--theory", "--n", n, "--ell", ell, "--quiet") == 0
        obj = json.loads(capsys.readouterr().out)
        feasible = [r for r in obj["ranges"] if r["status"] == "feasible"]
        assert feasible == [{"lo": edges, "hi": edges, "status": "feasible",
                             "rule": feasible[0]["rule"]}]
        assert obj["sat"] == obj["ex"] == edges and obj["ex_kind"] == "exact"


def test_spectrum_theory_runs_follow_the_planner(capsys):
    assert run("spectrum", "--theory", "--n", "120", "--ell", "6", "--quiet") == 0
    obj = json.loads(capsys.readouterr().out)
    ranges = obj["ranges"]
    assert ranges[0] == {"lo": 0, "hi": 195, "status": "infeasible",
                         "rule": "below the saturation minimum"}
    assert [r["lo"] for r in ranges[1:]] == [r["hi"] + 1 for r in ranges[:-1]]
    assert ranges[-1] == {"lo": 400, "hi": 400, "status": "feasible",
                          "rule": "disjoint ell-cliques"}
    want = {"feasible": assembler.OK, "unsupported": assembler.UNSUPPORTED,
            "sampler-refused": assembler.OK}
    for r in ranges[1:]:
        for m in range(r["lo"], r["hi"] + 1):
            assert assembler.plan_witness(120, 6, m).status == want[r["status"]], m
    statuses = {(r["lo"], r["hi"]): r["status"] for r in ranges}
    assert statuses[(350, 351)] == "sampler-refused"
    assert any(r["status"] == "feasible" and r["hi"] > 300 for r in ranges)


def test_perfbench_tracer_installs_on_the_current_names(tmp_path):
    # the traced benchmark wraps planner, sampler and checker functions by
    # name and reads the sampler's stats fields; renaming one of them must
    # fail here, not only in perfbench
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    env = _src_env()
    w = str(tmp_path / "w.h3")
    # (120, 6, 320) plans one surgery, so the sampler looks for the pair
    for name, argv in (("build", ["build", "--n", "120", "--ell", "6", "--m", "320", "-o", w]),
                       ("verify", ["verify", w, "--ell", "6"])):
        out = tmp_path / f"{name}.json"
        done = subprocess.run([sys.executable, str(tracer), str(out), *argv, "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        header = json.loads(out.read_text())
        assert header["exit"] == 0
        if name == "build":
            assert header["counters"]["confmodel.tries"] > 0
            # the span table opens with each span's name id, then its
            # parent's index: the sampler's own pair test must be traced
            count, names = header["count"], header["names"]
            table = array("i", Path(f"{out}.spans").read_bytes()[:8 * count])
            name, parent = table[:count], table[count:]
            assert any(names[name[i]] == "confmodel.pair_search"
                       and names[name[parent[i]]] == "confmodel.sample" for i in range(count))
        else:
            assert header["counters"]["checker.vertices"] == 120


# run in a fresh interpreter: a bare `import bergesat` must load no
# submodule; then one command
_LOADS_PROBE = """
import json, sys
import bergesat
bare = sorted(m for m in sys.modules if m.startswith("bergesat."))
from bergesat.cli import main
code = main(sys.argv[2:] + ["--quiet"])
loaded = sorted(m for m in sys.modules if m.startswith("bergesat."))
numpy = "numpy" in sys.modules
heavy = sorted(m for m in ("dataclasses", "inspect", "logging") if m in sys.modules)
with open(sys.argv[1], "w") as fh:
    json.dump([bare, code, loaded, numpy, heavy], fh)
"""


# every command loads cli and hypercore, plus only the layers it runs;
# none loads numpy (the package imports only the standard library, see
# tests/test_source.py), and none loads dataclasses, inspect or logging
@pytest.mark.parametrize("argv, layers", [
    pytest.param(["verify", "K5", "--ell", "5", "--full-scan"], ["checker"], id="verify"),
    pytest.param(["build", "--n", "45", "--ell", "5", "--m", "64", "-o", "W"],
                 ["assembler", "checker", "confmodel", "gadgets"], id="build"),
    pytest.param(["build", "--n", "45", "--ell", "5", "--m", "70", "-o", "W"],
                 ["assembler", "checker", "confmodel", "gadgets"], id="build-search"),
    pytest.param(["classify-links", "L5"], ["checker", "twographs"], id="classify-links-file"),
    pytest.param(["classify-links", "--enumerate"], ["oracle", "twographs"],
                 id="classify-links-enumerate"),
    pytest.param(["spectrum", "--exhaustive", "--n", "5", "--ell", "4"],
                 ["oracle"], id="spectrum-exhaustive"),
    pytest.param(["gadget", "--name", "lantern"], ["gadgets"], id="gadget"),
    pytest.param(["gadget", "--name", "l4-sparse", "--n", "12"], ["gadgets"],
                 id="gadget-l4-sparse"),
])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    for name, g in {"K5": _clique(5), "L5": gadgets.lantern(5)}.items():
        (tmp_path / name).write_text(write_h3(g))
    argv = [str(tmp_path / a) if a in ("K5", "L5", "W") else a for a in argv]
    env = _src_env()
    out = tmp_path / "loads.json"
    done = subprocess.run([sys.executable, "-c", _LOADS_PROBE, str(out)] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    expected = sorted(f"bergesat.{m}" for m in ["cli", "hypercore"] + layers)
    assert json.loads(out.read_text()) == [[], 0, expected, False, []]


# the process entry ends by freezing the collector, so shutdown skips its
# last collections; the command's code, streams and report are the same
# as in process, where main never freezes
@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "K5", "--ell", "5"], id="0"),
    pytest.param(["verify", "ONE", "--ell", "5"], id="2"),
    pytest.param(["verify", "K7", "--ell", "5"], id="3"),
    pytest.param(["verify", "ABSENT", "--ell", "5"], id="4-missing-file"),
    pytest.param(["build", "--n", "45", "--ell", "5"], id="4-missing-m"),
    pytest.param(["build", "--n", "45", "--ell", "5", "--m", "88"], id="6"),
])
def test_the_process_entry_matches_main_in_process(tmp_path, capsys, argv):
    graphs = {"K5": _clique(5), "K7": _clique(7), "ONE": make(6, [(0, 1, 2)])}
    for name, g in graphs.items():
        (tmp_path / name).write_text(write_h3(g))
    rep = tmp_path / "rep.json"
    argv = [str(tmp_path / a) if a in (*graphs, "ABSENT") else a for a in argv]
    argv += ["--report", str(rep)]
    done = subprocess.run([sys.executable, "-m", "bergesat.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    by_process = (done.returncode, done.stdout, done.stderr,
                  rep.read_bytes() if rep.exists() else None)
    rep.unlink(missing_ok=True)
    frozen = gc.get_freeze_count()
    code = main(argv)
    assert gc.get_freeze_count() == frozen
    out, err = capsys.readouterr()
    assert (code, out, err, rep.read_bytes() if rep.exists() else None) == by_process


# both process entries, `python -m bergesat.cli` and the console script's
# `sys.exit(main())`, with an atexit probe that records the freeze count
_EXIT_PROBE = """
import atexit, gc, runpy, sys
out, entry = sys.argv[1], sys.argv[2]
del sys.argv[1:3]
atexit.register(lambda: open(out, "w").write(str(gc.get_freeze_count())))
if entry == "module":
    runpy.run_module("bergesat.cli", run_name="__main__", alter_sys=True)
else:
    from bergesat.cli import main
    sys.exit(main())
"""


@pytest.mark.parametrize("entry", ["module", "script"])
def test_the_process_entry_freezes_the_collector_at_exit(tmp_path, entry):
    k5 = tmp_path / "K5"
    k5.write_text(write_h3(_clique(5)))
    probe = tmp_path / "frozen.txt"
    done = subprocess.run([sys.executable, "-c", _EXIT_PROBE, str(probe), entry,
                           "verify", str(k5), "--ell", "5"], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "saturated at ell=5" in done.stdout
    assert int(probe.read_text()) > 0


# four commands in one fresh interpreter, then their exit codes: a
# clique split with two surgeries, a composer plan, the planner's runs
# and the link classes of the first witness
_HASH_SEED_PROBE = """
from bergesat.cli import main
codes = [main(argv) for argv in (
    ["build", "--n", "45", "--ell", "5", "--m", "66", "--seed", "3",
     "-o", "w1.h3", "--report", "w1.json"],
    ["build", "--n", "60", "--ell", "5", "--m", "110", "-o", "w2.h3", "--report", "w2.json"],
    ["spectrum", "--theory", "--n", "120", "--ell", "7"],
    ["classify-links", "w1.h3"])]
print(codes)
"""


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # set and dict order must not reach a written file or stdout
    env = _src_env()
    seen = []
    for seed in ("0", "1", "2"):
        work = tmp_path / seed
        work.mkdir()
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], cwd=work,
                              env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and not done.stderr, done.stderr
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        assert sorted(files) == ["w1.h3", "w1.json", "w2.h3", "w2.json"]
        seen.append((done.stdout, files))
    assert seen[0][0].endswith("[0, 0, 0, 0]\n") and "vertex " in seen[0][0]
    assert seen[0] == seen[1] == seen[2]


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


# sha256 of the `classify-links` stdout on each built graph, taken with
# the candidate loop that tried every degree-class permutation
PINNED_LABELS = {
    ("build", "--n", "45", "--ell", "5", "--m", "63", "--seed", "1"):
        "75600e20eef0a594a83c0139f7314dd935ceed7bb1d1c4eab6e45e0bb6e7abf1",
    ("build", "--n", "60", "--ell", "5", "--m", "100"):
        "c9ceef03da52170ce81c8490ee01cb1731d3bc1d95a40d3078fe41c1965f8c48",
    ("gadget", "--name", "lantern", "--ell", "5"):
        "b6a52334d44c7ec3dcc2d78d32ccaa7bc2c5477377e55f850306705d08c240a9",
}


@pytest.mark.parametrize("argv, digest", PINNED_LABELS.items(), ids=["n45", "n60", "lantern5"])
def test_classify_links_labels_are_pinned(tmp_path, capsys, argv, digest):
    path = tmp_path / "g.h3"
    assert run(*argv, "-o", str(path), "--quiet") == 0
    capsys.readouterr()
    assert run("classify-links", str(path)) == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_classify_links_reads_the_link_pass(tmp_path, monkeypatch, capsys):
    # every link comes from one LinkPass over the graph; a link built by
    # its own scan of the edges makes the command quadratic in n
    path = tmp_path / "w.h3"
    assert run("build", "--n", "45", "--ell", "5", "--m", "63", "--seed", "1",
               "-o", str(path), "--quiet") == 0
    g = read_h3(path.read_text())
    links = [hypercore.link(g, v) for v in range(g.vertex_count)]
    want = "".join(f"vertex {l.center}: {checker.classify_link_5(l.pairs)}\n"
                   for l in links if len(l.neighbors) >= 5)

    def scan(*args):
        raise RuntimeError("classify-links built a link by scanning the edges")

    # checker binds its own name for link; neither may be called
    monkeypatch.setattr(hypercore, "link", scan)
    monkeypatch.setattr(checker, "link", scan)
    assert run("classify-links", str(path)) == 0
    assert want and capsys.readouterr().out == want


def test_block_of_the_wrong_size_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # a clique block one isolated vertex too large still certifies, so
    # only the build's size check keeps the 12-vertex graph unwritten
    clique3 = gadgets.clique3
    monkeypatch.setattr(gadgets, "clique3", lambda s: hypercore.disjoint_union(
        clique3(s), Hypergraph3(1, ())))
    out = tmp_path / "gap.h3"
    assert run("build", "--n", "10", "--ell", "5", "--m", "20",
               "-o", str(out), "--quiet") == 8
    assert not out.exists()
    assert "block K_5" in capsys.readouterr().err


def _no_umask(mask):
    raise AssertionError("a write read or set the process umask")


def test_artifacts_follow_the_umask(tmp_path, monkeypatch):
    # the mode comes from open() under the umask, so a write never calls os.umask
    umask = os.umask(0o022)
    try:
        for folder in (tmp_path / "a", tmp_path / "b"):
            folder.mkdir()
            out, rep = folder / "w.h3", folder / "rep.json"
            assert run("build", "--n", "45", "--ell", "5", "--m", "63", "--seed", "1",
                       "-o", str(out), "--report", str(rep), "--quiet") == 0
            assert out.stat().st_mode & 0o777 == rep.stat().st_mode & 0o777 == 0o644
            assert sorted(f.name for f in folder.iterdir()) == ["rep.json", "w.h3"]
            monkeypatch.setattr(os, "umask", _no_umask)  # for the second build
    finally:
        monkeypatch.undo()
        os.umask(umask)


def test_unwritable_report_names_the_requested_path(tmp_path, capsys):
    k5 = tmp_path / "k5.h3"
    k5.write_text(write_h3(Hypergraph3(5, tuple(combinations(range(5), 3)))))
    rep = tmp_path / "missing" / "r.json"
    assert run("verify", str(k5), "--ell", "3", "--report", str(rep)) == 4
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{rep}'\n"
    assert not (tmp_path / "missing").exists()


def test_no_partial_artifact_after_infeasible_build(tmp_path):
    out = tmp_path / "none.h3"
    assert run("build", "--n", "45", "--ell", "5", "--m", "88",
               "-o", str(out), "--quiet") == 6
    assert not out.exists()


def test_uncertified_build_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(checker, "is_saturated", _uncertified)
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
