"""The benchmark's workloads: command lists, untimed set-up and output checks.

Each workload turns a workload seed into a fixed list of `bergesat`
command lines.  The program sees only those command lines; the seed
picks the program seeds (and, for `enumerate`, the witness edge count).
Every command carries

* the exit code it must return,
* a cheap `check` run after every repetition (headers, edge counts,
  report fields, expected verdicts), and
* an `audit` run once after timing, which re-derives Berge degrees with
  the matching route in `bergesat.oracle` and never calls `checker`,
  the layer the benchmark also measures.

The outputs named in `Command.outputs`, together with stdout, must be
byte-identical across the repetitions of one run: identical command
lines promise identical artifacts.
"""

from collections import namedtuple
from dataclasses import dataclass, field
import json
import random

# the shape oracle.berge_degree_matching reads; parsed here, independently
# of hypercore's reader
Graph = namedtuple("Graph", "vertex_count edges")

# Each workload marks one fixed slow case as its probe.  The build probe
# (m = 74 at n = 45) always runs at the CLI's default seed, so its work
# is identical on every run: its time varies about tenfold between
# program seeds (2.4 to 24 s for seeds 0-4).
PINNED_SEED = 0

# named link shapes a vertex with five or more link neighbours can have
# in a Berge-K_{1,5}-free graph
LINK_SHAPES_5 = frozenset((
    "4K2", "2K2+P3", "3K2", "K2+K1,3", "K2+P4", "2P3", "K2+K3", "K2+P3",
    "P5", "K1,4", "T0",
))

# (realizable edge counts, saturated labeled graphs) per (n, ell), as
# bergesat 0.1.0's exhaustive sweep finds them
EXHAUSTIVE = {
    (5, 3): ((3,), 30),
    (5, 4): ((4, 5), 87),
    (6, 2): ((2,), 10),
    (6, 3): ((3, 4), 255),
    (6, 4): ((4, 5, 6), 2157),
    (6, 5): ((6, 7, 8, 10), 9786),
}

CATALOG_STRATA = {"8": 1, "7": 1, "6": 4, "5": 5}
CATALOG_DISCREPANCIES = ["K2+K1,3"]


@dataclass
class Command:
    key: str
    argv: list
    expect_exit: int = 0
    outputs: tuple = ()
    check: object = None   # fn(outcome) -> list of problems
    audit: object = None   # fn(oracle module) -> list of problems
    info: dict = field(default_factory=dict)
    probe: bool = False    # the workload's fixed slow case, reported as cmd_max_s


def read_graph(path):
    """Parse a .h3 file; returns (Graph, problems)."""
    lines = [s for s in path.read_text().split("\n")
             if s.strip() and not s.startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != "h3":
        return None, [f"{path.name}: bad header {lines[:1]}"]
    n, m = int(head[1]), int(head[2])
    edges = tuple(tuple(int(x) for x in s.split()) for s in lines[1:])
    problems = []
    if len(edges) != m:
        problems.append(f"{path.name}: header says {m} edges, file has {len(edges)}")
    return Graph(n, edges), problems


def _neighbours(g):
    nb = [set() for _ in range(g.vertex_count)]
    for a, b, c in g.edges:
        nb[a].update((b, c))
        nb[b].update((a, c))
        nb[c].update((a, b))
    return nb


def _sample_vertices(g, count=48):
    if g.vertex_count <= 120:
        return range(g.vertex_count)
    return sorted(random.Random(g.vertex_count).sample(range(g.vertex_count), count))


def _with_edge(g, e):
    return Graph(g.vertex_count, g.edges + (e,))


def _creates_star(oracle, g, e, ell):
    """Does adding the absent triple e lift a vertex of e to Berge degree ell?"""
    h = _with_edge(g, e)
    return any(oracle.berge_degree_matching(h, v) >= ell for v in e)


def audit_witness(oracle, path, ell):
    """Spot-check a saturated witness with the matching route: sampled
    vertices stay below ell, sampled absent triples create a star."""
    g, problems = read_graph(path)
    if g is None:
        return problems
    verts = list(_sample_vertices(g))
    for v in verts:
        d = oracle.berge_degree_matching(g, v)
        if d > ell - 1:
            problems.append(f"{path.name}: vertex {v} has Berge degree {d} >= {ell}")
    present = set(g.edges)
    rng = random.Random(len(g.edges))
    tried = 0
    for _ in range(400):
        if tried == 12:
            break
        e = tuple(sorted(rng.sample(verts, 3)))
        if e in present:
            continue
        tried += 1
        if not _creates_star(oracle, g, e, ell):
            problems.append(f"{path.name}: adding {e} creates no Berge K_1,{ell}")
    return problems


def _load_json(path, problems):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable report ({exc})")
        return None


# --- build ------------------------------------------------------------------

def _build_command(work, n, ell, m, seed, n0=None):
    out = work / f"b{n}_{m}.h3"
    rep = work / f"b{n}_{m}.json"
    argv = ["build", "--n", str(n), "--ell", str(ell), "--m", str(m),
            "--seed", str(seed)]
    if n0 is not None:
        argv += ["--n0", str(n0)]
    argv += ["-o", str(out), "--report", str(rep)]

    def check(outcome):
        g, problems = read_graph(out)
        if g is not None and g.vertex_count != n:
            problems.append(f"{out.name}: {g.vertex_count} vertices, wanted {n}")
        if g is not None and len(g.edges) != m:
            problems.append(f"{out.name}: {len(g.edges)} edges, wanted {m}")
        r = _load_json(rep, problems)
        if r is not None and not (r.get("status") == "ok" and r.get("edges") == m
                                  and r.get("verified_saturated") is True
                                  and r.get("seed") == seed):
            problems.append(f"{rep.name}: unexpected report {r}")
        return problems

    def audit(oracle):
        return audit_witness(oracle, out, ell)

    return Command(f"build n={n} l={ell} m={m} seed={seed}", argv,
                   outputs=(out,), check=check, audit=audit,
                   info={"n": n, "ell": ell, "m": m, "seed": seed, "path": out})


def build(work, seed, smoke=False):
    rng = random.Random(seed)
    grid = [(45, 5, m, None) for m in range(57, 76)]
    grid += [(120, 6, m, None) for m in (196, 248, 300)]
    grid += [(10008, 6, m, 72) for m in (25590, 25520)]
    if smoke:
        grid = [(45, 5, 57, None), (45, 5, 64, None), (120, 6, 196, None)]
    slow = (120, 6, 196) if smoke else (45, 5, 74)
    cmds = []
    for n, ell, m, n0 in grid:
        s = rng.randrange(1_000_000)
        probe = (n, ell, m) == slow
        cmds.append(_build_command(work, n, ell, m, PINNED_SEED if probe else s, n0))
        cmds[-1].probe = probe
    return [], lambda run_setup: cmds


# --- certify ----------------------------------------------------------------

def _verify_command(path, ell, full_scan, expect, counterexample=None):
    rep = path.with_suffix(".full.json" if full_scan else ".fast.json")
    argv = ["verify", str(path), "--ell", str(ell), "--report", str(rep)]
    if full_scan:
        argv.append("--full-scan")

    def check(outcome):
        problems = []
        r = _load_json(rep, problems)
        if r is None:
            return problems
        verdict = (r.get("is_free"), r.get("is_saturated"))
        want = {0: (True, True), 2: (True, False), 3: (False, False)}[expect]
        if verdict != want:
            problems.append(f"{rep.name}: verdict {verdict}, wanted {want}")
        ce = r.get("counterexample")
        if counterexample is not None and ce != counterexample:
            problems.append(f"{rep.name}: counterexample {ce}, the fast path "
                            f"gave {counterexample}")
        return problems

    def audit(oracle):
        """The reported Berge degrees and counterexample, re-derived."""
        problems = []
        g, more = read_graph(path)
        r = _load_json(rep, problems)
        if g is None or r is None:
            return problems + more
        dbs = r["berge_degrees"]
        for v in _sample_vertices(g):
            if dbs[v] != oracle.berge_degree_matching(g, v):
                problems.append(f"{rep.name}: Berge degree of {v} misreported")
        ce = r.get("counterexample")
        if expect == 2 and isinstance(ce, list):
            e = tuple(ce)
            if e in set(g.edges) or _creates_star(oracle, g, e, ell):
                problems.append(f"{rep.name}: {e} is no counterexample")
        if expect == 3 and isinstance(ce, int) and oracle.berge_degree_matching(g, ce) < ell:
            problems.append(f"{rep.name}: vertex {ce} does not reach {ell}")
        return problems

    scan = "full" if full_scan else "fast"
    return Command(f"verify {path.stem} {scan} (exit {expect})", argv, expect_exit=expect,
                   outputs=(rep,), check=check, audit=audit)


def certify(work, seed, smoke=False):
    """Set-up commands build the inputs; the timed commands verify them."""
    rng = random.Random(seed)
    if smoke:
        grid = [(60, 5, 100, None)]
    else:
        grid = [(10008, 6, 25590, 72), (10008, 6, 25520, 72),
                (120, 6, 196, None), (120, 6, 248, None), (120, 6, 300, None),
                (60, 5, 100, None), (60, 5, 110, None), (60, 5, 120, None)]
    builds = [_build_command(work, n, ell, m, rng.randrange(1_000_000), n0)
              for n, ell, m, n0 in grid]
    return builds, lambda run_setup: _certify_commands(work, builds, run_setup, smoke)


def _certify_commands(work, builds, run_setup, smoke):
    """Derive the rejected inputs from the built witnesses with public
    hypercore and gadgets functions, and list the timed verify commands.
    `run_setup(cmd)` runs one untimed command and raises if it fails."""
    from bergesat import gadgets, hypercore

    by_key = {(b.info["n"], b.info["m"]): b.info for b in builds}

    def load(key):
        return hypercore.read_h3(by_key[key]["path"].read_text())

    def derived(key, name, change):
        out = work / name
        out.write_text(hypercore.write_h3(change(load(key))))
        return out, by_key[key]["ell"]

    def minus_middle_edge(g):
        return hypercore.remove_edge(g, g.edges[len(g.edges) // 2])

    def plus_k7(g):
        return hypercore.disjoint_union(g, gadgets.clique3(7))

    # (input, ell, full scan?, expected exit)
    if smoke:
        mid = (60, 100)
        rejected = [derived(mid, "r60_100_minus.h3", minus_middle_edge) + (True, 2),
                    derived(mid, "r60_100_k7.h3", plus_k7) + (False, 3)]
    else:
        mid = (120, 248)
        rejected = [
            derived((10008, 25520), "r10008_25520_minus.h3", minus_middle_edge) + (False, 2),
            derived(mid, "r120_248_minus.h3", minus_middle_edge) + (True, 2),
            derived((10008, 25590), "r10008_25590_k7.h3", plus_k7) + (False, 3),
        ]

    # the fast path's counterexample, which every timed run must reproduce
    fast_ce = {}
    for p, ell, _, expect in rejected:
        if expect == 2:
            run_setup(_verify_command(p, ell, False, 2))
            fast_ce[p] = json.loads(p.with_suffix(".fast.json").read_text())["counterexample"]

    slow = (60, 100) if smoke else (120, 196)  # the probe: a full scan
    cmds = []
    for b in builds:
        key, ell = (b.info["n"], b.info["m"]), b.info["ell"]
        if key != mid or smoke:
            cmds.append(_verify_command(b.info["path"], ell, key[0] <= 120, 0))
            cmds[-1].probe = key == slow
    for p, ell, full, expect in rejected:
        cmds.append(_verify_command(p, ell, full, expect, counterexample=fast_ce.get(p)))
    return cmds


# --- enumerate --------------------------------------------------------------

def _catalog_command(work):
    rep = work / "catalog.json"

    def check(outcome):
        problems = []
        r = _load_json(rep, problems)
        if r is None:
            return problems
        if r["strata_sizes"] != CATALOG_STRATA:
            problems.append(f"catalog strata {r['strata_sizes']}")
        if r["discrepancies"] != CATALOG_DISCREPANCIES:
            problems.append(f"catalog discrepancies {r['discrepancies']}")
        differ = [name for name, c, p in zip(r["row_names"], r["computed_bounds"],
                                              r["published_bounds"]) if c != p]
        if differ != CATALOG_DISCREPANCIES:
            problems.append(f"catalog bound table differs on {differ}")
        return problems

    return Command("classify-links --enumerate",
                   ["classify-links", "--enumerate", "--report", str(rep)],
                   outputs=(rep,), check=check)


def _spectrum_command(work, n, ell):
    rep = work / f"spectrum{n}_{ell}.json"
    realizable, total = EXHAUSTIVE[(n, ell)]

    def check(outcome):
        try:
            r = json.loads(outcome.stdout)
        except ValueError:
            return [f"spectrum n={n} ell={ell}: stdout is not JSON"]
        got = (tuple(r["realizable"]), sum(r["counts"].values()))
        if got != (realizable, total):
            return [f"spectrum n={n} ell={ell}: {got}, wanted {(realizable, total)}"]
        return []

    return Command(f"spectrum --exhaustive n={n} l={ell}",
                   ["spectrum", "--exhaustive", "--n", str(n), "--ell", str(ell),
                    "--report", str(rep)],
                   outputs=(rep,), check=check)


def _classify_command(work, path):
    rep = work / "classes.json"

    def check(outcome):
        g, problems = read_graph(path)
        if g is None:
            return problems
        want = {v for v, nb in enumerate(_neighbours(g)) if len(nb) >= 5}
        rows = {}
        for line in outcome.stdout.splitlines():
            head, _, label = line.partition(": ")
            rows[int(head.split()[1])] = label
        if set(rows) != want:
            problems.append(f"classify-links lists {len(rows)} vertices, "
                            f"{len(want)} have five or more link neighbours")
        odd = sorted(set(rows.values()) - LINK_SHAPES_5)
        if odd:
            problems.append(f"classify-links labels outside the catalog: {odd}")
        return problems

    return Command(f"classify-links {path.name}",
                   ["classify-links", str(path), "--report", str(rep)],
                   outputs=(rep,), check=check)


def enumerate_(work, seed, smoke=False):
    rng = random.Random(seed)
    m = rng.choice(range(80, 101))  # lower range: sampled, many rich links
    witness = _build_command(work, 60, 5, m, rng.randrange(1_000_000))
    if smoke:
        cmds = [_spectrum_command(work, 5, ell) for ell in (3, 4)]
        cmds[0].probe = True
    else:
        cmds = [_catalog_command(work)]
        cmds[0].probe = True
        cmds += [_spectrum_command(work, 6, ell) for ell in (2, 3, 4, 5)]
    cmds.append(_classify_command(work, witness.info["path"]))
    return [witness], lambda run_setup: cmds


WORKLOADS = {"build": build, "certify": certify, "enumerate": enumerate_}
