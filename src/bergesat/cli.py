"""Command-line entry points for building, checking, and surveying witnesses.

Exit codes are part of the interface and are kept apart deliberately:

    0  success (for verify: the input is saturated)
    2  free but not saturated (build: certification failed, nothing written)
    3  verify only: not free
    4  bad arguments (build, sample-config, spectrum and gadget cap --n
       at 2^20, as the readers do; build and sample-config refuse
       --max-tries below 1; build caps --m at 2^22 before planning,
       sample-config a degree spec at 2^22 edges, and gadget --name
       clique, lantern and sun at 2^22 triples;
       spectrum --exhaustive refuses n >= 8, and spectrum --theory more
       than 2^17 values of m from sat to ex),
       unreadable input, or malformed graph file
    5  sampler budget exhausted before a simple linear graph appeared
       (build still writes its --report, with status "sampler_budget")
    6  provably infeasible edge count: below sat, inside the gap just
       under 2n, or off the closed-form spectrum (ell <= 4 or n <= ell)
    7  edge count outside the planned ranges, or too few vertices for its construction
    8  internal error: an invariant of the program failed (a bug)

Artifacts are written atomically (temp file in the target directory,
then rename), so a crashed run never leaves a half-written graph behind.
Every randomized command echoes the effective seed on its summary line.
Files are read and written as UTF-8, whatever the locale.  The cyclic
garbage collector is off while a command runs: the package's data is acyclic.

As the process entry (`python -m bergesat.cli` or the `bergesat` script,
the only callers that pass no argv), main ends with gc.freeze(): shutdown
then skips its last collections over every module's reference cycles,
about 7 ms a command, while atexit handlers and the stdio flush still run.
A caller of main([...]) keeps its collector unfrozen.
"""

import argparse
import gc
from itertools import chain
import json
from math import comb
import os
import sys
import tempfile

# each command imports the layers it runs, so none pays for the others
from . import hypercore

_EXIT_OK = 0
_EXIT_UNSATURATED = 2
_EXIT_NOT_FREE = 3
_EXIT_USAGE = 4
_EXIT_BUDGET = 5
_EXIT_INFEASIBLE = 6
_EXIT_UNSUPPORTED = 7
_EXIT_INTERNAL = 8


def _say(args, text):
    if not args.quiet:
        print(text)


def _atomic_write(path, text):
    folder = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".part")
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_graph(path, g, fmt):
    text = hypercore.write_json(g) if fmt == "json" else hypercore.write_h3(g)
    _atomic_write(path, text)


def _read_graph(path):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return hypercore.read_json(text)
    return hypercore.read_h3(text)


def _write_report(args, obj):
    if args.report:
        _atomic_write(args.report, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _check_n(args):
    if args.n > hypercore.MAX_VERTICES:
        raise ValueError(f"--n {args.n} exceeds the vertex limit {hypercore.MAX_VERTICES}")


def _cmd_build(args):
    from . import assembler, checker

    _check_n(args)
    if args.m > hypercore.MAX_EDGES:
        raise ValueError(f"--m {args.m} exceeds the edge limit {hypercore.MAX_EDGES}")
    report = {"n": args.n, "ell": args.ell, "m": args.m, "seed": args.seed}
    try:
        verdict, g = assembler.build_spectrum_witness(
            args.n, args.ell, args.m, seed=args.seed,
            max_tries=args.max_tries,
        )
    except hypercore.SamplerBudgetError as exc:
        report.update(status="sampler_budget", rule=str(exc), stats=vars(exc.stats))
        _write_report(args, report)
        raise
    report.update(status=verdict.status, rule=verdict.detail)
    if g is None:
        _say(args, f"build n={args.n} ell={args.ell} m={args.m}: "
                   f"{verdict.status} ({verdict.detail})")
        _write_report(args, report)
        infeasible = verdict.status in (assembler.BELOW_SAT, assembler.BY_THEOREM)
        return _EXIT_INFEASIBLE if infeasible else _EXIT_UNSUPPORTED
    rep = checker.is_saturated(g, args.ell)
    certified = rep.is_saturated  # False whenever g is not free
    if args.out and certified:
        _write_graph(args.out, g, args.format)
    report["edges"] = len(g.edges)
    report["verified_saturated"] = certified
    report["plan"] = [{"name": b.name, "vertices": b.vertices, "edges": b.edges,
                       "nonfull": b.nonfull, "copies": copies}
                      for b, copies in verdict.plan]
    _write_report(args, report)
    dest = args.out if args.out and certified else "(not written)"
    _say(args, f"build n={args.n} ell={args.ell} m={args.m} seed={args.seed}: "
               f"{len(g.edges)} edges, saturated={certified}, "
               f"out={dest}")
    if not certified:
        return _EXIT_UNSATURATED
    return _EXIT_OK


def _cmd_verify(args):
    from . import checker

    g = _read_graph(args.graph)
    rep = checker.is_saturated(g, args.ell, full_scan=args.full_scan)
    _write_report(args, rep.to_json())
    if not rep.is_free:
        _say(args, f"verify {args.graph}: not free (a Berge degree reaches "
                   f"{max(rep.berge_degrees)})")
        return _EXIT_NOT_FREE
    if not rep.is_saturated:
        _say(args, f"verify {args.graph}: free but unsaturated "
                   f"(counterexample triple {rep.counterexample})")
        return _EXIT_UNSATURATED
    _say(args, f"verify {args.graph}: saturated at ell={args.ell} "
               f"({g.vertex_count} vertices, {len(g.edges)} edges)")
    return _EXIT_OK


def _cmd_spectrum(args):
    _check_n(args)
    if args.exhaustive:
        from . import oracle

        res = oracle.exhaustive_spectrum(args.n, args.ell)
        obj = {
            "n": res.n, "ell": res.ell, "realizable": list(res.realizable),
            "counts": {str(m): c for m, c in sorted(res.counts.items())},
            "sat_observed": res.sat_observed, "ex_observed": res.ex_observed,
        }
    else:
        from . import assembler

        obj = {"n": args.n, "ell": args.ell, "ranges": assembler.spectrum_runs(args.n, args.ell)}
        if args.ell >= 2:
            sat, argmin = assembler.sat_formula(args.n, args.ell)
            obj.update(sat=sat, sat_clique_sizes=sorted(argmin))
            obj["ex"], obj["ex_kind"] = assembler.ex_formula(args.n, args.ell)
    print(json.dumps(obj, indent=2))
    _write_report(args, obj)
    return _EXIT_OK


def _cmd_sample_config(args):
    from . import confmodel

    _check_n(args)
    edges = confmodel.degree_spec(args.n, args.ell, args.k).edge_count
    if edges > hypercore.MAX_EDGES:
        raise ValueError(f"d(n={args.n}, ell={args.ell}, k={args.k}) has {edges} edges, "
                         f"above the edge limit {hypercore.MAX_EDGES}")
    g, stats, _ = confmodel.sample_linear(
        args.n, args.ell, args.k, seed=args.seed, max_tries=args.max_tries,
    )
    print(json.dumps(vars(stats), sort_keys=True), file=sys.stderr)
    if args.out:
        _write_graph(args.out, g, args.format)
    _write_report(args, {"n": args.n, "ell": args.ell, "k": args.k, "seed": args.seed,
                         "edges": len(g.edges), "stats": vars(stats)})
    _say(args, f"sample-config n={args.n} ell={args.ell} k={args.k} "
               f"seed={args.seed}: {len(g.edges)} edges in {stats.tries} tries")
    return _EXIT_OK


def _given_n(args):
    if args.n is None:
        raise ValueError(f"{args.name} needs --n")
    return args.n


def _clique_size(args):
    return args.n if args.n is not None else args.ell


# the triples of each gadget that grows with its arguments, refused above
# the edge limit before anything is built; lantern and sun refuse ell < 5
_TRIPLES = {
    "clique": lambda a: comb(max(_clique_size(a), 0), 3),
    "lantern": lambda a: 2 + 3 * (comb(a.ell - 2, 2) + comb(a.ell - 1, 3)) if a.ell >= 5 else 0,
    "sun": lambda a: (a.ell - 1) * (a.ell - 3) if a.ell >= 5 else 0,
}

# name -> constructor of (the gadgets module, the parsed arguments); each
# looks its gadget up in the module when called
_GADGETS = {
    "lantern": lambda m, a: m.lantern(a.ell),
    "sun": lambda m, a: m.sun(a.ell),
    "clique": lambda m, a: m.clique3(_clique_size(a)),
    "broken-lantern": lambda m, a: m.broken_lantern(),
    "gadget-d": lambda m, a: m.gadget_D(),
    "gadget-q": lambda m, a: m.gadget_Q(),
    "gadget-r": lambda m, a: m.gadget_R(),
    "l4-sparse": lambda m, a: m.l4_sparse(_given_n(a), seed=a.seed),
}


def _cmd_gadget(args):
    from . import gadgets

    if args.n is not None:
        _check_n(args)
    triples = _TRIPLES[args.name](args) if args.name in _TRIPLES else 0
    if triples > hypercore.MAX_EDGES:
        raise ValueError(f"{args.name} gadget has {triples} triples, "
                         f"above the edge limit {hypercore.MAX_EDGES}")
    g = _GADGETS[args.name](gadgets, args)
    if args.out:
        _write_graph(args.out, g, args.format)
    _write_report(args, {"name": args.name, "vertices": g.vertex_count, "edges": len(g.edges)})
    _say(args, f"gadget {args.name}: {g.vertex_count} vertices, "
               f"{len(g.edges)} edges, out={args.out or '(not written)'}")
    return _EXIT_OK


def _cmd_classify_links(args):
    if args.enumerate:
        from . import oracle

        rep = oracle.enumerate_link_catalog()
        width = {c.name: c.vertices for c in rep.classes if c.name}
        print(f"{'shape':10s} {'|N|':>4s} {'bound':>6s} {'published':>10s}")
        for name, bound, published in zip(rep.row_names, rep.computed_bounds,
                                          rep.published_bounds):
            flag = "  *" if name in rep.discrepancies else ""
            print(f"{name:10s} {width[name]:>4d} {bound:>6d} {published:>10d}{flag}")
        sizes = {s: len(v) for s, v in sorted(rep.strata.items(), reverse=True)}
        print(f"strata sizes by |N|: {sizes}")
        if rep.discrepancies:
            print(f"rows where the recomputed bound differs: "
                  f"{', '.join(rep.discrepancies)}")
        _write_report(args, {
            "row_names": list(rep.row_names),
            "computed_bounds": list(rep.computed_bounds),
            "published_bounds": list(rep.published_bounds),
            "discrepancies": list(rep.discrepancies),
            "strata_sizes": sizes,
        })
        return _EXIT_OK
    from . import checker

    g = _read_graph(args.graph)
    lp = hypercore.LinkPass(g.vertex_count, g.edges)
    rows = [(v, checker.classify_link_5(ps)) for v in range(g.vertex_count)
            if len(set(chain.from_iterable(ps := lp.pairs(v)))) >= 5]
    for v, label in rows:
        print(f"vertex {v}: {label}")
    _write_report(args, {"classes": {str(v): label for v, label in rows}})
    return _EXIT_OK


def _build_parser():
    top = argparse.ArgumentParser(
        prog="bergesat",
        description="Construct, check, and survey saturated 3-graph witnesses.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, writes_graph=False):
        if writes_graph:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--format", choices=("h3", "json"), default="h3")
            p.add_argument("-o", "--out", help="output graph file")
        p.add_argument("--report", help="also write a JSON report here")
        p.add_argument("--quiet", action="store_true",
                       help="no summary line (spectrum and classify-links print their result)")

    p = sub.add_parser("build", help="construct a witness for (n, ell, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n0", type=int, default=None,
                   help="ignored: the one clique-split planner needs no block "
                        "size; accepted so that older command lines still run")
    p.add_argument("--max-tries", type=int, default=hypercore.DEFAULT_MAX_TRIES)
    common(p, writes_graph=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check a graph file for saturation")
    p.add_argument("graph")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--full-scan", action="store_true",
                   help="test every absent triple, not just the fast path")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="planned or exhaustively observed spectra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theory", action="store_true",
                      help="the planner's verdicts, as runs of m")
    mode.add_argument("--exhaustive", action="store_true",
                      help="sweep every graph on n <= 7 vertices")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sample-config", help="sample one simple linear 3-graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=hypercore.DEFAULT_MAX_TRIES)
    common(p, writes_graph=True)
    p.set_defaults(func=_cmd_sample_config)

    p = sub.add_parser("gadget", help="emit a named gadget graph")
    p.add_argument("--name", choices=_GADGETS, required=True)
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--n", type=int, default=None)
    common(p, writes_graph=True)
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("classify-links", help="link catalog and per-vertex classes")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("graph", nargs="?")
    mode.add_argument("--enumerate", action="store_true",
                      help="print the full catalog with bounds")
    common(p)
    p.set_defaults(func=_cmd_classify_links)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold into the documented code
        if e.code not in (0, None):
            return _EXIT_USAGE
        return 0
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return args.func(args)
    except hypercore.SamplerBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BUDGET
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except hypercore.InternalError as e:
        print(f"error: internal error: {e}", file=sys.stderr)
        return _EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()
        if argv is None:  # the process entry: see the module docstring
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
