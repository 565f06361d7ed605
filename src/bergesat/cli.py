"""Command-line entry points for building, checking, and surveying witnesses.

Exit codes are part of the interface and are kept apart deliberately:

    0  success (for verify: the input is saturated)
    2  free but not saturated (build: certification failed, nothing written)
    3  verify only: not free
    4  bad arguments, unreadable input, or malformed graph file
    5  sampler budget exhausted before a simple linear graph appeared
    6  provably infeasible edge count (below the minimum, or inside the
       clique-count gap just under 2n)
    7  edge count outside the supported planning ranges
    8  internal error: an invariant of the program failed (a bug)

Artifacts are written atomically (temp file in the target directory,
then rename), so a crashed run never leaves a half-written graph behind.
Every randomized command echoes the effective seed on its summary line.
"""

import argparse
import json
import os
import sys
import tempfile

from . import assembler, checker, confmodel, gadgets, hypercore, oracle

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
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_graph(path, g, fmt):
    text = hypercore.write_json(g) if fmt == "json" else hypercore.write_h3(g)
    _atomic_write(path, text)


def _read_graph(path):
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return hypercore.read_json(text)
    return hypercore.read_h3(text)


def _write_report(args, obj):
    if getattr(args, "report", None):
        _atomic_write(args.report, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _verdict_exit(verdict):
    if verdict.status in (assembler.BELOW_SAT, assembler.BY_THEOREM):
        return _EXIT_INFEASIBLE
    return _EXIT_UNSUPPORTED


def _cmd_build(args):
    verdict, g = assembler.build_spectrum_witness(
        args.n, args.ell, args.m, seed=args.seed, n0=args.n0,
        max_tries=args.max_tries,
    )
    report = {
        "n": args.n, "ell": args.ell, "m": args.m, "seed": args.seed,
        "status": verdict.status, "rule": verdict.detail,
    }
    if g is None:
        _say(args, f"build n={args.n} ell={args.ell} m={args.m}: "
                   f"{verdict.status} ({verdict.detail})")
        _write_report(args, report)
        return _verdict_exit(verdict)
    rep = checker.is_saturated(g, args.ell)
    certified = rep.is_saturated and rep.is_free
    if args.out and certified:
        _write_graph(args.out, g, args.format)
    report["edges"] = len(g.edges)
    report["verified_saturated"] = certified
    if verdict.plan is not None:
        report["plan"] = {k: v for k, v in vars(verdict.plan).items()}
    _write_report(args, report)
    dest = args.out if args.out and certified else "(not written)"
    _say(args, f"build n={args.n} ell={args.ell} m={args.m} seed={args.seed}: "
               f"{len(g.edges)} edges, saturated={certified}, "
               f"out={dest}")
    if not certified:
        return _EXIT_UNSATURATED
    return _EXIT_OK


def _cmd_verify(args):
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


def _theory_label(verdict):
    """(status, rule) of one planner verdict, the key that runs share."""
    plan = verdict.plan
    if isinstance(plan, assembler.Exact5Plan):
        if plan.m_star == 0:
            return "feasible", "disjoint 5-cliques"
        return "feasible", "exact-fifth-zone gadget unions"
    if plan is not None:
        if plan.sampler_refusal() is not None:
            return ("sampler-refused",
                    "clique-split plan whose core degree spec no simple linear "
                    "3-graph realizes (too few active vertices or edges); exit 5")
        return ("feasible",
                "clique-split lower-range plan; past ell(ell-1)n/12 each witness "
                "is vouched for by certification only")
    if verdict.status == assembler.BY_THEOREM:
        return "infeasible", "clique-count gap just under the maximum"
    return ("unsupported",
            "no clique split with an admissible residue and core degree spec; exit 7")


def _theory_ranges(n, ell):
    """Maximal runs of m in [0, ex] that share the planner's verdict,
    with the rule behind each."""
    ranges = []
    if ell <= 4:
        ms = sorted(assembler.small_star_spectrum(n, ell))
        ranges.append({"m": ms, "status": "feasible",
                       "rule": "small-star direct constructions"})
        return ranges
    sat, _ = assembler.sat_formula(n, ell)
    ex, _ = assembler.ex_formula(n, ell)
    ranges.append({"lo": 0, "hi": sat - 1, "status": "infeasible",
                   "rule": "below the saturation minimum"})
    key = None
    for m in range(sat, ex + 1):
        label = _theory_label(assembler.plan_witness(n, ell, m))
        if label == key:
            ranges[-1]["hi"] = m
        else:
            key = label
            ranges.append({"lo": m, "hi": m, "status": label[0], "rule": label[1]})
    return ranges


def _cmd_spectrum(args):
    if args.exhaustive:
        res = oracle.exhaustive_spectrum(
            args.n, args.ell, allow_large=args.allow_n7,
            shards=args.shards, shard=args.shard,
        )
        obj = {
            "n": res.n, "ell": res.ell, "realizable": list(res.realizable),
            "counts": {str(m): c for m, c in sorted((res.counts or {}).items())},
            "sat_observed": res.sat_observed, "ex_observed": res.ex_observed,
            "shards": args.shards, "shard": args.shard,
        }
        print(json.dumps(obj, indent=2))
        _write_report(args, obj)
        return _EXIT_OK
    obj = {"n": args.n, "ell": args.ell, "ranges": _theory_ranges(args.n, args.ell)}
    if args.ell >= 2:
        sat, argmin = assembler.sat_formula(args.n, args.ell)
        obj["sat"] = sat
        obj["sat_clique_sizes"] = sorted(argmin)
        ex, kind = assembler.ex_formula(args.n, args.ell)
        obj["ex"] = ex
        obj["ex_kind"] = kind
    print(json.dumps(obj, indent=2))
    _write_report(args, obj)
    return _EXIT_OK


def _cmd_sample_config(args):
    g, stats = confmodel.sample_linear(
        args.n, args.ell, args.k, seed=args.seed, max_tries=args.max_tries,
    )
    print(json.dumps(vars(stats), sort_keys=True), file=sys.stderr)
    if args.out:
        _write_graph(args.out, g, args.format)
    _say(args, f"sample-config n={args.n} ell={args.ell} k={args.k} "
               f"seed={args.seed}: {len(g.edges)} edges in {stats.tries} tries")
    return _EXIT_OK


_GADGET_NAMES = (
    "lantern", "sun", "clique", "broken-lantern", "gadget-d", "gadget-q",
    "gadget-r", "l4-sparse",
)


def _make_gadget(args):
    name = args.name
    if name == "lantern":
        return gadgets.lantern(args.ell)
    if name == "sun":
        return gadgets.sun(args.ell)
    if name == "clique":
        return gadgets.clique3(args.n if args.n is not None else args.ell)
    if name == "broken-lantern":
        return gadgets.broken_lantern()
    if name == "gadget-d":
        return gadgets.gadget_D()
    if name == "gadget-q":
        return gadgets.gadget_Q()
    if name == "gadget-r":
        return gadgets.gadget_R()
    if name == "l4-sparse":
        if args.n is None:
            raise ValueError("l4-sparse needs --n")
        return gadgets.l4_sparse(args.n, seed=args.seed)
    raise ValueError(f"unknown gadget {name!r}")


def _cmd_gadget(args):
    g = _make_gadget(args)
    if args.out:
        _write_graph(args.out, g, args.format)
    _say(args, f"gadget {args.name}: {g.vertex_count} vertices, "
               f"{len(g.edges)} edges, out={args.out or '(not written)'}")
    return _EXIT_OK


def _cmd_classify_links(args):
    if args.enumerate:
        rep = oracle.enumerate_link_catalog()
        width = {c.name: c.vertices for c in rep.classes if c.name}
        print(f"{'shape':10s} {'|N|':>4s} {'bound':>6s} {'published':>10s}")
        for i, name in enumerate(rep.row_names):
            flag = "" if rep.computed_bounds[i] == rep.published_bounds[i] else "  *"
            print(f"{name:10s} {width[name]:>4d} "
                  f"{rep.computed_bounds[i]:>6d} {rep.published_bounds[i]:>10d}{flag}")
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
    if not args.graph:
        raise ValueError("classify-links needs a graph file or --enumerate")
    g = _read_graph(args.graph)
    index = hypercore.incidence_index(g)
    rows = []
    for v in range(g.vertex_count):
        l = hypercore.link(g, v, index)
        if len(l.neighbors) < 5:
            continue
        rows.append((v, checker.classify_link_5(g, v)))
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

    def common(p, out_default=None):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("h3", "json"), default="h3")
        p.add_argument("--report", help="also write a JSON report here")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("-o", "--out", default=out_default,
                       help="output graph file")

    p = sub.add_parser("build", help="construct a witness for (n, ell, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n0", type=int, default=None,
                   help="ignored: the one clique-split planner needs no block "
                        "size; accepted so that older command lines still run")
    p.add_argument("--max-tries", type=int, default=10_000_000)
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check a graph file for saturation")
    p.add_argument("graph")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--full-scan", action="store_true",
                   help="test every absent triple, not just the fast path")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="predicted or exhaustively observed spectra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theory", action="store_true")
    mode.add_argument("--exhaustive", action="store_true")
    p.add_argument("--allow-n7", action="store_true",
                   help="permit the expensive n=7 exhaustive sweep")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sample-config", help="sample one simple linear 3-graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=10_000_000)
    common(p)
    p.set_defaults(func=_cmd_sample_config)

    p = sub.add_parser("gadget", help="emit a named gadget graph")
    p.add_argument("--name", choices=_GADGET_NAMES, required=True)
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--n", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("classify-links", help="link catalog and per-vertex classes")
    p.add_argument("graph", nargs="?")
    p.add_argument("--enumerate", action="store_true",
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
    try:
        return args.func(args)
    except confmodel.SamplerBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BUDGET
    except (ValueError, hypercore.FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except hypercore.InternalError as e:
        print(f"error: internal error: {e}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
