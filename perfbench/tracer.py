"""Run one bergesat CLI command in this process, with spans around each layer.

Usage: python perfbench/tracer.py OUT CLI_ARG...

Imports `bergesat.cli` (timing the import), wraps public functions at
the module bindings their callers use, calls `bergesat.cli.main(argv)`
and exits with its return code.  No private name is patched.  Spans
(name, parent, start, end) stay in memory until the command ends; then
OUT receives a JSON header (span names, counters, span count) and
OUT.spans the span table as raw arrays:

    int32 name[count], int32 parent[count], float64 start[count],
    float64 end[count]

Counters are derived from the wrapped calls' arguments and return
values, never from program internals.
"""

from array import array
from math import comb
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrapped(self, span, fn, after=None):
        """fn, recording one span per call and then passing
        (result, args, kwargs) to `after`."""
        sid = self.name_ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, module, attr, span, after=None):
        setattr(module, attr, self.wrapped(span, getattr(module, attr), after))

    def dump(self, path, extra):
        header = dict(extra, names=self.names, count=len(self.start),
                      counters=self.counters)
        with open(path, "w") as fh:
            json.dump(header, fh)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def lex_rank(i, j, k, p):
    """Position of the index triple i < j < k in lexicographic
    itertools.combinations(range(p), 3) order."""
    return (comb(p, 3) - comb(p - i, 3) + comb(p - i - 1, 2) - comb(p - j, 2)
            + (k - j - 1))


def scan_counts(g, rep, full_scan):
    """(pool size, absent triples tested) of one saturation scan, from the
    graph, the pool and the first counterexample."""
    if not rep.is_free:
        return 0, 0
    pool = range(g.vertex_count) if full_scan else rep.aggressive.untagged()
    p = len(pool)
    pos = {v: i for i, v in enumerate(pool)}
    if rep.counterexample is None:
        stop = comb(p, 3)
    else:
        stop = lex_rank(*(pos[v] for v in rep.counterexample), p)
    present = sum(1 for e in g.edges
                  if all(v in pos for v in e) and lex_rank(*(pos[v] for v in e), p) < stop)
    visited = stop if rep.counterexample is None else stop + 1
    return p, visited - present


def install(tracer):
    from bergesat import (assembler, checker, confmodel, gadgets, hypercore,
                          oracle, twographs)
    t = tracer
    t.wrap(assembler, "build_spectrum_witness", "assembler.build")
    for attr in ("plan_lower", "plan_exact5", "plan_upper"):
        t.wrap(assembler, attr, "assembler.plan")

    memo_keys = set()

    def sampled(result, args, kwargs):
        key = repr((args, sorted(kwargs.items())))
        if key in memo_keys:
            t.count("confmodel.memo_hits")
        memo_keys.add(key)
        st = result[1]
        t.count("confmodel.tries", st.tries)
        t.count("confmodel.repair_rounds", st.repair_rounds)
        t.count("confmodel.pair_rejects", st.pair_rejects)
        t.count("confmodel.defects_seen",
                st.loops_seen + st.overlaps_seen + st.lowadj_seen)
        # no builder passes repair=False, so the other route is the search
        t.count("confmodel.route_repair" if st.repaired else "confmodel.route_dfs")

    t.wrap(confmodel, "sample_linear", "confmodel.sample", sampled)
    t.wrap(confmodel, "find_disjoint_edge_pair", "confmodel.pair_search")

    for attr in ("clique3", "lantern", "sun", "broken_lantern", "gadget_D",
                 "gadget_Q", "gadget_R", "l4_sparse"):
        t.wrap(gadgets, attr, "gadgets.build")

    def made(result, args, kwargs):
        t.count("hypercore.edges_made", len(result.edges))

    for module in (assembler, gadgets):
        t.wrap(module, "make", "hypercore.make", made)

    def read(result, args, kwargs):
        t.count("hypercore.bytes_read", len(args[0].encode()))

    def written(result, args, kwargs):
        t.count("hypercore.bytes_written", len(result.encode()))

    for attr in ("read_h3", "read_json"):
        t.wrap(hypercore, attr, "hypercore.read", read)
    for attr in ("write_h3", "write_json"):
        t.wrap(hypercore, attr, "hypercore.write", written)

    def verified(rep, args, kwargs):
        g = args[0]
        full = kwargs.get("full_scan", args[2] if len(args) > 2 else False)
        pool, scanned = scan_counts(g, rep, full)
        t.count("checker.pool_size", pool)
        t.count("checker.triples_scanned", scanned)
        t.count("checker.tagged", sum(1 for x in rep.aggressive.tags if x is not None))
        t.count("checker.vertices", g.vertex_count)

    t.wrap(checker, "is_saturated", "checker.verify", verified)
    t.wrap(checker, "link", "checker.link")
    t.wrap(checker, "tree_components", "checker.tree_test")
    t.wrap(checker, "classify_link_5", "checker.classify")

    def swept(result, args, kwargs):
        n = args[0]
        shards = kwargs.get("shards", 1)
        shard = kwargs.get("shard", 0)
        total = 1 << comb(n, 3)
        t.count("oracle.masks_swept",
                total * (shard + 1) // shards - total * shard // shards)
        t.count("oracle.saturated_found", sum((result.counts or {}).values()))

    t.wrap(oracle, "enumerate_link_catalog", "oracle.catalog")
    t.wrap(oracle, "exhaustive_spectrum", "oracle.exhaustive", swept)

    classes = set()

    def canonical(result, args, kwargs):
        classes.add(result)
        t.counters["twographs.classes"] = len(classes)

    t.wrap(twographs, "canonical_connected", "twographs.canonical_connected", canonical)
    t.wrap(twographs, "canonical_form", "twographs.canonical_form")
    t.wrap(twographs, "components", "twographs.components")


def main(argv):
    out, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from bergesat import cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = tracer.wrapped("cli", cli.main)(cli_args)
    sys.stdout.flush()
    tracer.dump(out, {"import_s": import_s, "exit": code})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
