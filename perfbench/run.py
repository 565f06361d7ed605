"""End-to-end and per-layer benchmark of the bergesat command-line tool.

    python3 perfbench/run.py --workload build --seed 0 --seconds 38 --trace 0

Run from the root of a source checkout.  Every timed command is a fresh
`python -m bergesat.cli ...` process with `src` on PYTHONPATH, one at a
time (a closed loop with one client), because `confmodel._memo` would
make repeated in-process builds free.  The command list of a workload
runs at least once; repeat passes follow until `--seconds` have passed.

--trace 0 reports the end-to-end metrics from each command's best time:
their sum (wall_s), their median (cmd_p50_s), the workload's fixed slow
case (cmd_max_s), the largest max-RSS of any command (peak_rss_mb) and
the median import time of a fresh process (setup_s).  Times are scaled
to a fixed machine speed gauged by perfbench/reference.py.  --trace 1
runs each command untraced and then under perfbench/tracer.py and
reports per-layer self times and counts plus the tracing overhead.
Every command's exit code and outputs are checked, and failures are
counted; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--workload all runs the three workloads in turn; --smoke shrinks every
workload to a tiny grid for a quick self-test.  See perfbench/README.md.
"""

import argparse
from array import array
from collections import namedtuple
import hashlib
import json
import math
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Untraced times are reported at the machine speed at which reference.py
# takes this long; see measure().
REFERENCE_S = 0.45
HARD_LIMIT_S = 170.0
SAMPLE_EVERY_S = 3.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_max_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s",
    "assembler.plan_s": "s", "assembler.build_self_s": "s",
    "confmodel.sample_s": "s", "confmodel.sample_calls": "count",
    "confmodel.tries": "count", "confmodel.repair_rounds": "count",
    "confmodel.pair_rejects": "count", "confmodel.defects_seen": "count",
    "confmodel.route_repair": "count", "confmodel.route_dfs": "count",
    "confmodel.memo_hits": "count", "confmodel.accept_ratio": "ratio",
    "confmodel.pair_search_s": "s",
    "gadgets.build_s": "s",
    "hypercore.make_s": "s", "hypercore.edges_made": "count",
    "hypercore.read_s": "s", "hypercore.write_s": "s",
    "hypercore.bytes_read": "B", "hypercore.bytes_written": "B",
    "checker.verify_s": "s", "checker.link_s": "s", "checker.link_calls": "count",
    "checker.tree_test_s": "s", "checker.tree_test_calls": "count",
    "checker.scan_self_s": "s", "checker.classify_s": "s",
    "checker.pool_size": "count", "checker.triples_scanned": "count",
    "checker.tagged_frac": "ratio",
    "oracle.catalog_s": "s", "oracle.exhaustive_s": "s",
    "oracle.masks_swept": "count", "oracle.saturated_found": "count",
    "twographs.canonical_s": "s", "twographs.canonical_calls": "count",
    "twographs.components_s": "s", "twographs.components_calls": "count",
    "twographs.class_yield": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

# span name -> metric receiving its self time
SELF_TIME = {
    "cli": "cli.self_s",
    "assembler.build": "assembler.build_self_s",
    "assembler.plan": "assembler.plan_s",
    "confmodel.sample": "confmodel.sample_s",
    "confmodel.pair_search": "confmodel.pair_search_s",
    "gadgets.build": "gadgets.build_s",
    "hypercore.make": "hypercore.make_s",
    "hypercore.read": "hypercore.read_s",
    "hypercore.write": "hypercore.write_s",
    "checker.verify": "checker.scan_self_s",
    "checker.link": "checker.link_s",
    "checker.tree_test": "checker.tree_test_s",
    "checker.classify": "checker.classify_s",
    "oracle.catalog": "oracle.catalog_s",
    "oracle.exhaustive": "oracle.exhaustive_s",
    "twographs.canonical_connected": "twographs.canonical_s",
    "twographs.canonical_form": "twographs.canonical_s",
    "twographs.components": "twographs.components_s",
}
CALLS = {
    "confmodel.sample": "confmodel.sample_calls",
    "checker.link": "checker.link_calls",
    "checker.tree_test": "checker.tree_test_calls",
    "twographs.canonical_connected": "twographs.canonical_calls",
    "twographs.components": "twographs.components_calls",
}
TOTAL_TIME = {"checker.verify": "checker.verify_s"}
COUNTERS = (
    "confmodel.tries", "confmodel.repair_rounds", "confmodel.pair_rejects",
    "confmodel.defects_seen", "confmodel.route_repair", "confmodel.route_dfs",
    "confmodel.memo_hits", "hypercore.edges_made", "hypercore.bytes_read",
    "hypercore.bytes_written", "checker.pool_size", "checker.triples_scanned",
    "oracle.masks_swept", "oracle.saturated_found",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


Outcome = namedtuple("Outcome", "seconds rss_mb code stdout stderr")


class Runner:
    """Runs one child process at a time and reaps it with its rusage."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work),
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(self, argv):
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            return Outcome(0.0, 0.0, None, "", "run deadline reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Outcome(seconds, usage.ru_maxrss / 1024, code,
                       out_path.read_text(), err_path.read_text())

    def cli(self, args):
        return self.run([sys.executable, "-m", "bergesat.cli"] + args)

    def traced(self, args, out):
        return self.run([sys.executable, str(TRACER), str(out)] + args)

    def import_time(self):
        return self.run([sys.executable, "-c", "import bergesat.cli"])

    def reference(self):
        return self.run([sys.executable, str(REFERENCE)])


def digest(cmd, outcome):
    h = hashlib.sha256(outcome.stdout.encode())
    for path in cmd.outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def problems_of(cmd, outcome):
    if outcome.code != cmd.expect_exit:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {outcome.code}, wanted {cmd.expect_exit}: {tail[0]}"]
    return cmd.check(outcome) if cmd.check else []


def load_spans(path):
    """Per span name: calls, total time and self time of one traced command."""
    header = json.loads(Path(path).read_text())
    count = header["count"]
    name, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with open(str(path) + ".spans", "rb") as fh:
        for arr in (name, parent, start, end):
            arr.fromfile(fh, count)
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    stats = {n: [0, 0.0, 0.0] for n in header["names"]}
    for i, nid in enumerate(name):
        st = stats[header["names"][nid]]
        st[0] += 1
        st[1] += dur[i]
        st[2] += own[i]
    return header, stats


class Measurement:
    """Timed repetitions, failures and traces of one workload run."""

    def __init__(self, runner, commands, trace):
        self.runner = runner
        self.commands = commands
        self.trace = trace
        self.probe = next(c for c in commands if c.probe)
        # wall seconds of each sample, per command
        self.times = {c.key: [] for c in commands}
        self.traced_times = {c.key: [] for c in commands}
        self.setup_times = []
        self.reference_times = []
        self.rss = []
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.traces = {}

    def _record(self, cmd, outcome):
        self.attempted += 1
        self.rss.append(outcome.rss_mb)
        problems = problems_of(cmd, outcome)
        d = digest(cmd, outcome)
        first = self.digests.setdefault(cmd.key, d)
        if d != first:
            problems.append("outputs differ from the first repetition")
        if problems:
            self.failures.append((cmd.key, problems))
        return not problems

    def _once(self, cmd):
        outcome = self.runner.cli(cmd.argv)
        self.times[cmd.key].append(outcome.seconds)
        ok = self._record(cmd, outcome)
        if ok and self.trace:
            spans = self.runner.work / f"trace{len(self.traces)}.json"
            outcome = self.runner.traced(cmd.argv, spans)
            self.traced_times[cmd.key].append(outcome.seconds)
            ok = self._record(cmd, outcome)
            if ok and cmd.key not in self.traces:
                self.traces[cmd.key] = load_spans(spans)
        return ok

    def _setup_sample(self):
        for run, into in ((self.runner.reference, self.reference_times),
                          (self.runner.import_time, self.setup_times)):
            outcome = run()
            if outcome.code != 0:
                raise SetupError(f"set-up sample failed: {outcome.stderr.strip()}")
            into.append(outcome.seconds)

    def predicted(self, cmd):
        t = statistics.median(self.times[cmd.key])
        if self.trace:
            t += statistics.median(self.traced_times[cmd.key])
        return t

    def measure(self, seconds):
        """One full pass, then repeats until `seconds` have passed.

        A repeat pass starts with the workload's probe (cmd_max_s) and
        goes on through the other commands, fewest samples first and
        shortest first among equals, skipping any whose median no longer
        fits.

        Untraced runs also take a set-up sample (a bare `import
        bergesat.cli`, and reference.py) at the start, at the end and
        whenever SAMPLE_EVERY_S have passed since the last one, so that
        these samples spread over the run like the command samples do.
        Scaling by the reference time removes most of the machine's
        drift between runs; the table lists the raw times."""
        stop = time.monotonic() + seconds
        sampled = -math.inf
        if not self.trace:
            self.runner.import_time()  # compiles bytecode on a fresh checkout
        order = self.commands
        runs = 0
        while True:
            ran = False
            for cmd in order:
                if runs >= len(self.commands) and time.monotonic() + self.predicted(cmd) > stop:
                    continue
                if not self.trace and time.monotonic() - sampled >= SAMPLE_EVERY_S:
                    self._setup_sample()
                    sampled = time.monotonic()
                ran = True
                if not self._once(cmd):
                    return
                runs += 1
            if not ran:
                break
            order = sorted(self.commands, key=lambda c: (
                not c.probe, len(self.times[c.key]), self.predicted(c)))
        if not self.trace:
            self._setup_sample()

    def audit(self, oracle):
        for cmd in self.commands:
            if cmd.audit and self.times[cmd.key]:
                problems = cmd.audit(oracle)
                if problems:
                    self.failures.append((cmd.key, problems))

    def end_to_end(self):
        # like with like: best command times against the best reference
        # time, the median import time against the median reference time
        scale = REFERENCE_S / min(self.reference_times)
        best = [scale * min(self.times[c.key]) for c in self.commands]
        return {
            "setup_s": statistics.median(self.setup_times) * REFERENCE_S
                       / statistics.median(self.reference_times),
            "wall_s": sum(best),
            "cmd_p50_s": statistics.median(best),
            "cmd_max_s": scale * min(self.times[self.probe.key]),
            "peak_rss_mb": max(self.rss),
        }

    def per_layer(self):
        out = {m: 0 for m in PER_LAYER}
        imports = []
        counters = {}
        for header, stats in self.traces.values():
            imports.append(header["import_s"])
            for span, (calls, total, own) in stats.items():
                if span in SELF_TIME:
                    out[SELF_TIME[span]] += own
                if span in CALLS:
                    out[CALLS[span]] += calls
                if span in TOTAL_TIME:
                    out[TOTAL_TIME[span]] += total
            for k, v in header["counters"].items():
                counters[k] = counters.get(k, 0) + v
        for k in COUNTERS:
            out[k] = counters.get(k, 0)
        out["cli.import_s"] = statistics.median(imports) if imports else 0
        tries = counters.get("confmodel.tries", 0)
        out["confmodel.accept_ratio"] = out["confmodel.sample_calls"] / tries if tries else 0
        verts = counters.get("checker.vertices", 0)
        out["checker.tagged_frac"] = counters.get("checker.tagged", 0) / verts if verts else 0
        calls = out["twographs.canonical_calls"]
        out["twographs.class_yield"] = counters.get("twographs.classes", 0) / calls if calls else 0
        keys = [c.key for c in self.commands if self.traced_times[c.key]]
        untraced = sum(min(self.times[k]) for k in keys)
        out["trace.wall_s"] = sum(min(self.traced_times[k]) for k in keys)
        out["trace.overhead_s"] = out["trace.wall_s"] - untraced
        return out

    def report_lines(self):
        lines = [f"  {'best s':>9} {'median s':>9} {'reps':>4}  command"]
        for c in self.commands:
            ts = self.times[c.key]
            if ts:
                lines.append(f"  {min(ts):9.3f} {statistics.median(ts):9.3f} {len(ts):4d}  {c.key}")
        if self.reference_times:
            ref = self.reference_times
            lines.append(f"  reference.py best {min(ref):.3f} s, median "
                         f"{statistics.median(ref):.3f} s over {len(ref)} runs: command "
                         f"times below are scaled by {REFERENCE_S / min(ref):.3f}")
        for key, (header, stats) in self.traces.items():
            top = sorted(((own, span) for span, (_, _, own) in stats.items()), reverse=True)[:3]
            spans = ", ".join(f"{span} {own:.3f}s" for own, span in top)
            lines.append(f"  traced {key}: self time {spans}")
        for key, problems in self.failures:
            lines.append(f"  FAILED {key}: {'; '.join(problems)}")
        return lines


def run_workload(name, seed, seconds, trace, smoke, work):
    """Set up, measure and audit one workload; returns (result dict, lines)."""
    from bergesat import oracle

    runner = Runner(work, time.monotonic() + HARD_LIMIT_S)
    setup_cmds, timed = workloads.WORKLOADS[name](work, seed, smoke)

    def run_setup(cmd):
        outcome = runner.cli(cmd.argv)
        problems = problems_of(cmd, outcome)
        if cmd.audit and not problems:
            problems = cmd.audit(oracle)
        if problems:
            raise SetupError(f"set-up command {cmd.key} failed: {'; '.join(problems)}")

    for cmd in setup_cmds:
        run_setup(cmd)
    commands = timed(run_setup)

    m = Measurement(runner, commands, trace)
    m.measure(seconds)
    m.audit(oracle)

    failed = min(len(m.failures), m.attempted)
    units = PER_LAYER if trace else END_TO_END
    values = m.per_layer() if trace else m.end_to_end()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not m.failures, "attempted": m.attempted,
              "failed": failed, "metrics": metrics}
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"{len(commands)} commands, {m.attempted} runs, "
             f"fail_frac {result['failed'] / max(m.attempted, 1):g}"]
    lines += m.report_lines()
    lines += [f"  {k:28s} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    return result, lines


def check_source():
    """Import bergesat from this checkout's src, or refuse to run."""
    if not (SRC / "bergesat" / "cli.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import bergesat
    if Path(bergesat.__file__).resolve().parent != SRC / "bergesat":
        raise SetupError(f"bergesat resolves to {bergesat.__file__}, not {SRC}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grid for a quick self-test")
    args = p.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    base = ROOT / f".perfbench-{args.workload}-{os.getpid()}"
    try:
        check_source()
        results = {}
        for name in names:
            work = base / name
            work.mkdir(parents=True)
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.smoke, work)
            print("\n".join(lines), flush=True)
            results[name] = result
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
