"""Rules that hold of the package source itself."""

import ast
import os
from pathlib import Path
import subprocess
import sys

import bergesat

SOURCES = sorted(Path(bergesat.__file__).parent.glob("*.py"))


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so a check written as one
    # silently vanishes; invariants raise InternalError instead
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_every_name_the_tracer_wraps_exists():
    # perfbench/tracer.py wraps functions by name (checker.link,
    # checker.tree_components, assembler.plan_upper, ...), so a deleted
    # or renamed one must fail here; a fresh interpreter, because install
    # rebinds module attributes
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    env = dict(os.environ)
    src = str(Path(bergesat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(perfbench), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
