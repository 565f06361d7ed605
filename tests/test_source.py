"""Rules that hold of the package source itself."""

import ast
import os
from pathlib import Path
import subprocess
import sys

import bergesat

SOURCES = sorted(Path(bergesat.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# public names that only tests call, kept on purpose: the acceptance
# suite's criterion 9 checks the paper's claim that degree6_component_claim
# states, and aggressive_sufficient certifies the all-full blocks, as
# ROADMAP item 1's full-row test will at every ell
ONLY_TESTS_CALL = {"aggressive_sufficient", "degree6_component_claim"}


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so a check written as one
    # silently vanishes; invariants raise InternalError instead
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def _absolute_imports(tree):
    """(line, module) of each absolute import in tree, lazy ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_the_package_imports_only_the_standard_library():
    # the package has no runtime dependency
    found = [f"{p.name}:{line} {name}" for p in SOURCES
             for line, name in _absolute_imports(ast.parse(p.read_text(), str(p)))
             if name.partition(".")[0] not in sys.stdlib_module_names]
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


def _named(node):
    """The names one AST node uses: a name, an attribute, an import or an
    identifier string (the names perfbench/tracer.py wraps)."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.asname, *node.name.split(".")} - {None}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value} if node.value.isidentifier() else set()
    return set()


def test_every_public_name_has_a_caller():
    # a public top-level function or class that neither the package nor
    # perfbench names, other than in its own def, is code only tests reach
    public, used = set(), set()
    for p in SOURCES + SCRIPTS:
        for top in ast.parse(p.read_text(), str(p)).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and p in SOURCES and not own.startswith("_"):
                public.add(own)
            used |= {name for node in ast.walk(top) for name in _named(node)} - {own}
    assert SCRIPTS
    assert sorted(public - used) == sorted(ONLY_TESTS_CALL)
