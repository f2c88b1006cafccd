"""Every name a hones module imports is used in that module, and every parameter in its function.

`__init__.py` re-exports what it imports, so it is left out of the import
check.  A name counts as used when the module reads it anywhere, as a name or
as the root of an attribute chain.  A parameter counts as read when its
function's body, nested functions and lambdas included, loads it; a
parameter whose name starts with `_` is exempt, for a slot that a caller
fills positionally and the function does not need.

A stream's session stays light: it loads neither `numpy.ma` nor `fractions`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hones"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of `source` that it never reads, by line."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(bound) if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == ["os", "argv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source):
    """`function:parameter` for every parameter of `source` that its function never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}:{p.arg}" for p in params if p.arg not in read and not p.arg.startswith("_")]
    return found


def test_detects_an_unused_parameter():
    source = "def f(a, b, _c, *args, d=1, **kw):\n    return a + d\n\ng = lambda x, _y, z: x\n"
    assert unused_parameters(source) == ["f:b", "f:args", "f:kw", "<lambda>:z"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_function_reads_every_parameter(path):
    assert unused_parameters(path.read_text()) == []


def test_a_session_loads_neither_numpy_ma_nor_fractions():
    # Both are heavy imports that a stream has no use for; fractions serves
    # only kkt.exact_solve, which imports it when called.
    code = """
import sys
import hones
from hones.flows import FlowConfig, synthetic_flow
flow = synthetic_flow(FlowConfig("synthetic", 20, 20, seed=1))
session = hones.init_session(flow.a0, flow.c0, hones.SolverConfig())
for g, c in flow:
    hones.step(session, g, c)
print(sorted({"numpy.ma", "fractions"} & set(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
