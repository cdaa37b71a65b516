"""The functions perfbench traces stay callable under their module names.

``perfbench/tracing.py`` wraps functions by module and name.  A deleted or
renamed one drops its metrics onto a ``missing`` line, so the benchmark's
result no longer holds every metric ``BENCHMARK.json`` lists.  The check
loads ``tracing.py`` by path (it imports only the standard library) in a
fresh interpreter that has imported nothing but ``regkit.cli``, as the
benchmark's worker does before it installs its wrappers.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regkit
import regkit.activations
import regkit.linalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

CHILD = """
import importlib.util, inspect, json, sys
import regkit.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
traced = [(entry[1], entry[2]) for entry in tracing.SPANS + tracing.COUNTED]
linalg = vars(sys.modules.get(tracing.LINALG, object()))
print(json.dumps({
    "traced": [f"{module}.{attr}" for module, attr in traced],
    "modules_not_loaded": sorted({m for m, _ in traced if m not in sys.modules}),
    "not_callable": [f"{m}.{a}" for m, a in traced
                     if not callable(getattr(sys.modules.get(m), a, None))],
    "linalg_public": sorted(name for name, value in linalg.items()
                            if inspect.isfunction(value) and not name.startswith("_")
                            and value.__module__ == tracing.LINALG),
}))
"""


@pytest.fixture(scope="module")
def seams() -> dict:
    src = str(Path(regkit.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(TRACING)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_traced_function_is_callable_after_importing_the_cli(seams):
    assert len(seams["traced"]) >= 20  # the tracing table was read
    assert seams["modules_not_loaded"] == []
    assert seams["not_callable"] == []


def test_linalg_has_a_public_function_to_count(seams):
    assert seams["linalg_public"]


def _names_in(path: Path) -> set[str]:
    """Every name a module's code uses: plain names, attributes and imports,
    but not words in its docstrings or comments."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", [regkit.linalg, regkit.activations],
                         ids=lambda module: module.__name__)
def test_every_public_function_has_a_caller_outside_the_tests(module):
    """A public function of these modules is used by another regkit module or
    traced by perfbench; one that only tests call does not belong in src/."""
    package = Path(regkit.__file__).resolve().parent
    own = Path(module.__file__).resolve()
    used = set().union(*(_names_in(path) for path in package.glob("*.py") if path != own))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {attr for _, mod, attr, *_ in tracing.SPANS + tracing.COUNTED
              if mod == module.__name__}
    public = {name for name, value in vars(module).items()
              if inspect.isfunction(value) and value.__module__ == module.__name__
              and not name.startswith("_")}
    assert sorted(public - used - traced) == []


def test_every_function_is_used_traced_or_exported():
    """Every top-level function of every regkit module is referenced by regkit
    code, its own module included, traced by perfbench or listed in
    ``regkit.__all__``; one that none of these reach is dead code."""
    paths = sorted(Path(regkit.__file__).resolve().parent.glob("*.py"))
    used = set().union(*map(_names_in, paths))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(mod, attr) for _, mod, attr, *_ in tracing.SPANS + tracing.COUNTED}
    unreached = [f"{path.stem}.{node.name}" for path in paths
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name not in used and node.name not in regkit.__all__
                 and (f"regkit.{path.stem}", node.name) not in traced]
    assert sorted(unreached) == []
