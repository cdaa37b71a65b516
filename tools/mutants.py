"""Mutation checks for the code that fused or deleted lines rely on.

Each row of ``MUTANTS`` changes one exact piece of text in one file, and
names the tests expected to fail on the change (its selector), or gives a
one-line argument why the change cannot alter behaviour.  For each row the
script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies the change there, runs ``python -m pytest -x -q`` on
the selector, and reports KILLED (a test failed) or SURVIVED (all passed),
with the time taken.  The working tree is never modified.

Before the rows run, every selector is run once on the unchanged copy: a
test that already fails would make every mutant look killed.

Usage, from the repository root (standard library only; not part of
Tier-1; about two minutes on 2 cores):

    python tools/mutants.py

The exit status is non-zero if a row's old text does not occur exactly
once, if a selector fails on the unchanged copy, if pytest cannot run a
row, or if a row without an equivalence argument survives.

A change that deletes or fuses code adds rows for the code it touches.
Marking a real survivor as equivalent counts as loosening a check.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...] = ("tests",)  # pytest arguments, relative to the root
    equivalent: str | None = None  # why the change cannot alter behaviour


ACT = "src/regkit/activations.py"
NET = "src/regkit/network.py"
ACT_TESTS = ("tests/test_activations.py",)
NET_TESTS = ("tests/test_network.py",)

MUTANTS = (
    # The elementwise kernels: one value and one derivative per kind.
    Mutant("relu-derivative-right-of-kink", ACT,
           "np.greater(s, 0.0, out=s)", "np.greater_equal(s, 0.0, out=s)", ACT_TESTS),
    Mutant("relu-value-keeps-no-negative-zero", ACT,
           "np.maximum(0.0, s, out=z)", "np.maximum(s, 0.0, out=z)", ACT_TESTS),
    Mutant("piecewise-value-scales-every-entry", ACT,
           "np.multiply(z, beta, out=z, where=neg)", "np.multiply(z, beta, out=z)", ACT_TESTS),
    Mutant("leaky-derivative-right-of-kink", ACT,
           "pos = s > 0\n", "pos = s >= 0\n", ACT_TESTS),
    Mutant("elu-value-exp", ACT,
           "np.expm1(z, out=z, where=neg)", "np.exp(z, out=z, where=neg)", ACT_TESTS),
    Mutant("elu-derivative-expm1", ACT,
           "np.exp(s, out=s, where=neg)", "np.expm1(s, out=s, where=neg)", ACT_TESTS),
    Mutant("elu-derivative-right-of-kink", ACT,
           "neg = s <= 0\n", "neg = s < 0\n", ACT_TESTS),
    Mutant("elu-derivative-beta-on-the-right", ACT,
           "s[~neg] = 1.0", "s[~neg] = beta", ACT_TESTS),
    Mutant("swish-derivative-drops-plus-one", ACT,
           "        s += 1.0\n", "", ACT_TESTS),
    Mutant("sigmoid-derivative-drops-times-z", ACT,
           "        s *= z\n", "", ACT_TESTS),
    Mutant("apply-matrix-overwrites-its-input", ACT,
           "    z = a.copy()\n", "    z = a\n", ACT_TESTS),
    Mutant("jacobian-product-overwrites-its-input", ACT,
           "    j = preactivations.copy()\n", "    j = preactivations\n", ACT_TESTS),
    Mutant("jacobian-product-drops-upstream", ACT,
           "return np.multiply(j, upstream, out=j)", "return j", ACT_TESTS),
    # _run_layers and _backward_pass over [Z; 1] blocks.
    Mutant("hidden-deltas-over-the-ones-row", NET,
           "else z[:-1, :p]", "else z[1:, :p]", NET_TESTS),
    Mutant("softmax-over-the-ones-row", NET,
           "softmax_columns(s, out=s)", "softmax_columns(z, out=z)", NET_TESTS),
    Mutant("hidden-ones-row-zero", NET,
           "out[q:] = 1.0", "out[q:] = 0.0", NET_TESTS),
    Mutant("wt-delta-from-the-wrong-columns", NET,
           "state.blocks[l][:, :-1],", "state.blocks[l][:, 1:],", NET_TESTS),
    Mutant("no-finite-check-on-the-validation-loss", NET,
           "            if not np.isfinite(theta):\n"
           "                raise DivergenceError(\"validation loss is not finite\")\n",
           "", NET_TESTS),
    Mutant("input-ones-row-off-by-1e-6", NET,
           "block[:-1], block[-1] = z0, 1.0", "block[:-1], block[-1] = z0, 1.0 + 1e-6",
           NET_TESTS),
    Mutant("input-ones-row-off-by-2^-40", NET,
           "block[:-1], block[-1] = z0, 1.0", "block[:-1], block[-1] = z0, 1.0 + 2.0**-40",
           ("tests/test_network.py::TestOneProductError",)),
    Mutant("reused-forward-keeps-the-old-input", NET,
           "        out.z0[:-1] = z0\n", "", NET_TESTS),
    # Error messages that name what the user gave.
    Mutant("domain-error-counts-rows-from-0", "src/regkit/losses.py",
           "data row {row + 1}", "data row {row}", ("tests/test_cli.py::TestAnnTrain",)),
    Mutant("rename-error-names-the-temporary-file", "src/regkit/model_io.py",
           "raise OSError(exc.errno, exc.strerror, path) from None\n    except BaseException:",
           "raise\n    except BaseException:",
           ("tests/test_cli.py::TestOutputFiles",)),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(workdir: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def _run(mutant: Mutant) -> tuple[str, float]:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="regkit-mutant-") as tmp:
        workdir = Path(tmp)
        _copy_tree(workdir)
        path = workdir / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        code = _pytest(workdir, mutant.tests)
    # pytest: 0 all passed, 1 some test failed; anything else is no verdict.
    outcome = {0: "SURVIVED", 1: "KILLED"}.get(code, f"ERROR (pytest exit {code})")
    return outcome, time.perf_counter() - start


def main() -> int:
    bad = [m for m in MUTANTS if (ROOT / m.file).read_text().count(m.old) != 1]
    for m in bad:
        print(f"BAD ROW   {m.name}: its old text does not occur exactly once in {m.file}")
    if bad:
        return 1

    selectors = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="regkit-mutant-") as tmp:
        _copy_tree(Path(tmp))
        code = _pytest(Path(tmp), selectors)
    if code != 0:
        print(f"the unchanged tree fails its selectors (pytest exit {code}): {selectors}")
        return 1

    failed = 0
    for m in MUTANTS:
        outcome, seconds = _run(m)
        note = ""
        if outcome == "SURVIVED" and m.equivalent:
            note = f"  equivalent: {m.equivalent}"
        elif outcome != "KILLED":
            failed += 1
        print(f"{outcome:<9} {seconds:6.1f}s  {m.name}{note}", flush=True)
    print(f"{len(MUTANTS)} rows, {failed} failed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
