"""regkit benchmark: CLI workloads timed end to end, and per module when traced.

Run from the root of a regkit checkout:

    python3 perfbench/run.py --workload ols-wide --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

For each workload it generates seeded CSVs (untimed) under
``.perfbench/<workload>/`` and starts ``worker.py`` in a fresh process
that runs the workload's commands through ``regkit.cli.cli_main`` for
``--seconds`` seconds and checks every output.  Cold starts of the CLI
(``setup_s``) are timed before and after the worker.  ``--trace 1`` reports per-layer metrics from
wrappers installed around regkit's functions instead of the end-to-end
metrics.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the full record
(samples, inputs with SHA-256, environment) goes to
``.perfbench/<workload>/result-seed<N>-trace<T>.json``.

Metric units and directions, the reason for each workload and the
default ``--seconds`` come from ``BENCHMARK.json``; how each metric is
computed is in ``metrics.py``, and each workload's inputs and commands
are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, OVERHEAD, PER_LAYER
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
# A run must end within this many seconds, the worker's share included.
RUN_LIMIT_S = 175.0
# Timed cold starts per run: half before the worker and half after it, so
# that their median spans two moments of the run, not one.
SETUP_RUNS = 12
COLD_START = ("import sys; sys.path.insert(0, 'src'); from regkit.cli import cli_main; "
              "raise SystemExit(cli_main(['--help']))")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def definition_mismatch() -> str | None:
    """Where BENCHMARK.json and the metrics and workloads defined here disagree."""
    pairs = (
        ("end_to_end", BENCHMARK["end_to_end"], END_TO_END),
        ("per_layer", BENCHMARK["per_layer"], [m.name for m in PER_LAYER + (OVERHEAD,)]),
        ("workloads", BENCHMARK["workloads"], WORKLOADS),
    )
    for key, listed, defined in pairs:
        listed, defined = {entry["name"] for entry in listed}, set(defined)
        if listed != defined:
            return (f"BENCHMARK.json {key}: only there {sorted(listed - defined)}, "
                    f"only in perfbench {sorted(defined - listed)}")
    return None


def cold_starts(root: Path, runs: int, times: list[float], failures: list[str]) -> None:
    """Append the wall times of ``runs`` fresh interpreters running ``regkit --help``."""
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=root,
                              capture_output=True, timeout=60)
        elapsed = perf_counter() - start
        if proc.returncode != 0 or b"ols-fit" not in proc.stdout:
            failures.append(f"cold start: exit code {proc.returncode}")
        else:
            times.append(elapsed)


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples above it."""
    best = None
    ordered = sorted(samples)
    for p in PERCENTILES:
        index = int(len(ordered) * p / 100.0)
        if len(ordered) - index - 1 >= 10:
            best = (p, ordered[index])
    return best


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    workload = WORKLOADS[name]
    work = root / ".perfbench" / name
    work.mkdir(parents=True, exist_ok=True)
    inputs = generate(workload, seed, work)
    setup, failures = [], []
    if not trace:
        cold_starts(root, 1, [], failures)  # untimed: on a fresh checkout it writes bytecode
        cold_starts(root, SETUP_RUNS // 2, setup, failures)
    spec = work / f"spec-trace{int(trace)}.json"
    result_path = work / f"result-seed{seed}-trace{int(trace)}.json"
    spec.write_text(json.dumps({"root": str(root), "work": str(work), "workload": name,
                                "seed": seed, "seconds": seconds, "trace": trace,
                                "result": str(result_path)}))
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)], cwd=root,
                              timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: worker stopped after running out of time") from None
    if proc.returncode != 0 or not result_path.exists():
        raise SystemExit(f"{name}: worker exited with code {proc.returncode}")
    if not trace:
        cold_starts(root, SETUP_RUNS - SETUP_RUNS // 2, setup, failures)
    result = json.loads(result_path.read_text())
    result["failures"] = failures + result["failures"]
    if not trace:
        result["attempted"] += SETUP_RUNS + 1
    result["inputs"] = inputs
    result["seed"] = seed
    if trace:
        metrics = result["layers"]
    else:
        result["samples"]["setup_s"] = setup
        metrics = {name: statistics.median(result["samples"][name])
                   for name in END_TO_END if result["samples"].get(name)}
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    result["metrics"] = {key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()}
    result_path.write_text(json.dumps(result, indent=1))
    report(name, result, trace)
    return result


def report(name: str, result: dict, trace: bool) -> None:
    failed = len(result["failures"])
    print(f"== {name} seed {result['seed']} trace {int(trace)}: {result['rounds']} rounds "
          f"in {result['measured_s']:.1f} s")
    for key, metric in result["metrics"].items():
        line = f"  {key:40s} {metric['value']:>14.6g} {metric['unit']}"
        samples = result["samples"].get(key)
        if samples and not trace:
            high = high_percentile(samples)
            line += f"  median of {len(samples)}"
            line += f", p{high[0]:g} {high[1]:.6g}" if high else ", too few samples for a tail percentile"
        print(line)
    print(f"  {'error_rate':40s} {failed / result['attempted']:>14.6g} ratio"
          f"  ({failed} of {result['attempted']} operations failed)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    for kind, shares in result.get("shares", {}).items():
        top = sorted(shares.items(), key=lambda item: -item[1])[:6]
        print(f"  share of {kind} time: " + ", ".join(f"{name} {share:.0%}" for name, share in top))
    if result.get("missing"):
        print(f"  missing (traced function not found): {', '.join(result['missing'])}")
    env = result["env"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} "
          f"{env['blas']['version']}, BLAS threads {env['blas']['threads']}, nproc {env['nproc']}")
    for role, record in result["inputs"].items():
        shape = "x".join(map(str, record["shape"]))
        print(f"  input {role}: {record['path']} {shape} sha256 {record['sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    mismatch = definition_mismatch()
    if mismatch:
        print(f"run.py: {mismatch}", file=sys.stderr)
        return 2

    root = Path.cwd()
    if not (root / "src" / "regkit" / "cli.py").is_file():
        print(f"run.py: no regkit sources at {root / 'src' / 'regkit'}; "
              "run from the root of a regkit checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        limit = deadline if len(names) == 1 else perf_counter() + RUN_LIMIT_S
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace), limit)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name, r in results.items()
                   for key, value in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
