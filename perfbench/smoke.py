"""Small-size smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a source checkout. Runs every workload with shrunk
pools, untraced and traced, and fails (exit 1) unless each run exits 0,
passes its output checks and prints every metric BENCHMARK.json names with
its unit, plus the readable summary lines (rates, latency percentiles with
their sample counts, fail_ratio with its base), and unless its untraced and
traced runs of one seed report the same attempted and failed counts.
It also checks that the grid output check flags wrong objectives and a
search that skips nodes, and that the benchmark refuses to run in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.getcwd(), "src"))

import rfloc  # noqa: E402
import workloads  # noqa: E402
from rfloc import _kernels  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_run(spec: dict, workload: str, trace: int, problems: list[str]):
    """Returns (attempted, failed), or None when the run failed."""
    proc = _run(os.getcwd(), workload, trace)
    tag = f"{workload} --trace {trace}"
    before = len(problems)
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        problems.append(f"{tag}: bad result keys or not correct: {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{tag}: attempted/failed must be whole numbers, attempted >= 1")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{tag}: metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m and (m["unit"] != unit or not math.isfinite(m["value"])):
            problems.append(f"{tag}: {name} = {m}, expected a finite value in {unit}")
    text = proc.stdout
    if not text.startswith("env ") or '"HAVE_NUMBA"' not in lines[0]:
        problems.append(f"{tag}: no env line first")
    if trace:
        for needle in ("tracing overhead", "unattributed"):
            if needle not in text:
                problems.append(f"{tag}: '{needle}' not printed")
        layers, unattributed, untraced, overhead = (got[f"trace.{k}"]["value"] for k in (
            "layers_ms", "unattributed_ms", "untraced_op_ms", "overhead_ms"))
        # 1 % of the op covers the timer calls between the pass loop and the op span.
        if abs(layers - untraced) > abs(overhead) + unattributed + 0.01 * untraced:
            problems.append(f"{tag}: layer self times {layers:.4g} ms/op differ from the "
                            f"untraced op {untraced:.4g} ms/op by more than the tracing "
                            f"overhead {overhead:.4g} plus unattributed {unattributed:.4g}")
        if unattributed > 0.02 * got["trace.op_ms"]["value"]:
            problems.append(f"{tag}: {unattributed:.4g} ms/op of the op is in no layer")
    else:
        for needle in (f"{workloads.WORKLOADS[workload].rate} = ", "_p50_ms = ", "_p90_ms = ", "(n=",
                       "fail_ratio = ", "err_p50_m = ", "setup_s = "):
            if needle not in text:
                problems.append(f"{tag}: '{needle}' not printed")
    print(f"{tag}: {'ok' if len(problems) == before else 'see below'} "
          f"(attempted {result['attempted']}, failed {result['failed']})", flush=True)
    return result["attempted"], result["failed"]


def _check_grid_faults(problems: list[str]) -> None:
    """check_grid must flag a wrong kernel and a search that skips nodes."""
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "grid_faults")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.gen_oracle_grid(np.random.default_rng(1), workdir, 0.125)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op in ops:
        g = op.grid
        anchors, targets = g["anchors"], g["targets"]
        if g["kind"] == "tdoa":
            kernel = _kernels.sum_sq_tdoa_residuals
            faults = {"delta sign": (anchors, -targets),
                      "receiver index": (anchors[[0, 2, 1]], targets)}
        else:
            kernel = _kernels.sum_sq_range_residuals
            faults = {"distance sign": (anchors, -targets),
                      "distance offset": (anchors, targets + 0.05)}
        cases = {"correct objective": g["objective"]}
        for fault, (a, t) in faults.items():
            cases[fault] = lambda pts, a=a, t=t: kernel(pts, a, t)
        for case, objective in cases.items():
            node, value = rfloc.grid_search(objective, g["bounds"], workloads.GRID_STEP)
            flagged = bool(workloads.check_grid(op, (node, value)).violations)
            if flagged != (case != "correct objective"):
                problems.append(f"grid check on {op.name} with {case}: flagged={flagged}")
        # A search that skips the best node: right value, wrong node.
        node, _ = rfloc.grid_search(g["objective"], g["bounds"], workloads.GRID_STEP)
        moved = np.array(node.coords) + 5 * workloads.GRID_STEP * np.eye(len(g["bounds"]))[0]
        result = (rfloc.Point.of(*moved), float(workloads.grid_objective(g, moved)[0]))
        if not workloads.check_grid(op, result).violations:
            problems.append(f"grid check on {op.name} passed a node 5 steps out")
    print(f"grid check faults: {len(ops)} lattices", flush=True)


def _check_bare(problems: list[str]) -> None:
    """In a directory with only BENCHMARK.json and perfbench/, the run must fail."""
    bare = os.path.join(os.getcwd(), ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = _run(bare, WORKLOAD_NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("bare directory: the benchmark ran without the program")
    print(f"bare directory: exit {proc.returncode}", flush=True)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for workload in WORKLOAD_NAMES:
        # attempted and failed depend on the seed alone, not on the passes run.
        counts = {_check_run(spec, workload, trace, problems) for trace in (0, 1)}
        if len(counts) != 1:
            problems.append(f"{workload}: attempted/failed differ between two runs of "
                            f"seed 1: {sorted(counts, key=str)}")
    _check_grid_faults(problems)
    _check_bare(problems)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "all workloads ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
