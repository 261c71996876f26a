"""rfloc benchmark: seeded workloads through the public surface a user calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from the root of a source checkout; rfloc is imported from ./src.
Workloads (workloads.py generates them; BENCHMARK.json says why each exists):

    pipeline_fix  single-epoch pipeline files                work unit: fix
    trilat_sweep  trilat2d/3d Monte-Carlo files, CSV export  work unit: trial
    oracle_grid   grid_search on the verification lattices   work unit: Mnode
    tdoa2d_sweep  tdoa2d Monte-Carlo files                   work unit: trial
                  (not in BENCHMARK.json: its cost per seed is too heavy-tailed
                  to gate on; use it for same-seed comparisons)

Load model: closed loop, one caller, one process; each op starts when the
previous one returned. An op is one `rfloc run` of one generated scenario
file (parse_scenario -> run -> json.dumps, or report_to_csv for
trilat_sweep) or one grid_search call. The seeded pool of ops runs in whole
passes for about --seconds, and at least 2 passes; an op's latency is its
median over passes.

Machine speed drifts: on a shared 2-core virtual machine the same run can
take 30 % longer a minute later, and a long op absorbs every stretch in
which the process or the whole machine was not running. So the gated times
are the process's CPU time (time.process_time: it leaves out time spent
waiting for a core and, with paravirtual steal accounting, time the
hypervisor ran someone else). A fixed speed probe of the same kind of work
as the workload's ops (workloads.Probe: tiny numpy solves for the file
workloads, a lattice chunk sweep for oracle_grid), also timed in CPU time,
runs between ops (once per 0.1 or 0.25 s of them) and around each set-up.
The run is cut into segments of SEGMENT_PROBES probes (about a second),
and each op's CPU time is scaled by the median probe of its segment to the
speed at which the probe takes its reference time: latency and throughput
in "ref" units, setup_s in reference seconds. A change to rfloc itself
still shows in full. Wall-clock figures are printed alongside.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes plus the tracing overhead against untraced passes of the same
pool. The last stdout line is one JSON object: correct, attempted, failed,
metrics; attempted and failed count the work units of the timed ops, once
each (a Monte-Carlo trial that did not converge or raised, a fix that
raised, a failed output check), so they depend on the seed alone, not on how
many passes fit in --seconds. The lines before it name the workload's
metrics with units, sample counts and bases.
A failed output check prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("pipeline_fix", "trilat_sweep", "oracle_grid", "tdoa2d_sweep")
SETUP_REPEATS = 7
SETUP_PROBES = 3      # probes after each set-up repeat and each import
MIN_PASSES = 2
SEGMENT_PROBES = 8
# Run in a fresh interpreter: CPU time of the import, then array probe times
# taken there, so the probe's arrays stay out of the benchmark's own memory.
IMPORT_PROBE = f"""
import time
t = time.process_time()
import rfloc.cli
t = time.process_time() - t
import workloads
workloads.ARRAY_PROBE()
print(t, *(workloads.ARRAY_PROBE() for _ in range({SETUP_PROBES})))
"""


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every pool (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_rfloc(src: str) -> None:
    if not os.path.isfile(os.path.join(src, "rfloc", "__init__.py")):
        raise SystemExit(f"error: no rfloc sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import rfloc.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(rfloc.__file__)) != os.path.join(src, "rfloc"):
        raise SystemExit(f"error: rfloc was imported from {rfloc.__file__}, not {src}")


def _import_seconds(src: str) -> tuple[list[float], list[float]]:
    """CPU time of `import rfloc.cli` in fresh interpreters, as a user's first
    call pays it, and the array probe times taken in each after the import.

    Over 186 imports on a 2-vCPU Xeon virtual machine, import CPU time spread
    by 0.15 (quartile distance over median) raw, 0.16 scaled by the call
    probe and 0.07 scaled by the array probe.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    imports, probes = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        imports.append(float(out[0]))
        probes += [float(x) for x in out[1:]]
    return imports, probes


@dataclass
class Timings:
    """Per op, one entry per pass: wall and CPU seconds and the probe segment
    the run fell in; per segment, its speed probe times (CPU seconds)."""

    wall: list[list[float]]
    cpu: list[list[float]]
    segment: list[list[int]]
    probes: list[list[float]]

    def ref(self, probe) -> list[list[float]]:
        """CPU seconds scaled by their segment's median probe, in reference seconds."""
        scales = [probe.ref_s / statistics.median(p) for p in self.probes]
        return [[c * scales[k] for c, k in zip(cpu, seg)]
                for cpu, seg in zip(self.cpu, self.segment)]

    def median_probe(self) -> float:
        return statistics.median(x for p in self.probes for x in p)


class Runner:
    """Times the ops of one workload and checks every output."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = [op for op in ops if op.timed]
        self.audit_ops = [op for op in ops if not op.timed]
        self.pool = None
        self.digests: dict[str, str] = {}
        self.violations: list[str] = []

    def run_op(self, op, serialize=None):
        return op, self.workload.run(op, serialize or self.workload.serialize)

    def check(self, op, result):
        outcome = self.workload.check(op, result)
        if self.digests.setdefault(op.name, outcome.digest) != outcome.digest:
            outcome.violations.append(f"{op.name}: report differs between two runs of "
                                      "the same input (timestamp removed)")
        self.violations += outcome.violations
        return outcome

    @property
    def timed_outcomes(self):
        """The timed ops' outcomes, once each: they depend on the seed alone."""
        return self.pool[:len(self.ops)]

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.timed_outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.timed_outcomes)

    def passes(self, seconds, call=None):
        """MIN_PASSES whole passes over the pool, then more while one fits in `seconds`.

        Returns the Timings and the first pass's outcomes. Checks run between
        ops, outside the timed calls. Untimed ops run once after the first
        pass and count only in the pool, which the first pass of the first
        call fills.
        """
        import workloads
        call = call or (lambda i, op: self.run_op(op))
        probe = self.workload.probe
        t = Timings([[] for _ in self.ops], [[] for _ in self.ops],
                    [[] for _ in self.ops], [[]])
        first = []
        since_probe = 0.0
        start = time.perf_counter()
        n = 0
        while True:
            for i, op in enumerate(self.ops):
                t0, c0 = time.perf_counter(), time.process_time()
                result = call(i, op)
                t.cpu[i].append(time.process_time() - c0)
                t.wall[i].append(time.perf_counter() - t0)
                t.segment[i].append(len(t.probes) - 1)
                since_probe += t.wall[i][-1]
                while since_probe >= probe.every_s:
                    t.probes[-1].append(probe())
                    since_probe -= probe.every_s
                    if len(t.probes[-1]) == SEGMENT_PROBES:
                        t.probes.append([])
                outcome = self.check(*result)
                if n == 0:
                    first.append(outcome)
            if n == 0 and self.pool is None:
                t_audit = time.perf_counter()
                self.pool = first + [self.check(*self.run_op(op)) for op in self.audit_ops]
                self.violations += workloads.check_pool(self.pool)
                start += time.perf_counter() - t_audit
            n += 1
            elapsed = time.perf_counter() - start
            if n >= MIN_PASSES and elapsed + elapsed / n > seconds:
                t.probes[-1] = t.probes[-1] or [probe()]
                return t, first


def _percentiles_ms(latencies):
    """Per-op medians over passes, their p50 and p90 in ms, and their sum in s."""
    lat = [statistics.median(x) for x in latencies]
    p50, p90 = (statistics.quantiles(lat, n=10, method="inclusive")[i] * 1e3
                for i in (4, 8))
    return p50, p90, sum(lat)


def _end_to_end(runner, t, setup_s):
    """End-to-end metrics from CPU times scaled by their segment's probes."""
    ops = runner.ops
    unit, attempts = runner.workload.unit, runner.workload.attempt_unit
    probe = runner.workload.probe
    wall_p50, wall_p90, wall_pass_s = _percentiles_ms(t.wall)
    p50, p90, pass_s = _percentiles_ms(t.ref(probe))
    n_probes = sum(map(len, t.probes))
    work = sum(op.work for op in ops)
    attempted, failed = runner.attempted, runner.failed
    errs = sorted(e for o in runner.timed_outcomes for e in o.errors_m)
    err_p50 = statistics.median(errs)

    kind = "fix" if unit == "fixes" else "op"
    what = "grid_search call" if unit == "Mnodes" else "parse+run+serialize"
    print(f"passes={len(t.cpu[0])} ops/pass={len(ops)} {unit}/pass={work:g} "
          f"pass_s={wall_pass_s:.4f} wall, {pass_s:.4f} ref (sums of per-op median "
          "latencies)")
    print(f"{probe.name} speed probe: median {t.median_probe() * 1e3:.4f} CPU ms, n={n_probes} "
          f"in {len(t.probes)} segments, reference {probe.ref_s * 1e3:g} ms")
    print(f"{runner.workload.rate} = {work / wall_pass_s:.6g} {unit}/s wall, "
          f"{work / pass_s:.6g} {unit}/ref_s")
    print(f"{kind}_p50_ms = {wall_p50:.6g} ms, {kind}_p90_ms = {wall_p90:.6g} ms wall; "
          f"{p50:.6g}, {p90:.6g} ref_ms "
          f"(n={len(ops)} ops, median of {len(t.cpu[0])} passes, {what})")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} "
          f"(failed / attempted {attempts}, each pool op once)")
    print(f"err_p50_m = {err_p50:.6g} m (median over n={len(errs)} {attempts} of the "
          "distance to truth, failed = +inf)")
    nf = [sum(o.noise_free[i] for o in runner.pool) for i in (0, 1)]
    if nf[1]:
        print(f"noise-free fixes within 1e-3 m of the drone centroid: {nf[0]}/{nf[1]}")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_ref_s": (len(ops) / pass_s, "ops/ref_s"),
        "op_p50_ref_ms": (p50, "ref_ms"),
        "op_p90_ref_ms": (p90, "ref_ms"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(runner, seconds, workdir):
    """Untraced passes, then traced passes of the same pool; per-layer metrics."""
    import tracing
    base, _ = runner.passes(seconds / 2)
    tracer = tracing.Tracer()
    serialize = runner.workload.serialize
    if serialize is not None:
        serialize = tracer.wrap("cli", "serialize", serialize)
    tracer.install()
    try:
        traced, first = runner.passes(
            seconds / 2, lambda i, op: tracer.op(i, runner.run_op, op, serialize))
    finally:
        tracer.uninstall()
    spans_path = os.path.join(workdir, "spans.csv")
    tracer.write(spans_path)
    n_ops = sum(len(lat) for lat in traced.wall)
    # Mean wall time per op, as the span sums give it. The untraced mean is
    # moved to the traced passes' machine speed by the two halves' probes.
    traced_ms = statistics.fmean(x for lat in traced.wall for x in lat) * 1e3
    base_ms = statistics.fmean(x for lat in base.wall for x in lat) * 1e3 \
        * traced.median_probe() / base.median_probe()
    metrics = tracing.layer_metrics(tracer.spans, n_ops,
                                    statistics.fmean(o.report_bytes for o in first))
    metrics["trace.untraced_op_ms"] = (base_ms, "ms/op")
    metrics["trace.overhead_ms"] = (traced_ms - base_ms, "ms/op")
    metrics["trace.overhead_ratio"] = (traced_ms / base_ms - 1.0, "ratio")
    print(f"traced ops={n_ops}, untraced ops={sum(len(lat) for lat in base.wall)}, "
          f"spans={len(tracer.spans)} in {spans_path}")
    print(f"op {traced_ms:.4f} ms traced, {base_ms:.4f} ms untraced (at the traced "
          f"passes' speed): tracing overhead {traced_ms - base_ms:.4f} ms/op")
    print(f"layer self times {metrics['trace.layers_ms'][0]:.4f} ms/op + unattributed "
          f"{metrics['trace.unattributed_ms'][0]:.4f} ms/op = traced op span "
          f"{metrics['trace.op_ms'][0]:.4f} ms/op")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    _import_rfloc(src)

    import numpy as np

    import rfloc
    import workloads
    from rfloc import _kernels

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench_work", args.workload)

    env = {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
           "HAVE_NUMBA": getattr(_kernels, "HAVE_NUMBA", False),
           "USING_NUMBA": getattr(_kernels, "USING_NUMBA", False),
           "rfloc": rfloc.__version__, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "small": args.small}
    print("env " + json.dumps(env))

    # Set-up: import, generate and write the seeded files, parse them, one
    # warm-up op. Each part runs SETUP_REPEATS times and its median counts,
    # scaled by the probe that tracks it.
    probe = workload.probe
    probe()  # the first call pays numpy's lazy set-up
    imports, import_probes = _import_seconds(src)
    probes = [probe() for _ in range(SETUP_PROBES)]
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)])
        ops = workload.generate(rng, workdir, 0.125 if args.small else 1.0)
        workloads.prepare(ops)
        runner = Runner(workload, ops)
        warm = runner.run_op(ops[0])
        setups.append(time.process_time() - c0)
        setup_walls.append(time.perf_counter() - t0)
        probes += [probe() for _ in range(SETUP_PROBES)]
    setup_cpu = statistics.median(imports) + statistics.median(setups)
    setup_s = (statistics.median(imports) * workloads.ARRAY_PROBE.ref_s
               / statistics.median(import_probes)
               + statistics.median(setups) * probe.ref_s / statistics.median(probes))
    runner.check(*warm)
    print(f"setup_s = {setup_cpu:.6g} CPU s (median import "
          f"{statistics.median(imports):.4g} s + median set-up "
          f"{statistics.median(setups):.4g} s, {SETUP_REPEATS} each; set-up "
          f"{statistics.median(setup_walls):.4g} s wall), {setup_s:.6g} reference s")

    if args.trace:
        metrics = _traced(runner, args.seconds, workdir)
    else:
        metrics = _end_to_end(runner, runner.passes(args.seconds)[0], setup_s)

    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    if runner.violations:
        for v in runner.violations[:20]:
            print(f"CHECK FAILED: {v}", file=sys.stderr)
        print(f"{len(runner.violations)} output check(s) failed", file=sys.stderr)
        return 1
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
