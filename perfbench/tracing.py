"""Span tracing of rfloc's public entry points, installed from outside the package.

Each entry point is wrapped once and the wrapper is bound in every loaded
`rfloc` module that holds the original function, because `rfloc.cli` and
friends import by name. A span records (layer, name, start, end, parent,
op id, info); spans stay in memory until the run ends. A layer's self time
is its spans' durations minus the time their child spans cover.

An entry point or module missing from the package is skipped, so its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# layer -> (module, entry points). Layers are the rfloc modules.
ENTRY_POINTS = {
    "cli": ("rfloc.cli", ("parse_scenario", "run", "report_to_csv")),
    "simulate": ("rfloc.simulate", ("simulate_arrivals", "perturb_arrivals")),
    "tdoa": ("rfloc.tdoa", ("arrival_deltas", "locate_emitter_2d", "locate_emitter_3d")),
    "solver": ("rfloc.solver", ("gauss_newton_raw", "grid_search")),
    "trilat": ("rfloc.trilat", ("trilaterate_2d", "trilaterate_3d", "trilaterate_lsq",
                                "team_relative_position")),
    "kernels": ("rfloc._kernels", ("sum_sq_range_residuals", "sum_sq_tdoa_residuals")),
}

LAYERS = tuple(ENTRY_POINTS)

# (layer, name, t0, t1, parent index, op id, info)
LAYER, NAME, T0, T1, PARENT, OP, INFO = range(7)


def _gn_info(result, args, kwargs):
    return (result[2], bool(result[3]))


def _locate_info(result, args, kwargs):
    return len(result.candidates)


def _closed_form_info(result, args, kwargs):
    return "inconsistent" in result.flags


def _lsq_info(result, args, kwargs):
    return result.iterations


def _kernel_info(result, args, kwargs):
    points = np.asarray(args[0])
    return points.shape[0], points.shape[1]


# Values a span records from a successful call, by entry-point name.
_INFO = {
    "gauss_newton_raw": _gn_info,
    "locate_emitter_2d": _locate_info,
    "locate_emitter_3d": _locate_info,
    "trilaterate_2d": _closed_form_info,
    "trilaterate_3d": _closed_form_info,
    "trilaterate_lsq": _lsq_info,
    "sum_sq_range_residuals": _kernel_info,
    "sum_sq_tdoa_residuals": _kernel_info,
}

FAILED = "failed"


class Tracer:
    """Collects spans for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            note = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    note = info(result, args, kwargs)
                return result
            except Exception:
                note = FAILED
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, self.op_id, note)

        return wrapper

    def _wrap_gauss_newton(self, fn):
        """Also time the residual and Jacobian callbacks passed into the solver."""
        traced = self.wrap("solver", "gauss_newton_raw", fn, _gn_info)
        residual_span = functools.partial(self.wrap, "solver", "residual")
        jacobian_span = functools.partial(self.wrap, "solver", "jacobian")

        @functools.wraps(fn)
        def wrapper(residual_fn, jacobian_fn, *args, **kwargs):
            return traced(residual_span(residual_fn), jacobian_span(jacobian_fn),
                          *args, **kwargs)

        return wrapper

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span of its own."""
        self.op_id = op_id
        try:
            return self.wrap("op", "op", fn)(*args)
        finally:
            self.op_id = -1

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rfloc" or name.startswith("rfloc."))]
        for layer, (module_name, names) in ENTRY_POINTS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                if name == "gauss_newton_raw":
                    wrapper = self._wrap_gauss_newton(original)
                else:
                    wrapper = self.wrap(layer, name, original, _INFO.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,name,start_s,end_s,parent,op,info\n")
            for s in self.spans:
                info = "" if s[INFO] is None else s[INFO]
                fh.write(f"{s[LAYER]},{s[NAME]},{s[T0]:.9f},{s[T1]:.9f},"
                         f"{s[PARENT]},{s[OP]},\"{info}\"\n")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, n_ops: int, report_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per op, from one traced pass set.

    Spans outside any op (output checks call objectives too) are left out.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    inside = [i for i, s in enumerate(spans) if s[OP] >= 0]
    self_by_layer = {layer: 0.0 for layer in LAYERS + ("op",)}
    dur: dict[str, list[float]] = {}
    self_by_name: dict[str, float] = {}
    for i in inside:
        s = spans[i]
        d = s[T1] - s[T0]
        self_t = d - child[i]
        self_by_layer[s[LAYER]] += self_t
        dur.setdefault(s[NAME], []).append(d)
        self_by_name[s[NAME]] = self_by_name.get(s[NAME], 0.0) + self_t

    def count(name):
        return len(dur.get(name, ()))

    def total(name):
        return sum(dur.get(name, ()))

    def per_op(x):
        return _ratio(x, n_ops)

    locate_idx = {i for i in inside
                  if spans[i][NAME] in ("locate_emitter_2d", "locate_emitter_3d")}
    locate = [spans[i] for i in sorted(locate_idx)]
    spans = [spans[i] for i in inside]
    gn = [s for s in spans if s[NAME] == "gauss_newton_raw"]
    gn_ok = [s for s in gn if s[INFO] != FAILED]
    gn_under_locate = sum(1 for s in gn if s[PARENT] in locate_idx)
    cands = sum(s[INFO] for s in locate if s[INFO] != FAILED)
    located = sum(1 for s in locate if s[INFO] != FAILED)
    closed = [s for s in spans if s[NAME] in ("trilaterate_2d", "trilaterate_3d")]
    lsq = [s for s in spans if s[NAME] == "trilaterate_lsq" and s[INFO] != FAILED]
    kernels = [s for s in spans if s[LAYER] == "kernels" and s[INFO] != FAILED]
    nodes = sum(s[INFO][0] for s in kernels)

    def kernel_rate(name):
        ks = [s for s in kernels if s[NAME] == name]
        return _ratio(sum(s[INFO][0] for s in ks), sum(s[T1] - s[T0] for s in ks)) / 1e6

    ms, us = 1e3, 1e6
    return {
        "cli.parse_ms": (per_op(total("parse_scenario")) * ms, "ms/op"),
        "cli.self_ms": (per_op(self_by_name.get("run", 0.0)) * ms, "ms/op"),
        "cli.serialize_ms": (per_op(total("serialize")) * ms, "ms/op"),
        "cli.report_bytes": (report_bytes, "B/op"),
        "simulate.calls": (per_op(count("simulate_arrivals") + count("perturb_arrivals")),
                           "calls/op"),
        "simulate.self_us": (per_op(self_by_layer["simulate"]) * us, "us/op"),
        "tdoa.solves": (per_op(len(locate)), "solves/op"),
        "tdoa.solve_p50_us": (_pct([s[T1] - s[T0] for s in locate], 50) * us, "us"),
        "tdoa.solve_p90_us": (_pct([s[T1] - s[T0] for s in locate], 90) * us, "us"),
        "tdoa.self_ms": (per_op(self_by_layer["tdoa"]) * ms, "ms/op"),
        "tdoa.gn_runs_per_solve": (_ratio(gn_under_locate, len(locate)), "runs/solve"),
        "tdoa.candidates_per_solve": (_ratio(cands, located), "cands/solve"),
        "tdoa.useful_run_ratio": (_ratio(cands, gn_under_locate), "ratio"),
        "tdoa.failed": (per_op(len(locate) - located), "solves/op"),
        "solver.gn_runs": (per_op(len(gn)), "runs/op"),
        "solver.gn_iters_per_run": (_ratio(sum(s[INFO][0] for s in gn_ok), len(gn_ok)),
                                    "iters/run"),
        "solver.gn_converged_ratio": (_ratio(sum(s[INFO][1] for s in gn_ok), len(gn)),
                                      "ratio"),
        "solver.residual_evals": (per_op(count("residual")), "evals/op"),
        "solver.jacobian_evals": (per_op(count("jacobian")), "evals/op"),
        "solver.gn_self_ms": (per_op(self_by_name.get("gauss_newton_raw", 0.0)) * ms,
                              "ms/op"),
        "solver.callback_ms": (per_op(self_by_name.get("residual", 0.0)
                                      + self_by_name.get("jacobian", 0.0)) * ms, "ms/op"),
        "solver.grid_self_ms": (per_op(self_by_name.get("grid_search", 0.0)) * ms, "ms/op"),
        "solver.self_ms": (per_op(self_by_layer["solver"]) * ms, "ms/op"),
        "trilat.closed_form_calls": (per_op(len(closed)), "calls/op"),
        "trilat.closed_form_p50_us": (_pct([s[T1] - s[T0] for s in closed], 50) * us, "us"),
        "trilat.inconsistent": (per_op(sum(1 for s in closed if s[INFO] is not False)),
                                "calls/op"),
        "trilat.team_p50_us": (_pct(dur.get("team_relative_position", []), 50) * us, "us"),
        "trilat.lsq_iters": (_ratio(sum(s[INFO] for s in lsq), len(lsq)), "iters/call"),
        "trilat.self_ms": (per_op(self_by_layer["trilat"]) * ms, "ms/op"),
        "kernels.nodes": (per_op(nodes), "nodes/op"),
        "kernels.mnodes_per_s": (_ratio(nodes, sum(s[T1] - s[T0] for s in kernels)) / 1e6,
                                 "Mnodes/s"),
        "kernels.range_mnodes_per_s": (kernel_rate("sum_sq_range_residuals"), "Mnodes/s"),
        "kernels.tdoa_mnodes_per_s": (kernel_rate("sum_sq_tdoa_residuals"), "Mnodes/s"),
        # Computed, not measured: a kernel reads dim float64 coordinates and
        # writes one float64 value per node.
        "kernels.computed_bytes_per_node": (
            _ratio(sum(s[INFO][0] * 8 * (s[INFO][1] + 1) for s in kernels), nodes), "B/node"),
        "kernels.share": (_ratio(sum(s[T1] - s[T0] for s in kernels), total("grid_search")),
                          "ratio"),
        "kernels.self_ms": (per_op(self_by_layer["kernels"]) * ms, "ms/op"),
        "trace.op_ms": (per_op(total("op")) * ms, "ms/op"),
        "trace.layers_ms": (per_op(sum(self_by_layer[layer] for layer in LAYERS)) * ms,
                            "ms/op"),
        "trace.unattributed_ms": (per_op(self_by_layer["op"]) * ms, "ms/op"),
        "trace.spans_per_op": (per_op(len(spans)), "spans/op"),
    }
