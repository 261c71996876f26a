"""Command-line surface: scenario files in, machine-readable reports out.

Verbs:
    rfloc run <file>         solve the scenario, print a JSON report
    rfloc validate <file>    parse and validate only
    rfloc export-csv <file>  run, then emit one CSV row per solve/trial

Scenario files are single JSON documents (schema_version 1); distances are
meters, times seconds, frequencies hertz. Exit codes: 0 success, 1 a solve
raised an error (embedded in the report), 2 malformed input.

Reports are deterministic for a fixed file and seed: apart from the
timestamp field, identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__
from .doppler import DopplerReading, doppler_distance, doppler_shift
from .errors import GeometryDegenerate, NoConvergence, ParseError, RflocError, ValidationError
from .geometry import Point, distance
from .simulate import (DistanceMatrix, Scenario, perturb_arrivals, perturb_times,
                       simulate_arrivals)
from .solver import _TIE_EPS, SolveResult, SolverOptions
from .tdoa import arrival_deltas, locate_emitter_2d, locate_emitter_3d
from .trilat import (
    TrilaterationProblem,
    team_relative_position,
    trilaterate_2d,
    trilaterate_3d,
    trilaterate_batch,
)

__all__ = ["ScenarioFile", "parse_scenario", "run", "report_to_csv", "main"]

MODES = ("doppler", "tdoa2d", "tdoa3d", "trilat2d", "trilat3d", "pipeline")

_SCENARIO_KEYS = {"emitters", "receivers", "c", "carrier", "emission_time",
                  "noise_sigma_t", "seed", "distances"}
_SOLVE_KEYS = {"mode", "options", "emitter_plane_z"}
_OPTION_KEYS = {"max_iterations", "step_tolerance", "residual_tolerance",
                "damping_initial", "multistart_count"}
_TOP_KEYS = {"schema_version", "scenario", "solve", "monte_carlo", "doppler"}
# Report rows a Monte-Carlo sweep may ask for (trials x sigmas); each row is
# kept in memory and written out, so a bigger sweep is refused, not truncated.
MC_MAX_ROWS = 1_000_000


@dataclass(frozen=True)
class ScenarioFile:
    """A validated scenario document plus the raw dict it came from."""

    schema_version: int
    mode: str
    emitters: tuple[Point, ...]
    receivers: tuple[Point, ...]
    c: float
    carrier: float
    emission_time: float
    noise_sigma_t: float
    seed: int
    distances: tuple[float, ...] | None
    options: SolverOptions
    emitter_plane_z: float | None
    monte_carlo_trials: int | None
    monte_carlo_sigmas: tuple[float, ...] | None
    doppler_f_received: float | None
    raw: dict

    def scenario(self) -> Scenario:
        return Scenario(emitters=self.emitters, receivers=self.receivers, c=self.c,
                        carrier=self.carrier, emission_time=self.emission_time,
                        noise_sigma_t=self.noise_sigma_t, seed=self.seed)


def _reject_unknown(obj: dict, allowed: set[str], context: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"unknown field {context}.{key}", field=key)


def _number(obj: dict, key: str, context: str, default=None, *,
            nonneg=False, positive=False) -> float:
    if key not in obj:
        if default is None:
            raise ValidationError(f"missing field {context}.{key}", field=key)
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValidationError(f"{context}.{key} must be a finite number", field=key)
    value = float(value)
    if positive and value <= 0.0:
        raise ValidationError(f"{context}.{key} must be positive", field=key)
    if nonneg and value < 0.0:
        raise ValidationError(f"{context}.{key} must be >= 0", field=key)
    return value


def _count(obj: dict, key: str, context: str, default=None) -> int:
    """A positive whole number; 3.0 is accepted, 2.7 is rejected, never truncated."""
    value = _number(obj, key, context, default, positive=True)
    if not value.is_integer():
        raise ValidationError(f"{context}.{key} must be a whole number", field=key)
    return int(value)


def _points(obj: dict, key: str, context: str, expect_dim: int | None) -> tuple[Point, ...]:
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        raise ValidationError(f"{context}.{key} must be a list of coordinate lists",
                              field=key)
    points = []
    for i, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) not in (2, 3)
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in entry)):
            raise ValidationError(
                f"{context}.{key}[{i}] must be [x, y] or [x, y, z]", field=key)
        points.append(Point.of(*[float(v) for v in entry]))
    dims = {p.dim for p in points}
    if len(dims) > 1:
        raise ValidationError(f"{context}.{key} mixes 2D and 3D points", field=key)
    if points and expect_dim is not None and points[0].dim != expect_dim:
        raise ValidationError(
            f"{context}.{key} must be {expect_dim}D for this mode", field=key)
    return tuple(points)


def _validate(raw: dict) -> ScenarioFile:
    if not isinstance(raw, dict):
        raise ValidationError("scenario document must be a JSON object", field="")
    _reject_unknown(raw, _TOP_KEYS, "")
    version = raw.get("schema_version")
    if version != 1:
        raise ValidationError(f"schema_version must be 1, got {version!r}",
                              field="schema_version")

    solve = raw.get("solve")
    if not isinstance(solve, dict):
        raise ValidationError("missing or invalid 'solve' section", field="solve")
    _reject_unknown(solve, _SOLVE_KEYS, "solve")
    mode = solve.get("mode")
    if mode not in MODES:
        raise ValidationError(f"solve.mode must be one of {MODES}, got {mode!r}",
                              field="mode")
    opts_raw = solve.get("options", {})
    if not isinstance(opts_raw, dict):
        raise ValidationError("solve.options must be an object", field="options")
    _reject_unknown(opts_raw, _OPTION_KEYS, "solve.options")
    options = SolverOptions(
        max_iterations=_count(opts_raw, "max_iterations", "solve.options", default=100.0),
        step_tolerance=_number(opts_raw, "step_tolerance", "solve.options",
                               default=1e-10, positive=True),
        residual_tolerance=_number(opts_raw, "residual_tolerance", "solve.options",
                                   default=1e-12, positive=True),
        damping_initial=_number(opts_raw, "damping_initial", "solve.options",
                                default=1e-3, positive=True),
        multistart_count=_count(opts_raw, "multistart_count", "solve.options",
                                default=9.0),
    )
    plane = None
    if "emitter_plane_z" in solve:
        value = solve["emitter_plane_z"]
        if value is not None:
            plane = _number(solve, "emitter_plane_z", "solve")
    elif mode in ("tdoa3d", "pipeline"):
        plane = 0.0

    scen = raw.get("scenario")
    if not isinstance(scen, dict):
        raise ValidationError("missing or invalid 'scenario' section", field="scenario")
    _reject_unknown(scen, _SCENARIO_KEYS, "scenario")
    expect_dim = {"tdoa2d": 2, "trilat2d": 2, "tdoa3d": 3,
                  "trilat3d": 3, "pipeline": 3}.get(mode)
    emitters = _points(scen, "emitters", "scenario", expect_dim)
    receivers = _points(scen, "receivers", "scenario", expect_dim)
    c = _number(scen, "c", "scenario", default=3.0e8, positive=True)
    carrier = _number(scen, "carrier", "scenario", default=1.0e9, positive=True)
    emission_time = _number(scen, "emission_time", "scenario", default=0.0)
    noise_sigma_t = _number(scen, "noise_sigma_t", "scenario", default=0.0, nonneg=True)
    seed_val = scen.get("seed", 0)
    if isinstance(seed_val, bool) or not isinstance(seed_val, int) or seed_val < 0:
        raise ValidationError("scenario.seed must be a non-negative integer", field="seed")

    distances = None
    if "distances" in scen:
        raw_d = scen["distances"]
        if (not isinstance(raw_d, list) or not raw_d
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0
                       or not math.isfinite(v) for v in raw_d)):
            raise ValidationError("scenario.distances must be a list of ranges >= 0",
                                  field="distances")
        distances = tuple(float(v) for v in raw_d)

    # Mode-specific shape rules.
    if mode in ("trilat2d", "trilat3d"):
        if len(emitters) != 3:
            raise ValidationError(f"{mode} needs exactly 3 emitters", field="emitters")
        if (distances is None) == (len(receivers) == 0):
            raise ValidationError(
                "trilat modes need exactly one range source: scenario.distances "
                "or scenario.receivers", field="distances")
        if distances is not None and len(distances) != len(emitters):
            raise ValidationError("one distance per emitter required", field="distances")
    elif mode in ("tdoa2d", "tdoa3d", "pipeline"):
        if distances is not None:
            raise ValidationError(f"{mode} derives ranges from geometry; "
                                  "scenario.distances not allowed", field="distances")
        if len(receivers) != 3:
            raise ValidationError(f"{mode} needs exactly 3 receivers", field="receivers")
        need_emitters = 3 if mode == "pipeline" else 1
        if len(emitters) < need_emitters:
            raise ValidationError(f"{mode} needs at least {need_emitters} emitter(s)",
                                  field="emitters")
        if mode == "pipeline" and len(emitters) != 3:
            raise ValidationError("pipeline needs exactly 3 emitters", field="emitters")

    dopp = raw.get("doppler")
    f_received = None
    if mode == "doppler":
        if not isinstance(dopp, dict):
            raise ValidationError("doppler mode needs a 'doppler' section",
                                  field="doppler")
        _reject_unknown(dopp, {"f_received"}, "doppler")
        f_received = _number(dopp, "f_received", "doppler", positive=True)
    elif dopp is not None:
        raise ValidationError("'doppler' section only valid in doppler mode",
                              field="doppler")

    mc_trials = mc_sigmas = None
    mc = raw.get("monte_carlo")
    if mc is not None:
        if not isinstance(mc, dict):
            raise ValidationError("monte_carlo must be an object", field="monte_carlo")
        _reject_unknown(mc, {"trials", "sigma_t_list"}, "monte_carlo")
        mc_trials = _count(mc, "trials", "monte_carlo")
        sig = mc.get("sigma_t_list")
        if (not isinstance(sig, list) or not sig
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0
                       or not math.isfinite(v) for v in sig)):
            raise ValidationError("monte_carlo.sigma_t_list must be a list of "
                                  "sigmas >= 0", field="sigma_t_list")
        mc_sigmas = tuple(float(v) for v in sig)
        if mc_trials * len(mc_sigmas) > MC_MAX_ROWS:
            raise ValidationError(
                f"monte_carlo.trials x len(monte_carlo.sigma_t_list) = "
                f"{mc_trials} x {len(mc_sigmas)} exceeds {MC_MAX_ROWS} report rows",
                field="trials")
        if mode == "doppler":
            raise ValidationError("monte_carlo is not applicable to doppler mode",
                                  field="monte_carlo")
        if mode in ("trilat2d", "trilat3d") and distances is not None:
            raise ValidationError("monte_carlo needs geometry-derived ranges, not "
                                  "explicit distances", field="monte_carlo")
        if mode.startswith("tdoa") and len(emitters) != 1:
            raise ValidationError("tdoa monte_carlo expects exactly 1 emitter",
                                  field="emitters")
        if mode.startswith("trilat") and len(receivers) != 1:
            raise ValidationError("trilat monte_carlo expects exactly 1 receiver",
                                  field="receivers")

    return ScenarioFile(
        schema_version=1, mode=mode, emitters=emitters, receivers=receivers,
        c=c, carrier=carrier, emission_time=emission_time,
        noise_sigma_t=noise_sigma_t, seed=seed_val, distances=distances,
        options=options, emitter_plane_z=plane,
        monte_carlo_trials=mc_trials, monte_carlo_sigmas=mc_sigmas,
        doppler_f_received=f_received, raw=raw,
    )


def parse_scenario(path: str) -> ScenarioFile:
    """Load and validate a scenario file.

    Raises ParseError for malformed JSON (with line/column) and
    ValidationError (naming the field) for schema violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _validate(raw)


# ---------------------------------------------------------------------------
# Solve dispatch
# ---------------------------------------------------------------------------

def _coords3(p: Point) -> list[float]:
    return [p.x, p.y, p.z]


def _solve_entry(kind: str, result: SolveResult, truth: Point | None,
                 **extra) -> dict:
    entry = {
        "kind": kind,
        **extra,
        "estimate": _coords3(result.estimate),
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "flags": sorted(result.flags),
        "candidates": [[_coords3(p), n] for p, n in result.candidates],
    }
    if truth is not None:
        entry["truth"] = _coords3(truth)
        entry["error_m"] = distance(result.estimate, truth)
    return entry


def _locate_one(sf: ScenarioFile, arrivals, emitter_index: int) -> SolveResult:
    rd = arrival_deltas(arrivals, emitter_index, 0, sf.c)
    if sf.mode == "tdoa2d":
        return locate_emitter_2d(sf.receivers, rd, sf.options)
    return locate_emitter_3d(sf.receivers, rd, sf.emitter_plane_z, sf.options)


def _tdoa_solves(sf: ScenarioFile, arrivals):
    return [(_locate_one(sf, arrivals, j), sf.emitters[j])
            for j in range(len(sf.emitters))]


def _trilat_problem(sf: ScenarioFile, ranges: Sequence[float]) -> TrilaterationProblem:
    dim = 2 if sf.mode == "trilat2d" else 3
    return TrilaterationProblem(sf.emitters, tuple(ranges), dim)


def _ranges(sf: ScenarioFile, times: np.ndarray) -> np.ndarray:
    """Ranges from arrival timestamps; jitter can push one below 0, which clamps."""
    return np.maximum(sf.c * (times - sf.emission_time), 0.0)


def _trilat_solves(sf: ScenarioFile, arrivals):
    """(result, receiver, index) per receiver; arrivals is None for explicit distances."""
    solve = trilaterate_2d if sf.mode == "trilat2d" else trilaterate_3d
    if sf.distances is not None:
        return [(solve(_trilat_problem(sf, sf.distances)), None, None)]
    return [(solve(_trilat_problem(sf, _ranges(sf, arrivals.times[i]))), receiver, i)
            for i, receiver in enumerate(sf.receivers)]


def _far_candidate(result: SolveResult, centroid: np.ndarray) -> Point:
    """Among residual-tied candidates, the one farthest from the receiver centroid.

    Residual-tied TDOA candidates reproduce the measurements equally well; for
    the two-step pipeline the far-field one gives the better-conditioned
    reference geometry for the team trilateration, so it wins here.
    """
    best = min(n for _, n in result.candidates)
    tied = [(p, n) for p, n in result.candidates if n <= best + _TIE_EPS]
    return max(tied, key=lambda c: (float(np.linalg.norm(c[0].array - centroid)),
                                    c[0].x, c[0].y, c[0].z))[0]


def _pipeline_solves(sf: ScenarioFile, arrivals):
    centroid = np.mean([r.array for r in sf.receivers], axis=0)
    per_emitter = []
    estimates = []
    for j in range(len(sf.emitters)):
        result = _locate_one(sf, arrivals, j)
        chosen = _far_candidate(result, centroid)
        per_emitter.append((result, chosen))
        estimates.append(chosen)
    dm = DistanceMatrix(np.array([[distance(r, e) for e in estimates]
                                  for r in sf.receivers]))
    team = team_relative_position(sf.receivers, estimates, dm, sf.options)
    truth = Point.from_array(centroid, dim=3)
    return team, truth, per_emitter


def _single_run_entries(sf: ScenarioFile, sigma_t: float, seed: int) -> list[dict]:
    if sf.mode == "doppler":
        reading = DopplerReading(f_emitted=sf.carrier, f_received=sf.doppler_f_received,
                                 c=sf.c)
        est = doppler_distance(reading)
        return [{"kind": "doppler", "shift_hz": doppler_shift(reading),
                 "distance_m": est.meters, "idealized": est.idealized}]
    arrivals = None
    if sf.distances is None:
        arrivals = perturb_arrivals(simulate_arrivals(sf.scenario()), sigma_t, seed)
    if sf.mode.startswith("tdoa"):
        return [_solve_entry("tdoa_emitter", result, truth, emitter_index=j)
                for j, (result, truth) in enumerate(_tdoa_solves(sf, arrivals))]
    if sf.mode.startswith("trilat"):
        entries = []
        for result, truth, idx in _trilat_solves(sf, arrivals):
            extra = {} if idx is None else {"receiver_index": idx}
            entries.append(_solve_entry("trilat", result, truth, **extra))
        return entries
    team, truth, per_emitter = _pipeline_solves(sf, arrivals)
    entries = [_solve_entry("pipeline_emitter", result, sf.emitters[j],
                            emitter_index=j, selected=_coords3(chosen))
               for j, (result, chosen) in enumerate(per_emitter)]
    entries.append(_solve_entry("team_position", team, truth))
    return entries


def _mc_trial(sf: ScenarioFile, arrivals, sigma_t: float, seed: int) -> tuple:
    """One trial solved on its own: (x, y, z, residual_norm, converged, error_m).

    error_m is None when the solve did not converge. arrivals is None when the
    sweep's one simulation raised; simulating again raises it for this trial.
    """
    if arrivals is None:
        arrivals = simulate_arrivals(sf.scenario())
    noisy = perturb_arrivals(arrivals, sigma_t, seed)
    try:
        if sf.mode.startswith("tdoa"):
            result, truth = _tdoa_solves(sf, noisy)[0]
        elif sf.mode.startswith("trilat"):
            result, truth, _ = _trilat_solves(sf, noisy)[0]
        else:
            result, truth, _ = _pipeline_solves(sf, noisy)
    except NoConvergence as exc:
        p = exc.best.estimate
        return p.x, p.y, p.z, exc.best.residual_norm, False, None
    p = result.estimate
    return p.x, p.y, p.z, result.residual_norm, result.converged, distance(p, truth)


def _trilat_batch(sf: ScenarioFile, arrivals, seeds: range):
    """Every trial of a trilat sweep in one closed-form solve.

    Returns the estimates (S, T, D), residual norms (S, T) and rejected mask
    (S, T) for S sigmas by T trials, or None when the anchors are collinear.
    Each trial's jitter is drawn as perturb_arrivals draws it, so a row that
    is not rejected is bit-identical to _mc_trial's solve of that trial.
    """
    noisy = np.concatenate([perturb_times(arrivals.times, sigma_t, seeds)
                            for sigma_t in sf.monte_carlo_sigmas])
    try:
        solved = trilaterate_batch([p.coords for p in sf.emitters],
                                   _ranges(sf, noisy[:, 0]))
    except GeometryDegenerate:
        return None
    shape = (len(sf.monte_carlo_sigmas), len(seeds))
    return tuple(a.reshape(shape + a.shape[1:]) for a in solved)


def _monte_carlo(sf: ScenarioFile, base_seed: int, errors: list[dict]) -> dict:
    """Noise sweep: the true arrivals are simulated once, then each sigma_t
    runs monte_carlo.trials trials seeded base_seed + trial. Trilat sweeps
    solve every trial in one batched call first."""
    try:
        arrivals = simulate_arrivals(sf.scenario())
    except RflocError:
        arrivals = None  # every trial raises this error again
    seeds = range(base_seed, base_seed + sf.monte_carlo_trials)
    batch = None
    if arrivals is not None and sf.mode.startswith("trilat"):
        batch = _trilat_batch(sf, arrivals, seeds)
    rows = []
    summaries = []
    for i, sigma_t in enumerate(sf.monte_carlo_sigmas):
        if batch is not None:
            estimates, norms, rejected = (a[i].tolist() for a in batch)
        trial_errors = []
        for trial, seed in enumerate(seeds):
            try:
                if batch is None or rejected[trial]:
                    x, y, z, norm, converged, err = _mc_trial(sf, arrivals, sigma_t, seed)
                else:  # (*est, 0.0)[:3] is (x, y, z) with z = 0 for a 2D estimate
                    est = estimates[trial]
                    (x, y, z), norm, converged = (*est, 0.0)[:3], norms[trial], True
                    err = math.dist(est, sf.receivers[0].coords)
            except RflocError as exc:
                errors.append({"stage": f"monte_carlo sigma_t={sigma_t} trial={trial}",
                               "type": type(exc).__name__, "message": str(exc)})
                continue
            rows.append({"trial": trial, "sigma_t": sigma_t, "x": x, "y": y, "z": z,
                         "residual_norm": norm, "converged": converged, "error_m": err})
            if err is not None:
                trial_errors.append(err)
        mean, (p10, p50, p90) = None, (None, None, None)
        if trial_errors:
            mean = float(np.mean(trial_errors))
            p10, p50, p90 = np.quantile(trial_errors, [0.1, 0.5, 0.9]).tolist()
        summaries.append({"sigma_t": sigma_t, "n": len(trial_errors), "mean_error_m": mean,
                          "p10_error_m": p10, "median_error_m": p50, "p90_error_m": p90})
    return {"trials": sf.monte_carlo_trials,
            "sigma_t_list": list(sf.monte_carlo_sigmas),
            "summaries": summaries, "rows": rows}


def run(sf: ScenarioFile, seed: int | None = None) -> dict:
    """Execute a validated scenario and build the JSON-ready report.

    Module errors raised by individual solves are embedded under "errors"
    rather than propagated; the CLI turns a non-empty error list into exit
    code 1. Deterministic for a fixed scenario file and seed.
    """
    base_seed = sf.seed if seed is None else seed
    errors: list[dict] = []
    report = {
        "tool": {"name": "rfloc", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": base_seed,
        "mode": sf.mode,
        "input": sf.raw,
        "solves": [],
        "monte_carlo": None,
        "errors": errors,
    }
    try:
        report["solves"] = _single_run_entries(sf, sf.noise_sigma_t, base_seed)
    except NoConvergence as exc:
        errors.append({"stage": "solve", "type": "NoConvergence", "message": str(exc)})
        if exc.best is not None:
            report["solves"] = [_solve_entry("best_iterate", exc.best, None)]
    except RflocError as exc:
        errors.append({"stage": "solve", "type": type(exc).__name__, "message": str(exc)})

    if sf.monte_carlo_sigmas is not None:
        report["monte_carlo"] = _monte_carlo(sf, base_seed, errors)
    return report


def report_to_csv(report: dict) -> str:
    """Flatten a report into CSV rows: trial, sigma_t, mode, x, y, z, residual_norm, converged."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "sigma_t", "mode", "x", "y", "z",
                     "residual_norm", "converged"])
    mode = report["mode"]
    mc = report.get("monte_carlo")
    if mc:
        for row in mc["rows"]:
            writer.writerow([row["trial"], row["sigma_t"], mode, row["x"], row["y"],
                             row["z"], row["residual_norm"],
                             str(row["converged"]).lower()])
    else:
        sigma = report["input"].get("scenario", {}).get("noise_sigma_t", 0.0)
        for entry in report["solves"]:
            if "estimate" not in entry:
                continue
            x, y, z = entry["estimate"]
            writer.writerow([0, sigma, mode, x, y, z, entry["residual_norm"],
                             str(entry["converged"]).lower()])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfloc",
        description="RF relative-positioning scenario runner (TDOA, trilateration, "
                    "Doppler, team pipeline)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "solve a scenario and emit a JSON report"),
                            ("validate", "parse and validate a scenario file"),
                            ("export-csv", "solve a scenario and emit CSV rows")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="scenario JSON file")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress the stderr summary line")
        if name != "validate":
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the scenario seed")
            cmd.add_argument("--mode", choices=MODES, default=None,
                             help="override the solve mode")
            cmd.add_argument("--output", default=None,
                             help="write the report here instead of stdout")
    return parser


def _load_with_overrides(path: str, mode: str | None) -> ScenarioFile:
    sf = parse_scenario(path)
    if mode is not None and mode != sf.mode:
        raw = dict(sf.raw)
        raw["solve"] = dict(raw.get("solve", {}))
        raw["solve"]["mode"] = mode
        sf = _validate(raw)
    return sf


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            sf = parse_scenario(args.file)
            if not args.quiet:
                print(f"{args.file}: OK (mode={sf.mode}, {len(sf.emitters)} emitters, "
                      f"{len(sf.receivers)} receivers)")
            return 0
        if args.seed is not None and args.seed < 0:
            raise ValidationError("--seed must be non-negative", field="seed")
        sf = _load_with_overrides(args.file, args.mode)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    report = run(sf, seed=args.seed)
    if args.command == "run":
        _emit(json.dumps(report, indent=2), args.output)
    else:
        _emit(report_to_csv(report), args.output)
    if not args.quiet:
        n_err = len(report["errors"])
        status = "ok" if n_err == 0 else f"{n_err} solve error(s)"
        print(f"{args.file}: mode={report['mode']} solves={len(report['solves'])} "
              f"{status}", file=sys.stderr)
    return 0 if not report["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
