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
from .simulate import (ArrivalSet, DistanceMatrix, Scenario, perturb_arrivals, perturb_sweep,
                       simulate_arrivals)
from .solver import SolveResult, SolverOptions
from .tdoa import _fix, _fixes, _plane_batch, _range_differences, _triangle
from .trilat import (
    TrilaterationProblem,
    team_relative_position,
    trilaterate_2d,
    trilaterate_3d,
    _batch,
    _inconsistent,
)

__all__ = ["ScenarioFile", "parse_scenario", "run", "report_to_csv", "main"]

# mode -> (point dimension, family); doppler mode takes no points.
_MODES = {"doppler": (None, "doppler"), "tdoa2d": (2, "tdoa"), "tdoa3d": (3, "tdoa"),
          "trilat2d": (2, "trilat"), "trilat3d": (3, "trilat"), "pipeline": (3, "pipeline")}
MODES = tuple(_MODES)

# Report rows a Monte-Carlo sweep may ask for (trials x sigmas); each row is
# kept in memory and written out, so a bigger sweep is refused, not truncated.
MC_MAX_ROWS = 1_000_000
# Emitter solves per closed-form batch of a TDOA or pipeline sweep: enough
# rows that numpy's per-call cost vanishes, few enough that the batch's
# temporaries stay a few MB.
_MC_CHUNK = 1 << 14


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


# ---------------------------------------------------------------------------
# Field rules: each takes the JSON value and its "section.field" path and
# returns the parsed value or raises ValidationError naming the field.
# ---------------------------------------------------------------------------

def _fail(where: str, what: str) -> ValidationError:
    """The error for the value at where; its field is the last key, less any [i]."""
    return ValidationError(f"{where or 'scenario document'} {what}",
                           field=where.rpartition(".")[2].partition("[")[0])


def _finite(value, where: str) -> float:
    # abs() <= max also refuses NaN and integers beyond the float range.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise _fail(where, "must be a finite number")
    return float(value)


def _nonneg(value, where: str) -> float:
    value = _finite(value, where)
    if value < 0.0:
        raise _fail(where, "must be >= 0")
    return value


def _positive(value, where: str) -> float:
    value = _finite(value, where)
    if value <= 0.0:
        raise _fail(where, "must be positive")
    return value


def _count(value, where: str) -> int:
    """A positive whole number; 3.0 is accepted, 2.7 is rejected, never truncated."""
    value = _positive(value, where)
    if not value.is_integer():
        raise _fail(where, "must be a whole number")
    return int(value)


def _seed(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise _fail(where, "must be a non-negative integer")
    return value


def _nonneg_list(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise _fail(where, "must be a non-empty list of numbers >= 0")
    return tuple(_nonneg(v, f"{where}[{i}]") for i, v in enumerate(value))


def _points(value, where: str) -> tuple[Point, ...]:
    if not isinstance(value, list):
        raise _fail(where, "must be a list of coordinate lists")
    points = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise _fail(f"{where}[{i}]", "must be [x, y] or [x, y, z]")
        points.append(Point.of(*(_finite(v, f"{where}[{i}]") for v in entry)))
    if len({p.dim for p in points}) > 1:
        raise _fail(where, "mixes 2D and 3D points")
    return tuple(points)


def _plane(value, where: str) -> float | None:
    return None if value is None else _finite(value, where)


def _mode(value, where: str) -> str:
    if value not in MODES:
        raise _fail(where, f"must be one of {MODES}, got {value!r}")
    return value


def _schema_version(value, where: str) -> int:
    if isinstance(value, bool) or value != 1:
        raise _fail(where, f"must be 1, got {value!r}")
    return 1


def _section(value, path: str) -> dict:
    """value checked against _SECTIONS[path]: unknown keys are refused, fields
    are parsed in table order, and absent ones take their defaults."""
    if not isinstance(value, dict):
        raise _fail(path, "must be a JSON object")
    fields = _SECTIONS[path]
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in fields:
            raise ValidationError(f"unknown field {prefix}{key}", field=key)
    parsed = {}
    for key, (rule, default) in fields.items():
        if key in value:
            parsed[key] = rule(value[key], prefix + key)
        elif default is _REQUIRED:
            raise ValidationError(f"missing field {prefix}{key}", field=key)
        else:
            parsed[key] = default
    return parsed


def _by_mode(value, where: str):
    """Left as it is here; _validate checks it once the mode is known."""
    return value


_REQUIRED = "required"
# path -> field -> (rule, default); "" is the document itself. The field
# names of "scenario" are ScenarioFile's, those of "solve.options" are
# SolverOptions', less multistart_count: schema v1 still accepts it as a
# count, and it is ignored.
_SECTIONS = {
    "": {"schema_version": (_schema_version, _REQUIRED), "solve": (_section, _REQUIRED),
         "scenario": (_section, _REQUIRED), "doppler": (_by_mode, None),
         "monte_carlo": (_by_mode, None)},
    "solve": {"mode": (_mode, _REQUIRED), "options": (_section, {}),
              "emitter_plane_z": (_plane, None)},
    "solve.options": {"max_iterations": (_count, SolverOptions.max_iterations),
                      "step_tolerance": (_positive, SolverOptions.step_tolerance),
                      "residual_tolerance": (_positive, SolverOptions.residual_tolerance),
                      "damping_initial": (_positive, SolverOptions.damping_initial),
                      "multistart_count": (_count, None)},
    "scenario": {"emitters": (_points, ()), "receivers": (_points, ()),
                 "c": (_positive, 3.0e8), "carrier": (_positive, 1.0e9),
                 "emission_time": (_finite, 0.0), "noise_sigma_t": (_nonneg, 0.0),
                 "seed": (_seed, 0), "distances": (_nonneg_list, None)},
    "doppler": {"f_received": (_positive, _REQUIRED)},
    "monte_carlo": {"trials": (_count, _REQUIRED), "sigma_t_list": (_nonneg_list, _REQUIRED)},
}


def _validate(raw) -> ScenarioFile:
    doc = _section(raw, "")
    solve, scen, dopp, mc = doc["solve"], doc["scenario"], doc["doppler"], doc["monte_carlo"]
    mode = solve["mode"]
    dim, family = _MODES[mode]
    plane = solve["emitter_plane_z"]
    if family in ("tdoa", "pipeline"):
        if dim == 2 or "emitter_plane_z" not in raw["solve"]:
            plane = 0.0  # 2D emitters are solved on the plane z = 0; 3D ones default to ground
        elif plane is None:
            raise ValidationError(
                f"solve.emitter_plane_z must be a number in {mode} mode: three receivers "
                "give two range differences, too few for a free emitter height",
                field="emitter_plane_z")
    emitters, receivers, distances = scen["emitters"], scen["receivers"], scen["distances"]
    for key, points in (("emitters", emitters), ("receivers", receivers)):
        if points and dim is not None and points[0].dim != dim:
            raise ValidationError(f"scenario.{key} must be {dim}D for this mode", field=key)

    # Mode-specific shape rules.
    if family == "trilat":
        if len(emitters) != 3:
            raise ValidationError(f"{mode} needs exactly 3 emitters", field="emitters")
        if (distances is None) == (len(receivers) == 0):
            raise ValidationError(
                "trilat modes need exactly one range source: scenario.distances "
                "or scenario.receivers", field="distances")
        if distances is not None and len(distances) != len(emitters):
            raise ValidationError("one distance per emitter required", field="distances")
    elif family != "doppler":
        if distances is not None:
            raise ValidationError(f"{mode} derives ranges from geometry; "
                                  "scenario.distances not allowed", field="distances")
        if len(receivers) != 3:
            raise ValidationError(f"{mode} needs exactly 3 receivers", field="receivers")
        if not emitters or (family == "pipeline" and len(emitters) != 3):
            need = "exactly 3 emitters" if family == "pipeline" else "at least 1 emitter"
            raise ValidationError(f"{mode} needs {need}", field="emitters")

    f_received = None
    if family == "doppler":
        f_received = _section(dopp, "doppler")["f_received"]
    elif dopp is not None:
        raise ValidationError("'doppler' section only valid in doppler mode",
                              field="doppler")

    if mc is not None:
        mc = _section(mc, "monte_carlo")
        if mc["trials"] * len(mc["sigma_t_list"]) > MC_MAX_ROWS:
            raise ValidationError(
                f"monte_carlo.trials x len(monte_carlo.sigma_t_list) = "
                f"{mc['trials']} x {len(mc['sigma_t_list'])} exceeds {MC_MAX_ROWS} "
                "report rows", field="trials")
        if family == "doppler":
            raise ValidationError("monte_carlo is not applicable to doppler mode",
                                  field="monte_carlo")
        if family == "trilat" and distances is not None:
            raise ValidationError("monte_carlo needs geometry-derived ranges, not "
                                  "explicit distances", field="monte_carlo")
        if family == "tdoa" and len(emitters) != 1:
            raise ValidationError("tdoa monte_carlo expects exactly 1 emitter",
                                  field="emitters")
        if family == "trilat" and len(receivers) != 1:
            raise ValidationError("trilat monte_carlo expects exactly 1 receiver",
                                  field="receivers")

    options = {k: v for k, v in solve["options"].items() if k != "multistart_count"}
    return ScenarioFile(
        schema_version=1, mode=mode, **scen, options=SolverOptions(**options),
        emitter_plane_z=plane,
        monte_carlo_trials=None if mc is None else mc["trials"],
        monte_carlo_sigmas=None if mc is None else mc["sigma_t_list"],
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


def _ranges(sf: ScenarioFile, times: np.ndarray) -> np.ndarray:
    """Ranges from arrival timestamps; jitter can push one below 0, which clamps."""
    with np.errstate(over="ignore"):  # an overflowed range is refused downstream
        return np.maximum(sf.c * (times - sf.emission_time), 0.0)


def _receivers(sf: ScenarioFile) -> np.ndarray:
    """The receivers as 3D rows (R, 3); 2D ones lie on the plane z = 0."""
    return np.array([p.array for p in sf.receivers])


def _team(sf: ScenarioFile, chosen: Sequence[Point]) -> tuple[SolveResult, Point]:
    """The pipeline's team position from its chosen emitter roots, and its
    truth, the receiver centroid."""
    centroid = np.mean([r.array for r in sf.receivers], axis=0)
    dm = DistanceMatrix(np.array([[distance(r, e) for e in chosen] for r in sf.receivers]))
    return (team_relative_position(sf.receivers, chosen, dm, sf.options),
            Point.from_array(centroid, dim=3))


def _solves(sf: ScenarioFile, arrivals) -> list[tuple[str, SolveResult, Point | None, dict]]:
    """(kind, result, truth, extra report fields) per solve, in report order.

    arrivals is None for explicit trilat distances. A pipeline's team
    position comes last, after its per-emitter solves, which are solved in
    one batch.
    """
    dim, family = _MODES[sf.mode]
    if family == "trilat":
        solve = trilaterate_2d if dim == 2 else trilaterate_3d
        if sf.distances is not None:
            return [("trilat", solve(TrilaterationProblem(sf.emitters, sf.distances, dim)),
                     None, {})]
        return [("trilat", solve(TrilaterationProblem(
                    sf.emitters, tuple(_ranges(sf, arrivals.times[i])), dim)),
                 receiver, {"receiver_index": i}) for i, receiver in enumerate(sf.receivers)]
    fixes = _fixes(_receivers(sf), _range_differences(arrivals.times, sf.c),
                   sf.emitter_plane_z, dim, sf.options)
    if family == "tdoa":
        return [("tdoa_emitter", result, sf.emitters[j], {"emitter_index": j})
                for j, (result, _) in enumerate(fixes)]
    # Residual-tied TDOA candidates reproduce the measurements equally well;
    # for the two-step pipeline the one farthest from the receiver centroid
    # gives the better-conditioned reference geometry for the team
    # trilateration, so it wins here.
    chosen = [far for _, far in fixes]
    solves = [("pipeline_emitter", result, sf.emitters[j],
               {"emitter_index": j, "selected": _coords3(chosen[j])})
              for j, (result, _) in enumerate(fixes)]
    return solves + [("team_position", *_team(sf, chosen), {})]


def _single_run_entries(sf: ScenarioFile, arrivals: ArrivalSet | None,
                        seed: int) -> list[dict]:
    """The single-epoch solves; arrivals is the file's noise-free simulation,
    None for doppler mode and explicit trilat distances."""
    if _MODES[sf.mode][1] == "doppler":
        reading = DopplerReading(f_emitted=sf.carrier, f_received=sf.doppler_f_received,
                                 c=sf.c)
        est = doppler_distance(reading)
        return [{"kind": "doppler", "shift_hz": doppler_shift(reading),
                 "distance_m": est.meters, "idealized": est.idealized}]
    if arrivals is not None:
        arrivals = perturb_arrivals(arrivals, sf.noise_sigma_t, seed)
    return [_solve_entry(kind, result, truth, **extra)
            for kind, result, truth, extra in _solves(sf, arrivals)]


def _error_entry(stage: str, exc: RflocError) -> dict:
    return {"stage": stage, "type": type(exc).__name__, "message": str(exc)}


def _mc_outcome(solve) -> tuple | RflocError:
    """A sweep row from solve() -> (result, truth): (x, y, z, residual_norm,
    converged, error_m), with error_m None when the solve did not converge,
    or the error it raised."""
    try:
        result, truth = solve()
    except NoConvergence as exc:
        if exc.best is None:
            return exc
        p = exc.best.estimate
        return p.x, p.y, p.z, exc.best.residual_norm, False, None
    except RflocError as exc:
        return exc
    p = result.estimate
    return p.x, p.y, p.z, result.residual_norm, result.converged, distance(p, truth)


def _mc_trial(sf: ScenarioFile, times: np.ndarray) -> tuple | RflocError:
    """One trial solved on its own from its jittered arrival times.

    A sweep's row is its file's last solve: validation allows one emitter
    per tdoa sweep and one receiver per trilat sweep, and a pipeline's team
    position comes last.
    """
    return _mc_outcome(lambda: _solves(sf, ArrivalSet(times))[-1][1:3])


def _trilat_trials(sf: ScenarioFile, times: np.ndarray) -> list[tuple | RflocError]:
    """_mc_trial of every (R, E) slice of times, from one closed-form batch.

    A row the batch solves is bit-identical to _mc_trial's solve of it. A row
    whose radicand falls below the slack gets the Inconsistent error its
    scalar solve raises, from the batch's radicand. Only rows with
    non-finite times, ranges or results, and every row when the anchors are
    collinear, are solved again on their own.
    """
    ranges = _ranges(sf, times[:, 0])
    try:
        estimates, norms, rejected, miss, radicand = _batch(
            [p.coords for p in sf.emitters], ranges)
    except GeometryDegenerate:
        return [_mc_trial(sf, t) for t in times]
    finite = np.isfinite(times).all(axis=(1, 2)) & np.isfinite(ranges).all(axis=1)
    truth, dim = sf.receivers[0].coords, _MODES[sf.mode][0]
    trials = []
    for k, (est, norm, reject, missed, finite_row) in enumerate(zip(
            estimates.tolist(), norms.tolist(), rejected.tolist(), miss.tolist(),
            finite.tolist())):
        if not reject:  # (*est, 0.0)[:3] is (x, y, z) with z = 0 for a 2D estimate
            trials.append((*est, 0.0)[:3] + (norm, True, math.dist(est, truth)))
        elif missed and finite_row:
            trials.append(_inconsistent(dim, radicand[k]))
        else:
            trials.append(_mc_trial(sf, times[k]))
    return trials


def _tdoa_trials(sf: ScenarioFile, times: np.ndarray) -> list[tuple | RflocError]:
    """_mc_trial of every (R, E) slice of times, a TDOA or pipeline sweep,
    from closed-form batches of _MC_CHUNK emitter solves.

    Every trial is bit-identical to _mc_trial's solve of it: a tdoa row is
    its estimate, or its fallback run when the branches do not meet; a
    pipeline row is the team position from its emitters' farthest tied
    roots. Only trials with a non-finite time or difference are solved
    again on their own, as is every trial with collinear receivers.
    """
    dim, family = _MODES[sf.mode]
    plane = sf.emitter_plane_z
    recv = _receivers(sf)
    try:
        diam = _triangle(recv)
    except GeometryDegenerate:
        return [_mc_trial(sf, t) for t in times]
    n_emit = times.shape[2]
    deltas = _range_differences(times, sf.c).reshape(len(times), -1)
    finite = np.isfinite(times).all(axis=(1, 2)) & np.isfinite(deltas).all(axis=1)
    deltas[~finite] = 0.0  # solved again on their own
    deltas = deltas.reshape(-1, 2)
    truth = sf.emitters[0].array.tolist()
    trials = []
    per = max(1, _MC_CHUNK // n_emit)
    for lo in range(0, len(times), per):
        chunk = deltas[lo * n_emit:(lo + per) * n_emit]
        batch = _plane_batch(recv, chunk, plane, diam)
        rows = np.arange(len(chunk))
        est = batch.roots[rows, batch.ties[:, 0]].tolist()
        norm = batch.norms[rows, batch.ties[:, 0]].tolist()

        def fix(row):
            return _fix(recv, chunk, plane, dim, diam, batch, row, sf.options)

        rooted = batch.count.tolist()
        for i, finite_i in enumerate(finite[lo:lo + per].tolist()):
            if not finite_i:
                trials.append(_mc_trial(sf, times[lo + i]))
            elif family == "pipeline":
                emitters = range(i * n_emit, (i + 1) * n_emit)
                trials.append(_mc_outcome(lambda: _team(sf, [fix(r)[1] for r in emitters])))
            elif rooted[i]:
                x, y = est[i]
                trials.append((x, y, plane, norm[i], True, math.dist((x, y, plane), truth)))
            else:
                trials.append(_mc_outcome(lambda: (fix(i)[0], sf.emitters[0])))
    return trials


def _quantiles(values: Sequence[float], qs: Sequence[float]) -> list[float]:
    """np.quantile(values, qs).tolist() from one sort: numpy's default linear
    rule (Hyndman & Fan type 7), with its two-sided interpolation."""
    v = sorted(values)
    last = len(v) - 1
    out = []
    for q in qs:
        pos = last * q
        i = j = math.floor(pos)
        if pos >= last:
            i = j = -1  # numpy takes the last value, with gamma = pos + 1
        else:
            j += 1
        a, b = v[i], v[j]
        d, g = b - a, pos - i
        out.append(a + d * g if g < 0.5 else b - d * (1 - g))
    return out


def _monte_carlo(sf: ScenarioFile, arrivals: ArrivalSet | RflocError, base_seed: int,
                 errors: list[dict]) -> dict:
    """Noise sweep of the file's one noise-free simulation, or of the error
    simulating raised, which every trial then reports. Each sigma_t runs
    monte_carlo.trials trials seeded base_seed + trial; each seed's jitter
    is drawn once for all sigmas, and the trials of every sigma are solved
    in closed-form batches."""
    sigmas, trials = sf.monte_carlo_sigmas, sf.monte_carlo_trials
    if isinstance(arrivals, RflocError):
        outcomes = [[arrivals] * trials for _ in sigmas]
    else:
        noisy = perturb_sweep(arrivals.times, sigmas, range(base_seed, base_seed + trials))
        batched = _trilat_trials if _MODES[sf.mode][1] == "trilat" else _tdoa_trials
        flat = batched(sf, np.concatenate(noisy))
        outcomes = [flat[i * trials:(i + 1) * trials] for i in range(len(sigmas))]
    rows = []
    summaries = []
    for sigma_t, sigma_outcomes in zip(sigmas, outcomes):
        trial_errors = []
        for trial, outcome in enumerate(sigma_outcomes):
            if isinstance(outcome, RflocError):
                errors.append(_error_entry(f"monte_carlo sigma_t={sigma_t} trial={trial}",
                                           outcome))
                continue
            x, y, z, norm, converged, err = outcome
            rows.append({"trial": trial, "sigma_t": sigma_t, "x": x, "y": y, "z": z,
                         "residual_norm": norm, "converged": converged, "error_m": err})
            if err is not None:
                trial_errors.append(err)
        mean, (p10, p50, p90) = None, (None, None, None)
        if trial_errors:
            mean = float(np.mean(trial_errors))
            p10, p50, p90 = _quantiles(trial_errors, (0.1, 0.5, 0.9))
        summaries.append({"sigma_t": sigma_t, "n": len(trial_errors), "mean_error_m": mean,
                          "p10_error_m": p10, "median_error_m": p50, "p90_error_m": p90})
    return {"trials": trials,
            "sigma_t_list": list(sigmas),
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
    # One noise-free simulation serves the single solve and the sweep.
    arrivals = None
    try:
        if _MODES[sf.mode][1] != "doppler" and sf.distances is None:
            arrivals = simulate_arrivals(sf.scenario())
        report["solves"] = _single_run_entries(sf, arrivals, base_seed)
    except NoConvergence as exc:
        errors.append(_error_entry("solve", exc))
        if exc.best is not None:
            report["solves"] = [_solve_entry("best_iterate", exc.best, None)]
    except RflocError as exc:
        errors.append(_error_entry("solve", exc))
        if arrivals is None:
            arrivals = exc  # simulating raised; every trial raises it again

    if sf.monte_carlo_sigmas is not None:
        report["monte_carlo"] = _monte_carlo(sf, arrivals, base_seed, errors)
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
