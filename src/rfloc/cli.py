"""Command-line surface: scenario files in, machine-readable reports out.

Verbs:
    rfloc run <file>         solve the scenario, print a JSON report
    rfloc validate <file>    parse and validate only
    rfloc export-csv <file>  run, then emit one CSV row per solve/trial

Scenario files are single JSON documents (schema_version 1); distances are
meters, times seconds, frequencies hertz. Exit codes: 0 success, 1 a solve
raised an error (embedded in the report), 2 malformed input or a report
that cannot be written.

Reports are deterministic for a fixed file and seed: apart from the
timestamp field, identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__
from .doppler import LIGHT_SPEED_NOMINAL, DopplerReading, doppler_distance, doppler_shift
from .errors import NoConvergence, ParseError, RflocError, ValidationError
from .geometry import Point, _finite_real, _natural, distance
from .simulate import Scenario, _not_finite, _perturb, simulate_arrivals
from .solver import SolveResult, _centroid
from .tdoa import _fixes, _range_differences
from .trilat import _batch, team_relative_position

__all__ = ["ScenarioFile", "parse_scenario", "run", "report_to_csv", "main"]

# mode -> (point dimension, family); doppler mode takes no points.
_MODES = {"doppler": (None, "doppler"), "tdoa2d": (2, "tdoa"), "tdoa3d": (3, "tdoa"),
          "trilat2d": (2, "trilat"), "trilat3d": (3, "trilat"), "pipeline": (3, "pipeline")}
MODES = tuple(_MODES)

# Report rows a Monte-Carlo sweep may ask for (trials x sigmas); each row is
# kept in memory and written out, so a bigger sweep is refused, not truncated.
MC_MAX_ROWS = 1_000_000
# Driver rows (trilaterations, or TDOA emitter solves) per closed-form batch
# of a file's epochs: enough rows that numpy's per-call cost vanishes, few
# enough that the batch's temporaries stay a few MB.
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
    noise_sigma_t: float
    seed: int
    distances: tuple[float, ...] | None
    emitter_plane_z: float | None
    monte_carlo_trials: int | None
    monte_carlo_sigmas: tuple[float, ...] | None
    doppler_f_received: float | None
    raw: dict

    def scenario(self) -> Scenario:
        return Scenario(emitters=self.emitters, receivers=self.receivers, c=self.c)


# ---------------------------------------------------------------------------
# Field rules: each takes the JSON value and its "section.field" path and
# returns the parsed value or raises ValidationError naming the field.
# ---------------------------------------------------------------------------

def _fail(where: str, what: str) -> ValidationError:
    """The error for the value at where; its field is the last key, less any [i]."""
    return ValidationError(f"{where or 'scenario document'} {what}",
                           field=where.rpartition(".")[2].partition("[")[0])


def _finite(value, where: str) -> float:
    if not _finite_real(value):  # a bool, NaN or an int past the float range is not
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
    if not _natural(value):
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
        at = f"{where}[{i}]"
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise _fail(at, "must be [x, y] or [x, y, z]")
        points.append(Point.of(*[_finite(v, at) for v in entry]))
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
    return {key: v for key, v in parsed.items() if fields[key][1] is not _IGNORED}


def _by_mode(value, where: str):
    """Left as it is here; _validate checks it once the mode is known."""
    return value


_REQUIRED, _IGNORED = "required", "ignored"
# path -> field -> (rule, default); "" is the document itself. The field
# names of "scenario" are ScenarioFile's. Schema v1 still accepts and checks
# the _IGNORED fields, and _section drops them: nothing reads them.
_SECTIONS = {
    "": {"schema_version": (_schema_version, _REQUIRED), "solve": (_section, _REQUIRED),
         "scenario": (_section, _REQUIRED), "doppler": (_by_mode, None),
         "monte_carlo": (_by_mode, None)},
    "solve": {"mode": (_mode, _REQUIRED), "options": (_section, {}),
              "emitter_plane_z": (_plane, None)},
    "solve.options": {"max_iterations": (_count, _IGNORED),
                      "step_tolerance": (_positive, _IGNORED),
                      "residual_tolerance": (_positive, _IGNORED),
                      "damping_initial": (_positive, _IGNORED),
                      "multistart_count": (_count, _IGNORED)},
    "scenario": {"emitters": (_points, ()), "receivers": (_points, ()),
                 "c": (_positive, LIGHT_SPEED_NOMINAL), "carrier": (_positive, 1.0e9),
                 "emission_time": (_finite, _IGNORED), "noise_sigma_t": (_nonneg, 0.0),
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

    return ScenarioFile(
        schema_version=1, mode=mode, **scen, emitter_plane_z=plane,
        monte_carlo_trials=None if mc is None else mc["trials"],
        monte_carlo_sigmas=None if mc is None else mc["sigma_t_list"],
        doppler_f_received=f_received, raw=raw,
    )


def parse_scenario(path: str) -> ScenarioFile:
    """Load and validate a scenario file.

    Raises ParseError for a file that cannot be read or is not UTF-8, for
    malformed JSON (with line/column) or JSON nested deeper than the parser
    can recurse, and ValidationError (naming the field) for schema
    violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from exc
    return _validate(raw)


# ---------------------------------------------------------------------------
# Solve dispatch
# ---------------------------------------------------------------------------

def _solve_entry(kind: str, result: SolveResult, truth: Point | None,
                 selected: Point | None = None, **extra) -> dict:
    """A report entry; with a selected root, error_m is that root's error
    and estimate_error_m the estimate's."""
    p = result.estimate
    entry = {"kind": kind, **extra}
    if selected is not None:
        entry["selected"] = [selected.x, selected.y, selected.z]
    entry.update({
        "estimate": [p.x, p.y, p.z],
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "flags": sorted(result.flags),
        "candidates": [[[q.x, q.y, q.z], n] for q, n in result.candidates],
    })
    if truth is not None:
        entry["truth"] = [truth.x, truth.y, truth.z]
        entry["error_m"] = distance(selected or p, truth)
        if selected is not None:
            entry["estimate_error_m"] = distance(p, truth)
    return entry


def _ranges(sf: ScenarioFile, times: np.ndarray) -> np.ndarray:
    """Ranges from arrival times, which are flight times; jitter can push
    one below 0, which clamps."""
    with np.errstate(over="ignore"):  # an overflowed range is refused downstream
        return np.maximum(sf.c * times, 0.0)


def _receivers(sf: ScenarioFile) -> np.ndarray:
    """The receivers as 3D rows (R, 3); 2D ones lie on the plane z = 0."""
    return np.array([(p.x, p.y, p.z) for p in sf.receivers])


def _rows(sf: ScenarioFile, times: np.ndarray | None):
    """The row driver of sf's mode over arrival times (..., R, E), as
    (closed, fix) (see trilat._batch and tdoa._fixes): one trilateration row
    per receiver, one TDOA row per emitter, each in times' order; times None
    is the one row of explicit trilat distances."""
    dim, family = _MODES[sf.mode]
    if family == "trilat":
        ranges = [sf.distances] if times is None else _ranges(sf, times).reshape(-1, 3)
        return _batch([p.coords for p in sf.emitters], ranges)
    return _fixes(_receivers(sf), _range_differences(times, sf.c).reshape(-1, 2),
                  sf.emitter_plane_z, dim)


def _solves(sf: ScenarioFile, fix, first: int = 0
            ) -> list[tuple[str, SolveResult, Point | None, dict]]:
    """(kind, result, truth, extra report fields) per solve of one trial, in
    report order, from the fix of a _rows call whose driver rows first,
    first + 1, ... are the trial's.

    A pipeline's team position comes last: the resection of its emitter
    fixes against the beacons at scenario.emitters (see
    trilat.team_relative_position), its truth the receivers' centroid. An
    emitter's NoConvergence is raised without its best iterate, which is an
    emitter position, not the team's.
    """
    family = _MODES[sf.mode][1]
    if family == "trilat":
        if sf.distances is not None:
            return [("trilat", fix(first), None, {})]
        return [("trilat", fix(first + i), receiver, {"receiver_index": i})
                for i, receiver in enumerate(sf.receivers)]
    try:
        fixes = [fix(first + j) for j in range(len(sf.emitters))]
    except NoConvergence as exc:
        if family == "pipeline":
            exc.best = None
        raise
    if family == "tdoa":
        return [("tdoa_emitter", result, sf.emitters[j], {"emitter_index": j})
                for j, result in enumerate(fixes)]
    team, selected = team_relative_position(sf.receivers, fixes, sf.emitters)
    truth = Point.of(*_centroid(_receivers(sf).tolist()))
    solves = [("pipeline_emitter", result, sf.emitters[j],
               {"emitter_index": j, "selected": root})
              for j, (result, root) in enumerate(zip(fixes, selected))]
    return solves + [("team_position", team, truth, {})]


def _error_entry(stage: str, exc: RflocError) -> dict:
    return {"stage": stage, "type": type(exc).__name__, "message": str(exc)}


def _mc_outcome(sf: ScenarioFile, fix, first: int) -> tuple | RflocError:
    """The row of the trial whose driver rows of fix start at first: its last
    solve's (x, y, z, residual_norm, converged, error_m), error_m None if it
    did not converge, or the error it raised, without its traceback (not the
    frames and batch arrays it was raised from). The last solve is the row:
    validation allows one emitter per tdoa sweep and one receiver per trilat
    sweep, and a pipeline's team position comes last."""
    try:
        _, result, truth, _ = _solves(sf, fix, first)[-1]
    except NoConvergence as exc:
        if exc.best is None:
            return exc.with_traceback(None)
        p = exc.best.estimate
        return p.x, p.y, p.z, exc.best.residual_norm, False, None
    except RflocError as exc:
        return exc.with_traceback(None)
    p = result.estimate
    return p.x, p.y, p.z, result.residual_norm, result.converged, distance(p, truth)


def _trials(sf: ScenarioFile, times: np.ndarray) -> list:
    """The file's epochs, stacked (N, R, E) in times, from one _rows call per
    chunk of _MC_CHUNK driver rows: times[0] is its single epoch, and the
    rest are its sweep's trials.

    In the single epoch's place the list holds the first batch's fix, whose
    driver rows 0, 1, ... are the epoch's. A trilat or tdoa trial with a
    closed form is its one driver row's estimate; every other trial is its
    _mc_outcome from the chunk's fix. An epoch whose times are not finite,
    the single one included, is ArrivalSet's error (simulate._not_finite).
    """
    family = _MODES[sf.mode][1]
    n_rows = 1 if family == "trilat" else times.shape[2]  # driver rows per epoch
    finite = np.isfinite(times).all(axis=(1, 2)).tolist()
    at = (sf.receivers if family == "trilat" else sf.emitters)[0].coords
    trials = []
    per = max(1, _MC_CHUNK // n_rows)
    for lo in range(0, len(times), per):
        closed, fix = _rows(sf, times[lo:lo + per])
        for i, finite_i in enumerate(finite[lo:lo + per]):
            if not finite_i:
                trials.append(_not_finite())
            elif lo + i == 0:
                trials.append(fix)
            elif family != "pipeline" and closed[i] is not None:
                coords, norm = closed[i]  # (*coords, 0.0)[:3] is (x, y, z), z = 0 in 2D
                trials.append((*coords, 0.0)[:3] + (norm, True, math.dist(coords, at)))
            else:  # a tdoa fallback run, a pipeline team, or a trilat row's error
                trials.append(_mc_outcome(sf, fix, i * n_rows))
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


def _mean(values: Sequence[float]) -> float:
    """np.mean(values) as a float, bit for bit, unless the sum of finite
    values overflows: their mean is then taken over the values divided by
    the largest, and scaled back, so it stays finite.

    A sweep summary's mean error, not a centroid (solver._centroid): over
    thousands of errors np.mean sums pairwise, and the summaries keep those
    bits, which a left-to-right sum does not give."""
    v = np.array(values)
    with np.errstate(over="ignore"):
        total = np.add.reduce(v)
    if math.isfinite(total) or not np.isfinite(v).all():
        return float(total / len(v))
    top = v.max()
    return float(top * (np.add.reduce(v / top) / len(v)))


def _monte_carlo(sf: ScenarioFile, outcomes: list, errors: list[dict]) -> dict:
    """The monte_carlo section of a sweep's outcomes, the _trials rows or
    errors of its trials, sigma_t by sigma_t, monte_carlo.trials each. An
    error is appended to errors, not made a row."""
    sigmas, trials = sf.monte_carlo_sigmas, sf.monte_carlo_trials
    rows = []
    summaries = []
    for k, sigma_t in enumerate(sigmas):
        trial_errors = []
        for trial, outcome in enumerate(outcomes[k * trials:(k + 1) * trials]):
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
            mean = _mean(trial_errors)
            p10, p50, p90 = _quantiles(trial_errors, (0.1, 0.5, 0.9))
        summaries.append({"sigma_t": sigma_t, "n": len(trial_errors), "mean_error_m": mean,
                          "p10_error_m": p10, "median_error_m": p50, "p90_error_m": p90})
    return {"trials": trials, "sigma_t_list": list(sigmas),
            "summaries": summaries, "rows": rows}


def run(sf: ScenarioFile, seed: int | None = None) -> dict:
    """Execute a validated scenario and build the JSON-ready report.

    One noise-free simulation serves the single epoch and the sweep, and
    one _trials call solves them all: the single epoch is its block 0, with
    the jitter of trial 0's draw, which has its seed. Module errors raised
    by individual solves are embedded under "errors", the single epoch's
    before the sweep's, rather than propagated; the CLI turns a non-empty
    error list into exit code 1. Deterministic for a fixed scenario file
    and seed.
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
    sigmas, trials = sf.monte_carlo_sigmas or (), sf.monte_carlo_trials or 1
    outcomes = None
    try:
        if _MODES[sf.mode][1] == "doppler":
            reading = DopplerReading(f_emitted=sf.carrier, f_received=sf.doppler_f_received,
                                     c=sf.c)
            est = doppler_distance(reading)
            report["solves"] = [{"kind": "doppler", "shift_hz": doppler_shift(reading),
                                 "distance_m": est.meters, "idealized": est.idealized}]
            return report
        if sf.distances is not None:
            fix = _rows(sf, None)[1]
        else:
            # trial k is seeded base_seed + k: trial 0 shares the single epoch's draw
            times, *noisy = _perturb(simulate_arrivals(sf.scenario()).times, sf.noise_sigma_t,
                                     sigmas, range(base_seed, base_seed + trials))
            fix, *outcomes = _trials(sf, np.concatenate([times[None], *noisy]))
            if isinstance(fix, RflocError):  # the single epoch's times are not finite
                raise fix
        report["solves"] = [_solve_entry(kind, result, truth, **extra)
                            for kind, result, truth, extra in _solves(sf, fix)]
    except RflocError as exc:
        errors.append(_error_entry("solve", exc))
        if isinstance(exc, NoConvergence) and exc.best is not None:
            report["solves"] = [_solve_entry("best_iterate", exc.best, None)]
        if outcomes is None:  # nothing drawn: every trial raises it again
            outcomes = [exc] * (trials * len(sigmas))
    if sf.monte_carlo_sigmas is not None:
        report["monte_carlo"] = _monte_carlo(sf, outcomes, errors)
    return report


def _csv_point(entry: dict) -> tuple:
    """(x, y, z, residual_norm) of a solve entry's estimate, or of a pipeline
    emitter's selected root, the one the team rests on, by its candidates."""
    if "selected" not in entry:
        return (*entry["estimate"], entry["residual_norm"])
    point = entry["selected"]
    return (*point, next(n for q, n in entry["candidates"] if q == point))


def report_to_csv(report: dict) -> str:
    """CSV rows (trial, sigma_t, mode, x, y, z, residual_norm, converged) as
    csv.writer writes them: no field needs quoting, and floats go by repr,
    which matches it for Python floats, the only ones run builds."""
    mode = report["mode"]
    mc = report.get("monte_carlo")
    if mc:
        rows = ((r["trial"], r["sigma_t"], r["x"], r["y"], r["z"], r["residual_norm"],
                 r["converged"]) for r in mc["rows"])
    else:
        sigma = report["input"].get("scenario", {}).get("noise_sigma_t", 0.0)
        rows = ((0, sigma, *_csv_point(e), e["converged"])
                for e in report["solves"] if "estimate" in e)
    return "".join(["trial,sigma_t,mode,x,y,z,residual_norm,converged\n"] + [
        f"{trial},{sigma!r},{mode},{x!r},{y!r},{z!r},{norm!r},{'true' if ok else 'false'}\n"
        for trial, sigma, x, y, z, norm, ok in rows])


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
            cmd.add_argument("--output", default=None,
                             help="write the report here instead of stdout")
    return parser


def _emit(text: str, out) -> None:
    """Write text to stdout, or to out, an open --output file, and close it."""
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
    else:
        with out:
            out.write(text)


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
        sf = parse_scenario(args.file)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    try:
        # Opened before the run (which raises no OSError): an unwritable path costs no solve.
        out = None if args.output is None else open(args.output, "w", encoding="utf-8")
        report = run(sf, seed=args.seed)
        _emit(json.dumps(report, indent=2) if args.command == "run" else report_to_csv(report),
              out)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # the exit's flush then writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "stdout" if args.output is None else args.output
        print(f"output error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        n_err = len(report["errors"])
        status = "ok" if n_err == 0 else f"{n_err} solve error(s)"
        print(f"{args.file}: mode={report['mode']} solves={len(report['solves'])} "
              f"{status}", file=sys.stderr)
    return 0 if not report["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
