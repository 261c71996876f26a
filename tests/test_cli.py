"""Scenario parsing, report generation, CSV export, and exit codes."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfloc import (Point, Scenario, TrilaterationProblem, arrival_deltas, distance,
                   locate_emitter, perturb_arrivals, simulate_arrivals, team_relative_position,
                   trilaterate)
from rfloc import cli, errors as rfloc_errors, tdoa
from rfloc.cli import MC_MAX_ROWS, _validate, main, parse_scenario, report_to_csv, run
from rfloc.errors import Inconsistent, NoConvergence, ParseError, RflocError, ValidationError
from rfloc.simulate import _perturb
from rfloc.solver import _centroid

from conftest import pipeline_raw_scenario, report_to_csv_reference

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
BASELINE = os.path.join(SCENARIO_DIR, "trilat3d_baseline.json")
NOISE_SWEEP = os.path.join(SCENARIO_DIR, "tdoa2d_noise_sweep.json")
PIPELINE = os.path.join(SCENARIO_DIR, "pipeline_demo.json")
DOPPLER = os.path.join(SCENARIO_DIR, "doppler_demo.json")


def _baseline_raw():
    with open(BASELINE) as fh:
        return json.load(fh)


def test_parse_baseline():
    sf = parse_scenario(BASELINE)
    assert sf.mode == "trilat3d"
    assert [e.coords for e in sf.emitters] == [(0.0, 0.0, 0.0), (500.0, 0.0, 0.0),
                                               (0.0, 500.0, 0.0)]
    assert sf.distances == (300.0, 400.0, 500.0)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError):
        parse_scenario(str(path))


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,,}')
    with pytest.raises(ParseError) as exc:
        parse_scenario(str(path))
    assert "line" in str(exc.value)


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_scenario("/nonexistent/scenario.json")


def test_unknown_field_rejected():
    raw = _baseline_raw()
    raw["surprise"] = 1
    with pytest.raises(ValidationError):
        _validate(raw)
    raw = _baseline_raw()
    raw["scenario"]["velocity"] = 3.0
    with pytest.raises(ValidationError) as exc:
        _validate(raw)
    assert exc.value.field == "velocity"


def test_schema_version_enforced():
    raw = _baseline_raw()
    raw["schema_version"] = 2
    with pytest.raises(ValidationError) as exc:
        _validate(raw)
    assert exc.value.field == "schema_version"


def test_schema_version_refuses_bools(tmp_path, capsys):
    raw = _baseline_raw()
    raw["schema_version"] = 1.0  # the same JSON number as 1
    assert _validate(raw).schema_version == 1
    for value in (False, True):
        raw["schema_version"] = value
        with pytest.raises(ValidationError) as exc:
            _validate(raw)
        assert exc.value.field == "schema_version"
    path = tmp_path / "bool_version.json"
    path.write_text(json.dumps(raw))  # "schema_version": true
    assert main(["validate", str(path), "--quiet"]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_negative_noise_rejected():
    raw = _baseline_raw()
    raw["scenario"]["noise_sigma_t"] = -1e-9
    with pytest.raises(ValidationError) as exc:
        _validate(raw)
    assert exc.value.field == "noise_sigma_t"


def test_trilat_needs_exactly_one_range_source():
    raw = _baseline_raw()
    raw["scenario"]["receivers"] = [[180, 90, 222.486]]
    with pytest.raises(ValidationError):
        _validate(raw)  # both distances and receivers
    raw = _baseline_raw()
    del raw["scenario"]["distances"]
    with pytest.raises(ValidationError):
        _validate(raw)  # neither


def test_tdoa_rejects_distances():
    raw = {
        "schema_version": 1,
        "scenario": {"emitters": [[400, 300]], "receivers": [[0, 0], [1000, 0], [0, 1000]],
                     "distances": [1.0]},
        "solve": {"mode": "tdoa2d"},
    }
    with pytest.raises(ValidationError):
        _validate(raw)


def test_mode_dimension_must_match():
    raw = _baseline_raw()
    raw["solve"]["mode"] = "trilat2d"
    with pytest.raises(ValidationError):
        _validate(raw)


def test_doppler_requires_block():
    raw = {
        "schema_version": 1,
        "scenario": {"emitters": [], "receivers": []},
        "solve": {"mode": "doppler"},
    }
    with pytest.raises(ValidationError):
        _validate(raw)


def test_run_baseline_reference_values():
    report = run(parse_scenario(BASELINE))
    assert report["errors"] == []
    entry = report["solves"][0]
    x, y, z = entry["estimate"]
    assert (x, y) == pytest.approx((180.0, 90.0), abs=1e-9)
    assert z == pytest.approx(math.sqrt(49500.0), abs=1e-6)
    assert entry["residual_norm"] < 1e-6
    assert "mirror_ambiguity" in entry["flags"]


def test_run_doppler():
    report = run(parse_scenario(DOPPLER))
    entry = report["solves"][0]
    assert entry["shift_hz"] == 100.0
    assert entry["distance_m"] == 15.0
    assert entry["idealized"] is True


def test_report_deterministic_apart_from_timestamp():
    sf = parse_scenario(NOISE_SWEEP)
    a = run(sf)
    b = run(sf)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a) == json.dumps(b)


def test_report_roundtrip_fixed_point():
    report = run(parse_scenario(BASELINE))
    text = json.dumps(report, indent=2)
    assert json.loads(text) == report
    assert json.dumps(json.loads(text), indent=2) == text


def test_pipeline_noise_free_team_error():
    report = run(parse_scenario(PIPELINE))
    assert report["errors"] == []
    team = [e for e in report["solves"] if e["kind"] == "team_position"]
    assert len(team) == 1
    assert team[0]["error_m"] < 1e-3


def test_pipeline_selects_far_candidate():
    # Emitters 0 and 2 each have a residual-tied near-field root next to the
    # true far one; the solve's estimate is the near root, the pipeline's
    # selection (the root whose bearing line fits the resection) the far one.
    report = run(parse_scenario(PIPELINE))
    entries = [e for e in report["solves"] if e["kind"] == "pipeline_emitter"]
    assert [len(e["candidates"]) for e in entries] == [2, 1, 2]
    for e in entries:
        assert math.dist(e["selected"], e["truth"]) < 1e-3
    assert all(math.dist(entries[j]["estimate"], entries[j]["truth"]) > 1e3 for j in (0, 2))


def test_pipeline_monte_carlo_rows_are_team_positions():
    with open(PIPELINE) as fh:
        doc = json.load(fh)
    doc["monte_carlo"] = {"trials": 2, "sigma_t_list": [0.0]}
    report = run(_validate(doc))
    team = report["solves"][-1]
    assert team["kind"] == "team_position"
    for row in report["monte_carlo"]["rows"]:
        assert [row["x"], row["y"], row["z"]] == team["estimate"]
        assert row["error_m"] == team["error_m"]


def _entry(result, **extra) -> dict:
    return {**extra, "estimate": list(result.estimate.coords),
            "residual_norm": result.residual_norm, "iterations": result.iterations,
            "flags": sorted(result.flags),
            "candidates": [[list(p.coords), n] for p, n in result.candidates]}


def _composed_pipeline(sf) -> tuple[list[dict], list[str]]:
    """A pipeline file's single fix from the public calls alone: its solve
    entries, less truth and error, and the types of the errors raised: three
    locate_emitter calls, then team_relative_position against the beacons."""
    arrivals = perturb_arrivals(simulate_arrivals(sf.scenario()), sf.noise_sigma_t, sf.seed)
    try:
        fixes = [locate_emitter(sf.receivers, arrival_deltas(arrivals, j, 0, sf.c),
                                sf.emitter_plane_z, sf.options) for j in range(len(sf.emitters))]
    except NoConvergence:
        return [], ["NoConvergence"]
    team, selected = team_relative_position(sf.receivers, fixes, sf.emitters)
    return [_entry(result, selected=list(root.coords))
            for result, root in zip(fixes, selected)] + [_entry(team)], []


@pytest.mark.parametrize("sigma", [0.0, 1e-12, 1e-11])
def test_pipeline_fix_equals_its_public_composition(sigma):
    # rfloc run's pipeline fix (one emitter batch, one team step) against the
    # public calls it stands for, bit for bit: the shipped scenario and 17
    # criterion-4 geometries per noise level.
    rng = np.random.default_rng(4242 + int(sigma * 1e12))
    with open(PIPELINE) as fh:
        docs = [json.load(fh)] + [pipeline_raw_scenario(rng) for _ in range(17)]
    for k, doc in enumerate(docs):
        doc["scenario"].update(noise_sigma_t=sigma, seed=k)
        sf = _validate(doc)
        report = run(sf)
        entries, errors = _composed_pipeline(sf)
        assert [e["type"] for e in report["errors"]] == errors
        keys = ("selected", "estimate", "residual_norm", "iterations", "flags", "candidates")
        got = [{key: e[key] for key in keys if key in e} for e in report["solves"]]
        assert json.dumps(got) == json.dumps(entries)


def test_monte_carlo_medians_increase_with_noise():
    report = run(parse_scenario(NOISE_SWEEP))
    summaries = report["monte_carlo"]["summaries"]
    assert [s["sigma_t"] for s in summaries] == [0.0, 1e-7]
    assert summaries[0]["n"] == 200 and summaries[1]["n"] == 200
    assert summaries[1]["median_error_m"] > summaries[0]["median_error_m"]


def test_monte_carlo_rows_and_csv():
    report = run(parse_scenario(NOISE_SWEEP))
    rows = report["monte_carlo"]["rows"]
    assert len(rows) == 400
    assert rows[0]["trial"] == 0 and rows[199]["trial"] == 199
    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "trial,sigma_t,mode,x,y,z,residual_norm,converged"
    assert len(lines) == 401
    assert lines[1].split(",")[2] == "tdoa2d"
    assert lines[1].split(",")[-1] in ("true", "false")


def test_monte_carlo_large_noise_no_more_failures():
    # At sigma_t = 1e-6 s (300 m of range noise against 1000 m baselines) the
    # hyperbolas often do not meet. Where they still have a finite
    # least-squares point the trial comes back flagged inconsistent; where
    # they diverge, or the run stalls on a receiver, it stays non-converged.
    # The bounds are the earlier multi-start solver's: 7 of 200 non-converged
    # and a mean error of 533 m. A far asymptote iterate counted as converged
    # would put the mean at 1e14 m.
    with open(NOISE_SWEEP) as fh:
        raw = json.load(fh)
    raw["monte_carlo"]["sigma_t_list"] = [1e-6]
    report = run(_validate(raw))
    rows = report["monte_carlo"]["rows"]
    assert len(rows) == 200 and report["errors"] == []
    assert sum(not r["converged"] for r in rows) <= 7
    summary = report["monte_carlo"]["summaries"][0]
    assert 100.0 < summary["mean_error_m"] < 1000.0
    assert max(r["error_m"] for r in rows if r["converged"]) < 1e5


def _per_trial_monte_carlo(emitters, receiver, sigmas, trials, seed):
    """Rows, summaries and errors of a trilat sweep, one public solve per trial."""
    dim = len(receiver)
    anchors = tuple(Point.of(*e) for e in emitters)
    truth = Point.of(*receiver)
    arrivals = simulate_arrivals(Scenario(anchors, (truth,)))
    rows, summaries, errors = [], [], []
    for sigma in sigmas:
        errs = []
        for trial in range(trials):
            noisy = perturb_arrivals(arrivals, sigma, seed + trial)
            ranges = np.maximum(3e8 * noisy.times[0], 0.0)
            try:
                result = trilaterate(TrilaterationProblem(anchors, tuple(ranges), dim))
            except Inconsistent as exc:
                errors.append({"stage": f"monte_carlo sigma_t={sigma} trial={trial}",
                               "type": "Inconsistent", "message": str(exc)})
                continue
            p = result.estimate
            errs.append(distance(p, truth))
            rows.append({"trial": trial, "sigma_t": sigma, "x": p.x, "y": p.y, "z": p.z,
                         "residual_norm": result.residual_norm, "converged": True,
                         "error_m": errs[-1]})
        arr = np.array(errs)
        summaries.append({"sigma_t": sigma, "n": len(errs),
                          "mean_error_m": float(arr.mean()),
                          "p10_error_m": float(np.quantile(arr, 0.10)),
                          "median_error_m": float(np.quantile(arr, 0.50)),
                          "p90_error_m": float(np.quantile(arr, 0.90))})
    return rows, summaries, errors


@pytest.mark.parametrize("emitters, receiver", [
    # 0.3 m from the third anchor's foot on the radical line x = 250: at
    # sigma_t = 1e-9 s (0.3 m of range) the third circle often misses it.
    ([[0, 0], [500, 0], [0, 500]], [250, 500.3]),
    # 0.5 m above the anchor plane: the spheres often do not meet.
    ([[0, 0, 0], [500, 0, 0], [0, 500, 0]], [180, 90, 0.5]),
])
def test_trilat_monte_carlo_matches_per_trial_solves(emitters, receiver):
    sigmas, trials, seed = [0.0, 1e-9, 1e-8], 40, 11
    mode = f"trilat{len(receiver)}d"
    report = run(_validate({
        "schema_version": 1, "solve": {"mode": mode},
        "scenario": {"emitters": emitters, "receivers": [receiver], "seed": seed},
        "monte_carlo": {"trials": trials, "sigma_t_list": sigmas}}))
    rows, summaries, errors = _per_trial_monte_carlo(emitters, receiver, sigmas, trials,
                                                     seed)
    mc = report["monte_carlo"]
    assert mc["rows"] == rows
    assert mc["summaries"] == summaries
    assert report["errors"] == errors
    assert sum(r["sigma_t"] == 0.0 for r in rows) == trials
    assert errors and all(any(r["sigma_t"] == s for r in rows) for s in sigmas)


def _trilat_sweep(sigmas, trials=40, seed=11):
    emitters, receiver = [[0, 0], [500, 0], [0, 500]], [250, 500.3]
    return _validate({
        "schema_version": 1, "solve": {"mode": "trilat2d"},
        "scenario": {"emitters": emitters, "receivers": [receiver], "seed": seed},
        "monte_carlo": {"trials": trials, "sigma_t_list": sigmas}})


def test_monte_carlo_draws_once_per_trial_seed(monkeypatch):
    made, solved = [], []
    pcg64, batch = np.random.PCG64, cli._batch

    def counted_pcg64(seed=None):
        made.append(seed)
        return pcg64(seed)

    def counted_batch(anchors, ranges):
        solved.append(len(ranges))
        return batch(anchors, ranges)

    monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
    monkeypatch.setattr(cli, "_batch", counted_batch)
    report = run(_trilat_sweep([0.0, 1e-9, 1e-8]))
    assert made == list(range(11, 51))
    # One batch of 121 rows: the single epoch rides as row 0 ahead of the 120
    # sweep rows, and the batch reports the rows whose radicand misses the
    # slack itself.
    assert solved == [121]
    assert any(e["type"] == "Inconsistent" for e in report["errors"])

    made.clear()
    sweep = parse_scenario(NOISE_SWEEP)
    run(sweep)
    assert made == list(range(sweep.seed, sweep.seed + sweep.monte_carlo_trials))

    made.clear()
    run(_trilat_sweep([0.0, 0.0]))
    with open(NOISE_SWEEP) as fh:
        doc = json.load(fh)
    doc["monte_carlo"]["sigma_t_list"] = [0.0, 0.0]
    run(_validate(doc))
    assert made == []


def test_noisy_sweep_draws_its_single_epoch_with_trial_0(monkeypatch):
    # The single epoch and trial 0 are both seeded base_seed: each seed gets
    # one PCG64, and each part of the report is as if drawn on its own.
    made = []
    pcg64 = np.random.PCG64

    def counted_pcg64(seed=None):
        made.append(seed)
        return pcg64(seed)

    def doc(noise, sweep):
        d = {"schema_version": 1, "solve": {"mode": "trilat2d"},
             "scenario": {"emitters": [[0, 0], [500, 0], [0, 500]], "receivers": [[250, 300]],
                          "seed": 5, "noise_sigma_t": noise}}
        if sweep:
            d["monte_carlo"] = {"trials": 4, "sigma_t_list": [1e-9, 1e-8]}
        return _validate(d)

    monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
    report = run(doc(1e-9, sweep=True))
    assert made == [5, 6, 7, 8]
    made.clear()
    assert run(doc(1e-9, sweep=False))["solves"] == report["solves"]
    assert made == [5]
    assert run(doc(0.0, sweep=True))["monte_carlo"] == report["monte_carlo"]


@pytest.mark.parametrize("scenario", [PIPELINE, NOISE_SWEEP])
@pytest.mark.parametrize("where", ["noise_sigma_t", "sigma_t_list"])
def test_overflowing_noise_is_an_embedded_error(tmp_path, capsys, scenario, where):
    # sigma_t = 1e300 s overflows c * delta_t; each solve it breaks reports a
    # package error in the report, never a traceback.
    with open(scenario) as fh:
        doc = json.load(fh)
    if where == "noise_sigma_t":
        doc["scenario"]["noise_sigma_t"] = 1e300
        doc.pop("monte_carlo", None)
    else:
        doc["monte_carlo"] = {"trials": 20, "sigma_t_list": [0.0, 1e300]}
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--quiet", "--output", str(tmp_path / "r.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "r.json") as fh:
        report = json.load(fh)
    assert report["errors"]
    assert all(issubclass(getattr(rfloc_errors, e["type"]), RflocError)
               for e in report["errors"])
    if where == "noise_sigma_t":
        assert [e["stage"] for e in report["errors"]] == ["solve"]
    else:
        assert {e["stage"].split()[1] for e in report["errors"]} == {"sigma_t=1e+300"}
        assert sum(r["sigma_t"] == 0.0 for r in report["monte_carlo"]["rows"]) == 20


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, 1.0, 2.5, 1e-3]), min_size=1, max_size=500))
def test_quantiles_match_numpy(values):
    assert cli._quantiles(values, (0.1, 0.5, 0.9)) == np.quantile(
        values, [0.1, 0.5, 0.9]).tolist()


def test_monte_carlo_row_cap(tmp_path, capsys):
    assert MC_MAX_ROWS == 10 ** 6
    with open(NOISE_SWEEP) as fh:
        doc = json.load(fh)
    for trials, sigmas, ok in ((MC_MAX_ROWS, [0.0], True), (MC_MAX_ROWS + 1, [0.0], False),
                               (MC_MAX_ROWS // 4, [0.0] * 4, True),
                               (MC_MAX_ROWS // 4, [0.0] * 5, False)):
        doc["monte_carlo"] = {"trials": trials, "sigma_t_list": sigmas}
        if ok:
            assert _validate(doc).monte_carlo_trials == trials
            continue
        with pytest.raises(ValidationError, match="monte_carlo.trials") as info:
            _validate(doc)
        assert info.value.field == "trials"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "monte_carlo.trials" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


def test_csv_single_solve():
    report = run(parse_scenario(BASELINE))
    lines = report_to_csv(report).strip().split("\n")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[2] == "trilat3d"


def _values(obj):
    """Every value of a report, its containers walked."""
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return [obj]
    return [leaf for value in obj for leaf in _values(value)]


def _assert_csv_matches_reference(report):
    # report_to_csv writes floats by repr, csv.writer's bytes only for
    # Python floats: for a numpy float64 repr writes np.float64(0.1).
    assert all(type(v) is float for v in _values(report) if isinstance(v, (float, np.generic)))
    assert report_to_csv(report) == report_to_csv_reference(report)


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
def test_csv_matches_csv_writer_on_shipped_scenarios(name):
    _assert_csv_matches_reference(run(parse_scenario(os.path.join(SCENARIO_DIR, name))))


def test_pipeline_csv_rows_are_the_selected_roots():
    # An emitter row is the root the team rests on, with that root's norm,
    # not the best candidate, which on pipeline_demo is 5.3 and 5.9 km off
    # for emitters 0 and 2; the team row is the team's estimate.
    report = run(parse_scenario(PIPELINE))
    rows = [line.split(",") for line in report_to_csv(report).splitlines()[1:]]
    entries = report["solves"]
    assert [e["kind"] for e in entries] == ["pipeline_emitter"] * 3 + ["team_position"]
    assert len(rows) == 4
    for row, entry in zip(rows, entries):
        point = entry.get("selected", entry["estimate"])
        assert [float(v) for v in row[3:6]] == point
        assert float(row[6]) == next(n for q, n in entry["candidates"] if q == point)
        assert math.dist(point, entry["truth"]) < 1e-6
    assert [e["estimate_error_m"] > 5e3 for e in entries[:3]] == [True, False, True]


_CSV_NUMBERS = st.one_of(st.floats(), st.integers(), st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]))
_CSV_ROWS = st.fixed_dictionaries({
    "trial": st.integers(0, 10**6), "sigma_t": _CSV_NUMBERS, "x": _CSV_NUMBERS,
    "y": _CSV_NUMBERS, "z": _CSV_NUMBERS, "residual_norm": _CSV_NUMBERS,
    "converged": st.booleans(), "error_m": st.none() | _CSV_NUMBERS})
_CSV_SOLVES = st.fixed_dictionaries({
    "kind": st.just("trilat"), "estimate": st.lists(_CSV_NUMBERS, min_size=3, max_size=3),
    "residual_norm": _CSV_NUMBERS, "converged": st.booleans()}) | st.fixed_dictionaries({
    "kind": st.just("doppler"), "distance_m": _CSV_NUMBERS})
# A pipeline emitter: 1-2 candidate roots, the first its estimate, and the
# selected root one of them.
_CSV_POINTS = st.lists(_CSV_NUMBERS, min_size=3, max_size=3)
_CSV_SOLVES |= st.lists(st.tuples(_CSV_POINTS, _CSV_NUMBERS), min_size=1, max_size=2).flatmap(
    lambda cands: st.fixed_dictionaries({
        "kind": st.just("pipeline_emitter"),
        "selected": st.sampled_from([list(p) for p, _ in cands]),
        "estimate": st.just(list(cands[0][0])), "residual_norm": st.just(cands[0][1]),
        "converged": st.booleans(), "candidates": st.just([[list(p), n] for p, n in cands])}))


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({
    "mode": st.sampled_from(cli.MODES),
    "input": st.just({}) | st.fixed_dictionaries({"scenario": st.fixed_dictionaries(
        {}, optional={"noise_sigma_t": _CSV_NUMBERS})}),
    "solves": st.lists(_CSV_SOLVES, max_size=4),
    "monte_carlo": st.none() | st.fixed_dictionaries({"rows": st.lists(_CSV_ROWS, max_size=6)})}))
def test_csv_matches_csv_writer_on_drawn_reports(report):
    # Sweep and single-solve reports, with -0.0, subnormals, the largest
    # float, NaN, infinities and ints among their numbers.
    assert report_to_csv(report) == report_to_csv_reference(report)


def test_seed_override_changes_report():
    sf = parse_scenario(NOISE_SWEEP)
    assert run(sf, seed=999)["seed"] == 999
    assert run(sf)["seed"] == 2024


def test_monte_carlo_validation():
    raw = _baseline_raw()
    raw["monte_carlo"] = {"trials": 10, "sigma_t_list": [0.0]}
    with pytest.raises(ValidationError):
        _validate(raw)  # explicit-distance trilat cannot be noise-swept


def test_main_validate_ok(capsys):
    assert main(["validate", BASELINE]) == 0
    assert "OK" in capsys.readouterr().out


def test_main_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_main_run_writes_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", BASELINE, "--output", str(out), "--quiet"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "trilat3d"
    assert capsys.readouterr().out == ""


def test_main_run_stdout(capsys):
    code = main(["run", DOPPLER, "--quiet"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solves"][0]["distance_m"] == 15.0


def test_main_solve_error_exit_code(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "scenario": {"emitters": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
                     "distances": [1, 1, 1]},
        "solve": {"mode": "trilat3d"},
    }
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--quiet"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["errors"][0]["type"] == "GeometryDegenerate"


@pytest.mark.parametrize("key", ["max_iterations", "multistart_count", "trials"])
def test_main_fractional_count_rejected(tmp_path, capsys, key):
    with open(NOISE_SWEEP) as fh:
        doc = json.load(fh)
    target = doc["monte_carlo"] if key == "trials" else doc["solve"].setdefault("options", {})
    path = tmp_path / "counts.json"
    target[key] = 2.7  # must not be truncated to 2
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert f"{key} must be a whole number" in capsys.readouterr().err
    target[key] = 3.0  # a whole number written as a float is fine
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--quiet"]) == 0


@pytest.mark.parametrize("mode", ["tdoa3d", "pipeline"])
def test_free_emitter_height_is_an_input_error(tmp_path, capsys, mode):
    # Three receivers give two range differences: a 3D emitter needs its
    # plane, and null is refused before any solve, naming the field.
    with open(PIPELINE) as fh:
        doc = json.load(fh)
    doc["solve"].update(mode=mode, emitter_plane_z=None)
    with pytest.raises(ValidationError) as info:
        _validate(doc)
    assert info.value.field == "emitter_plane_z"
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    for verb in ("validate", "run"):
        assert main([verb, str(path), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "emitter_plane_z" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


def test_multistart_count_is_validated_and_ignored(tmp_path, capsys):
    # Schema v1 still accepts the count and refuses what is not one; the
    # report is the same byte for byte, apart from its input echo and
    # timestamp, with or without it.
    def solved(doc):
        report = run(_validate(doc))
        del report["timestamp"], report["input"]
        return json.dumps(report, indent=2)

    with open(PIPELINE) as fh:
        doc = json.load(fh)
    doc["monte_carlo"] = {"trials": 20, "sigma_t_list": [0.0, 1e-9]}
    plain = solved(doc)
    for count in (3, 3.0):
        doc["solve"]["options"] = {"multistart_count": count}
        assert solved(doc) == plain
    path = tmp_path / "count.json"
    for count in (2.7, 0):
        doc["solve"]["options"] = {"multistart_count": count}
        with pytest.raises(ValidationError) as info:
            _validate(doc)
        assert info.value.field == "multistart_count"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), "--quiet"]) == 2
        assert "multistart_count" in capsys.readouterr().err


def test_main_mode_override_revalidates(capsys):
    # baseline is 3D; forcing a 2D mode must fail validation (exit 2)
    assert main(["run", BASELINE, "--mode", "trilat2d", "--quiet"]) == 2
    assert "input error" in capsys.readouterr().err


def test_main_export_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["export-csv", BASELINE, "--output", str(out), "--quiet"]) == 0
    assert out.read_text().startswith("trial,sigma_t,mode,")


def test_main_negative_seed_rejected(capsys):
    assert main(["run", BASELINE, "--seed", "-3", "--quiet"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("mode, emitters", [
    ("trilat2d", [[0, 0], [500, 0], [0, 500], [500, 500]]),
    ("trilat3d", [[0, 0, 0], [500, 0, 0], [0, 500, 0], [500, 500, 10]]),
])
def test_trilat_needs_exactly_three_emitters(tmp_path, capsys, mode, emitters):
    doc = {"schema_version": 1,
           "scenario": {"emitters": emitters, "distances": [300, 400, 500, 600]},
           "solve": {"mode": mode}}
    with pytest.raises(ValidationError) as info:
        _validate(doc)
    assert info.value.field == "emitters"
    path = tmp_path / "four.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--quiet"]) == 2
    assert "needs exactly 3 emitters" in capsys.readouterr().err


def _trilat_receiver_doc():
    return {"schema_version": 1, "solve": {"mode": "trilat3d"},
            "scenario": {"emitters": [[0, 0, 0], [500, 0, 0], [0, 500, 0]],
                         "receivers": [[180, 90, 5]]}}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400])
@pytest.mark.parametrize("field", ["emitters", "receivers"])
def test_nonfinite_coordinate_rejected(tmp_path, capsys, field, token):
    doc = _trilat_receiver_doc()
    doc["scenario"][field][0][1] = 12345.5
    text = json.dumps(doc).replace("12345.5", token)  # json.loads reads each token
    with pytest.raises(ValidationError) as info:
        _validate(json.loads(text))
    assert info.value.field == field
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    for verb in ("validate", "run"):
        assert main([verb, str(path), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "input error" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


# Single faults, one per field of cli._SECTIONS: each bad value must be
# refused with ValidationError.field naming the field, unless the field's rule
# lists it as acceptable (a negative emission time, a fractional tolerance).
_BAD = {"string": "3", "true": True, "nan": math.nan, "+inf": math.inf,
        "-inf": -math.inf, "negative": -1.0, "zero": 0, "fractional": 2.7}
_ACCEPTABLE = {cli._finite: {"negative", "zero", "fractional"},
               cli._plane: {"negative", "zero", "fractional"},
               cli._nonneg: {"zero", "fractional"},
               cli._positive: {"fractional"},
               cli._seed: {"zero"},
               cli._schema_version: set()}
# Rules over lists also see each bad value as a list element.
_ELEMENT = {cli._nonneg_list: lambda v: [v], cli._points: lambda v: [[v, 0.0]]}


def _document_with(path):
    """A valid document and its section at path ("" is the document)."""
    with open(DOPPLER if path == "doppler" else NOISE_SWEEP) as fh:
        doc = json.load(fh)
    doc["solve"]["options"] = {}
    section = doc
    for key in filter(None, path.split(".")):
        section = section[key]
    return doc, section


def _single_faults():
    for path, fields in cli._SECTIONS.items():
        yield pytest.param(path, "surprise", "unknown", id=f"{path}.surprise")
        for key, (rule, default) in fields.items():
            if default is cli._REQUIRED:
                yield pytest.param(path, key, "missing", id=f"{path}.{key}-missing")
            for label, value in _BAD.items():
                if label not in _ACCEPTABLE.get(rule, ()):
                    yield pytest.param(path, key, value, id=f"{path}.{key}-{label}")
                if rule in _ELEMENT and label not in _ACCEPTABLE[cli._finite]:
                    yield pytest.param(path, key, _ELEMENT[rule](value),
                                       id=f"{path}.{key}-element-{label}")


@pytest.mark.parametrize("path, key, value", _single_faults())
def test_single_fault_names_its_field(path, key, value):
    doc, section = _document_with(path)
    _validate(doc)  # the document is valid before the fault
    if value == "missing":
        del section[key]
    else:
        section[key] = value
    with pytest.raises(ValidationError) as info:
        _validate(doc)
    assert info.value.field == key


@pytest.mark.parametrize("mode", [["tdoa2d"], {"tdoa2d": 1}, None, 2])
def test_mode_of_wrong_type_rejected(mode):
    doc, solve = _document_with("solve")
    solve["mode"] = mode
    with pytest.raises(ValidationError) as info:
        _validate(doc)
    assert info.value.field == "mode"


def _mutation_values():
    return st.sampled_from(["x", True, False, None, math.nan, math.inf, -math.inf, -1, 0,
                            2.7, 3, 1e-9, [], {}, [0, 0], [[0.0, 0.0, 0.0]],
                            *cli.MODES])


def _paths(obj, prefix=()):
    """Every key and list index in a JSON document, as a path of keys."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_scenarios_exit_cleanly(tmp_path_factory, data):
    name = data.draw(st.sampled_from([BASELINE, NOISE_SWEEP, PIPELINE, DOPPLER]))
    with open(name) as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from([(), *_paths(doc)]))
        parent = doc
        for key in target[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if not target or action == "add":
            node = parent[target[-1]] if target else doc
            if isinstance(node, dict):
                node["surprise"] = data.draw(_mutation_values())
        elif action == "delete":
            del parent[target[-1]]
        else:
            parent[target[-1]] = data.draw(_mutation_values())
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path), "--quiet"])
    assert code in (0, 2)
    if code == 0:
        sf = parse_scenario(str(path))
        if (sf.monte_carlo_trials or 0) * len(sf.monte_carlo_sigmas or ()) <= 50:
            assert main(["run", "--quiet", str(path)]) in (0, 1, 2)


def _readme_table(heading):
    """Rows of the README table that follows the line starting with heading."""
    with open(os.path.join(SCENARIO_DIR, os.pardir, "README.md")) as fh:
        text = fh.read()
    lines = text[text.index(heading):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|")) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])


def test_readme_tables_match_the_code():
    fields = {row[0]: row[2] for row in _readme_table("Fields, as `rfloc.cli._SECTIONS`")}
    expected = {}
    for path, section in cli._SECTIONS.items():
        for key, (_, default) in section.items():
            expected[f"{path}.{key}".lstrip(".")] = default
    assert fields.keys() == expected.keys()
    for name, default in expected.items():
        if default is cli._REQUIRED:
            assert fields[name] == "required"
        elif isinstance(default, (int, float)):
            assert float(fields[name]) == default
    dims = {"[x, y]": 2, "[x, y, z]": 3, "either": None}
    modes = {row[0]: dims[row[1]] for row in _readme_table("Modes, as `rfloc.cli._MODES`")}
    assert modes == {mode: dim for mode, (dim, _) in cli._MODES.items()}


@pytest.mark.parametrize("mode, sigmas", [
    # At 1e-6 s (300 m of range) many of the branches no longer meet.
    ("tdoa2d", [0.0, 1e-8, 1e-6]),
    ("tdoa3d", [0.0, 1e-11, 1e-9]),
    ("pipeline", [0.0, 1e-11, 1e-9]),
])
def test_tdoa_monte_carlo_batch_matches_per_trial_solves(mode, sigmas):
    # Every trial of a batched TDOA or pipeline sweep is the row (or error)
    # of its own solve, to the bit; the sweep includes trials whose emitters
    # have no closed-form root and rerun the Gauss-Newton fallback.
    with open(NOISE_SWEEP if mode == "tdoa2d" else PIPELINE) as fh:
        doc = json.load(fh)
    doc["solve"]["mode"] = mode
    if mode == "tdoa3d":
        doc["scenario"]["emitters"] = doc["scenario"]["emitters"][2:]
    doc["monte_carlo"] = {"trials": 40, "sigma_t_list": sigmas}
    sf = _validate(doc)
    arrivals = simulate_arrivals(sf.scenario())
    times = np.concatenate(_perturb(arrivals.times, 0.0, sigmas, range(sf.seed, sf.seed + 40))[1:])
    batched = cli._trials(sf, times)
    alone = [cli._mc_trial(sf, t) for t in times]
    assert [repr(o) for o in batched] == [repr(o) for o in alone]
    recv = cli._receivers(sf)
    batch = tdoa._plane_batch(recv, tdoa._range_differences(times, sf.c).reshape(-1, 2),
                              sf.emitter_plane_z, tdoa._triangle(recv),
                              _centroid(recv.tolist()))
    assert (batch.count == 0).any() and (batch.count == 2).any()


def _no_mc(doc):
    doc.pop("monte_carlo", None)


def _drones(receivers):
    def edit(doc):
        doc["scenario"]["receivers"] = receivers
        doc["monte_carlo"] = {"trials": 3, "sigma_t_list": [0.0, 1e-11]}
    return edit


def _far(doc):
    doc["scenario"].update(
        receivers=[[1e308, 0.0, 149.8], [1e308, 0.4, 150.0], [1e308, 0.1, 150.2]],
        emitters=[[1e308, 5000.0, 0.0], [1e308, -4000.0, 0.0], [1e308, 7000.0, 0.0]])


@pytest.mark.parametrize("scenario, doc_edit, code", [
    (PIPELINE, lambda d: (_no_mc(d), d["scenario"].update(noise_sigma_t=1e300)), 1),
    (PIPELINE, lambda d: d.update(monte_carlo={"trials": 20, "sigma_t_list": [0.0, 1e300]}), 1),
    (NOISE_SWEEP, lambda d: (_no_mc(d), d["scenario"].update(noise_sigma_t=1e300)), 1),
    (NOISE_SWEEP, lambda d: d.update(monte_carlo={"trials": 20, "sigma_t_list": [0.0, 1e300]}),
     1),
    (NOISE_SWEEP, lambda d: d["scenario"].update(c=1e-320), 1),
    (BASELINE, lambda d: (d["scenario"].pop("distances"),
                          d["scenario"].update(receivers=[[180.0, 90.0, 222.0]]),
                          d.update(monte_carlo={"trials": 20,
                                                "sigma_t_list": [0.0, 1e300, 1.7e308]})), 1),
    # Drones about 1e90 m apart see every beacon on one bearing: a complete
    # report, its team flagged ill_conditioned.
    (PIPELINE, _drones([[-5e89, -5e89, 150.0], [5e89, -5e89, 150.0], [0.0, 5e89, 151.0]]), 0),
    # The simulated distances overflow: 7 embedded errors.
    (PIPELINE, _drones([[-1e308, -1e308, 0.0], [1e308, -1e308, 1.0], [-1e308, 1e308, 2.0]]), 1),
    # The drones' x sum overflows; their centroid, and every fix, does not.
    (PIPELINE, _far, 0),
], ids=["pipeline-noise", "pipeline-sweep", "tdoa2d-noise", "tdoa2d-sweep", "tiny-c",
        "trilat-sweep", "pipeline-drones-1e90", "pipeline-drones-1e308", "pipeline-x-1e308"])
def test_overflowing_runs_print_only_the_summary(tmp_path, scenario, doc_edit, code):
    # Numbers that overflow end as errors in the report, or in a complete
    # one; numpy's warnings about them must not reach stderr, whose one line
    # is the summary.
    with open(scenario) as fh:
        doc = json.load(fh)
    doc_edit(doc)
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "rfloc", "run", str(path), "--output",
                           str(tmp_path / "r.json")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"{path}: mode=")
    assert lines[0].endswith(" solve error(s)" if code else " ok")


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_non_utf8_file_is_an_input_error(tmp_path, capsys, verb):
    # The byte 0xff inside a JSON string: the file is not UTF-8.
    path = tmp_path / "latin.json"
    path.write_bytes(json.dumps(_baseline_raw()).replace("trilat3d", "trilat3d\xff")
                     .encode("latin-1"))
    with pytest.raises(ParseError) as info:
        parse_scenario(str(path))
    assert str(path) in str(info.value)
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and str(path) in err


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_deeply_nested_file_is_an_input_error(tmp_path, capsys, verb):
    # 3,000 levels of arrays under emitters: json.loads raises RecursionError.
    # Written as raw text, since json.dump would recurse as deep.
    raw = _baseline_raw()
    raw["scenario"]["emitters"] = "NESTED"
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(raw).replace('"NESTED"', "[" * 3000 + "]" * 3000))
    with pytest.raises(ParseError) as info:
        parse_scenario(str(path))
    assert str(path) in str(info.value)
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err


_TRIANGLE_2D = [[0, 0], [1000, 0], [0, 1000]]
_DRONES = [[10.12, -4.91, 149.8], [9.87, -5.2, 150.0], [10.05, -4.77, 150.2]]
_GROUND = [[5200, 1400, 0], [-4100, 4800, 0], [-900, -6300, 0]]


@pytest.mark.parametrize("mode, scenario, extra, rule", [
    ("tdoa2d", {"emitters": [[400, 300]], "receivers": _TRIANGLE_2D[:2]}, {},
     ("receivers", "needs exactly 3 receivers")),
    ("pipeline", {"emitters": _GROUND, "receivers": _DRONES + [[0, 0, 150]]}, {},
     ("receivers", "needs exactly 3 receivers")),
    ("tdoa2d", {"emitters": [], "receivers": _TRIANGLE_2D}, {},
     ("emitters", "needs at least 1 emitter")),
    ("pipeline", {"emitters": _GROUND[:2], "receivers": _DRONES}, {},
     ("emitters", "needs exactly 3 emitters")),
    ("doppler", {"emitters": [], "receivers": []},
     {"doppler": {"f_received": 1.0000001e9},
      "monte_carlo": {"trials": 3, "sigma_t_list": [0.0]}},
     ("monte_carlo", "not applicable to doppler")),
    ("tdoa2d", {"emitters": [[400, 300], [-200, 100]], "receivers": _TRIANGLE_2D},
     {"monte_carlo": {"trials": 3, "sigma_t_list": [0.0]}},
     ("emitters", "expects exactly 1 emitter")),
    ("trilat2d", {"emitters": _TRIANGLE_2D, "receivers": [[180, 90], [20, 30]]},
     {"monte_carlo": {"trials": 3, "sigma_t_list": [0.0]}},
     ("receivers", "expects exactly 1 receiver")),
], ids=["tdoa-2-receivers", "pipeline-4-receivers", "tdoa-no-emitter",
        "pipeline-2-emitters", "doppler-monte-carlo", "tdoa-sweep-2-emitters",
        "trilat-sweep-2-receivers"])
def test_mode_shape_rules_name_their_field(tmp_path, capsys, mode, scenario, extra, rule):
    field, words = rule
    doc = {"schema_version": 1, "scenario": scenario, "solve": {"mode": mode}, **extra}
    with pytest.raises(ValidationError) as info:
        _validate(doc)
    assert info.value.field == field and words in str(info.value)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("mode, scenario", [
    ("trilat2d", {"emitters": [[0, 0], [250, 0], [500, 0]], "receivers": [[180, 90]]}),
    ("trilat3d", {"emitters": [[0, 0, 0], [250, 0, 0], [500, 0, 0]],
                  "receivers": [[180, 90, 222]]}),
    ("tdoa2d", {"emitters": [[400, 300]], "receivers": [[0, 0], [10, 0], [20, 0]]}),
    ("pipeline", {"emitters": _GROUND,
                  "receivers": [[0, 0, 150], [10, 0, 150], [20, 0, 150]]}),
])
def test_degenerate_sweeps_equal_their_per_trial_solves(mode, scenario):
    # Collinear anchors or receivers: the batched sweeps hand every trial to
    # its own solve, which reports GeometryDegenerate.
    sigmas, trials = [0.0, 1e-9], 5
    sf = _validate({"schema_version": 1, "scenario": {**scenario, "seed": 3},
                    "solve": {"mode": mode},
                    "monte_carlo": {"trials": trials, "sigma_t_list": sigmas}})
    arrivals = simulate_arrivals(sf.scenario())
    times = np.concatenate(_perturb(arrivals.times, 0.0, sigmas, range(3, 3 + trials))[1:])
    batched = cli._trials(sf, times)
    alone = [cli._mc_trial(sf, t) for t in times]
    assert [repr(o) for o in batched] == [repr(o) for o in alone]
    assert len(batched) == trials * len(sigmas)
    assert all(type(o) is rfloc_errors.GeometryDegenerate for o in batched)


@pytest.mark.parametrize("mode, emitters, receiver, norm_overflows", [
    ("trilat2d", [[0, 0], [500, 0], [0, 500]], [120, 80], True),
    ("trilat3d", [[0, 0, 0], [500, 0, 0], [0, 500, 0]], [180, 90, 222], False),
])
def test_trilat_monte_carlo_batch_matches_per_trial_solves(mode, emitters, receiver,
                                                           norm_overflows):
    # Every trial of a batched trilat sweep is the row (or error) of its own
    # solve, to the bit. At 1e300 s some ranges overflow and, in 2D, the
    # plain float64 residual norm of a row overflows, so the row's norm is
    # taken with scaled arithmetic; at 1.7e308 s some times overflow too.
    sigmas, trials, seed = [0.0, 1e-9, 1e300, 1.7e308], 40, 3
    sf = _validate({"schema_version": 1, "solve": {"mode": mode},
                    "scenario": {"emitters": emitters, "receivers": [receiver], "seed": seed},
                    "monte_carlo": {"trials": trials, "sigma_t_list": sigmas}})
    arrivals = simulate_arrivals(sf.scenario())
    times = np.concatenate(_perturb(arrivals.times, 0.0, sigmas, range(seed, seed + trials))[1:])
    batched = cli._trials(sf, times)
    alone = [cli._mc_trial(sf, t) for t in times]
    assert [repr(o) for o in batched] == [repr(o) for o in alone]
    finite_times = np.isfinite(times).all(axis=(1, 2))
    ranges = cli._ranges(sf, times[:, 0])
    finite_ranges = np.isfinite(ranges).all(axis=1)
    assert (~finite_times).any() and (finite_times & ~finite_ranges).any()
    anchors = np.array(emitters, dtype=float)
    overflowed = []
    for o, r in zip(batched, ranges):
        if isinstance(o, tuple):
            with np.errstate(over="ignore"):
                res = np.linalg.norm(np.array(o[:len(receiver)]) - anchors, axis=1) - r
                plain = np.sqrt(res @ res)
            if math.isinf(plain):
                overflowed.append(o[3])
    assert bool(overflowed) == norm_overflows
    assert all(math.isfinite(norm) for norm in overflowed)


@pytest.mark.parametrize("mode, scenario, sigmas", [
    ("tdoa2d", {"emitters": [[400, 300]], "receivers": [[0, 0], [10, 0], [20, 0]]},
     [0.0, 1e-9]),
    ("pipeline", {"emitters": _GROUND,
                  "receivers": [[0, 0, 150], [10, 0, 150], [20, 0, 150]]}, [0.0, 1e-9]),
    ("trilat2d", {"emitters": [[0, 0], [250, 0], [500, 0]], "receivers": [[180, 90]]},
     [0.0, 1e-9]),
    ("trilat3d", {"emitters": [[0, 0, 0], [250, 0, 0], [500, 0, 0]],
                  "receivers": [[180, 90, 222]]}, [0.0, 1e-9]),
    # Branches that do not meet, and circles that miss the radical line.
    ("pipeline", {"emitters": _GROUND, "receivers": _DRONES}, [0.0, 1e-9, 1e300]),
    ("tdoa2d", {"emitters": [[400, 300]], "receivers": _TRIANGLE_2D}, [1e-6, 1e300]),
    ("trilat2d", {"emitters": [[0, 0], [500, 0], [0, 500]], "receivers": [[250, 500.3]]},
     [1e-9, 1e300]),
    ("trilat3d", {"emitters": [[0, 0, 0], [500, 0, 0], [0, 500, 0]],
                  "receivers": [[180, 90, 0.5]]}, [1e-9, 1e300]),
], ids=["tdoa2d-collinear", "pipeline-collinear", "trilat2d-collinear", "trilat3d-collinear",
        "pipeline", "tdoa2d", "trilat2d", "trilat3d"])
def test_sweeps_solve_finite_times_without_per_trial_runs(monkeypatch, mode, scenario, sigmas):
    # _mc_trial is left for the trials whose jittered times are not finite,
    # for ArrivalSet's error; at these sigmas there are none.
    calls = []
    mc_trial = cli._mc_trial

    def counted(sf, times):
        calls.append(times)
        return mc_trial(sf, times)

    monkeypatch.setattr(cli, "_mc_trial", counted)
    report = run(_validate({"schema_version": 1, "scenario": {**scenario, "seed": 3},
                            "solve": {"mode": mode},
                            "monte_carlo": {"trials": 20, "sigma_t_list": sigmas}}))
    assert calls == []
    assert report["errors"]


def test_overflowing_mean_error_is_finite(tmp_path):
    # Three finite errors near 1e308 whose plain sum overflows: the summary's
    # mean is finite, lies between them, and no numpy warning is raised.
    doc = {"schema_version": 1, "solve": {"mode": "trilat2d"},
           "scenario": {"emitters": [[0, 0], [500, 0], [0, 500]], "receivers": [[120, 80]],
                        "seed": 3},
           "monte_carlo": {"trials": 50, "sigma_t_list": [1e300]}}
    path, out = tmp_path / "overflow.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--quiet", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    summary, = report["monte_carlo"]["summaries"]
    json.dumps(report["monte_carlo"]["summaries"], allow_nan=False)
    errors = [r["error_m"] for r in report["monte_carlo"]["rows"]]
    assert summary["n"] == len(errors) == 3
    assert min(errors) <= summary["mean_error_m"] <= max(errors)
    assert math.isinf(sum(errors))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=200))
def test_mean_keeps_numpy_bits(values):
    assert cli._mean(values) == float(np.mean(values))


def _edge_documents():
    """tools/report_digests.py's edge documents, built from the shipped scenarios."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "report_digests.py")
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shipped = {}
    for name in sorted(os.listdir(SCENARIO_DIR)):
        with open(os.path.join(SCENARIO_DIR, name)) as fh:
            shipped[name[:-len(".json")]] = json.load(fh)
    return module.edge_documents(shipped)


def test_edge_documents_give_strict_json_reports():
    # Huge noise, huge or degenerate geometry, overflowing norms and sums:
    # every report is JSON without NaN or Infinity, and its CSV is
    # csv.writer's.
    docs = _edge_documents()
    assert len(docs) == 56
    loose, reports = [], {}
    for name, doc in docs.items():
        reports[name] = run(_validate(doc))
        _assert_csv_matches_reference(reports[name])
        try:
            json.dumps(reports[name], allow_nan=False)
        except ValueError:
            loose.append(name)
    assert loose == []
    # Drones at x = 1e308: the fallback's runaway check keeps a finite
    # receiver centroid, so every emitter is solved.
    far = reports["pipeline_x_1e308"]
    assert far["errors"] == []
    emitters = [e for e in far["solves"] if e["kind"] == "pipeline_emitter"]
    assert len(emitters) == 3 and all(e["error_m"] <= 1e-6 for e in emitters)


@pytest.mark.parametrize("emission_time", [1.0, 1.7e9])
@pytest.mark.parametrize("scenario, doc_edit", [
    (PIPELINE, lambda d: None),
    (NOISE_SWEEP, lambda d: None),
    (BASELINE, lambda d: (d["scenario"].pop("distances"),
                          d["scenario"].update(receivers=[[180.0, 90.0, 222.0]]),
                          d.update(monte_carlo={"trials": 20, "sigma_t_list": [0.0, 1e-9]}))),
], ids=["pipeline", "tdoa2d-sweep", "trilat3d-sweep"])
def test_emission_time_cancels(scenario, doc_edit, emission_time):
    # Differences and ranges do not depend on when the emitters sent: the
    # reports at an emission time, a Unix time included, are those at 0.
    with open(scenario) as fh:
        doc = json.load(fh)
    doc_edit(doc)
    at_zero = run(_validate(doc))
    doc["scenario"]["emission_time"] = emission_time
    shifted = run(_validate(doc))
    for key in ("solves", "monte_carlo", "errors"):
        assert json.dumps(shifted[key]) == json.dumps(at_zero[key]), key


def test_pipeline_rows_are_never_emitter_iterates():
    # At sigma_t = 1e-9 s many emitters' branches do not meet and their
    # fallback does not converge. Such a trial is an error, not a row at the
    # emitter's iterate on the emitter plane; a single run has no solves.
    with open(PIPELINE) as fh:
        doc = json.load(fh)
    doc["monte_carlo"] = {"trials": 100, "sigma_t_list": [1e-9]}
    sf = _validate(doc)
    report = run(sf)
    rows = report["monte_carlo"]["rows"]
    swept = [e for e in report["errors"] if e["stage"].startswith("monte_carlo")]
    assert rows and swept
    assert len(rows) + len(swept) == 100
    assert all(row["z"] != sf.emitter_plane_z for row in rows)
    assert {e["type"] for e in swept} == {"NoConvergence"}
    doc.pop("monte_carlo")
    doc["scenario"].update(noise_sigma_t=1e-9, seed=0)
    report = run(_validate(doc))
    assert [e["type"] for e in report["errors"]] == ["NoConvergence"]
    assert report["solves"] == []


@pytest.mark.parametrize("mode, scenario, sigmas", [
    ("trilat2d", {"emitters": [[0, 0], [500, 0], [0, 500]], "receivers": [[250, 500.3]]},
     [0.0, 1e-9, 1e300]),
    ("trilat3d", {"emitters": [[0, 0, 0], [500, 0, 0], [0, 500, 0]],
                  "receivers": [[180, 90, 0.5]]}, [0.0, 1e-9, 1.7e308]),
    ("tdoa2d", {"emitters": [[400, 300]], "receivers": _TRIANGLE_2D}, [0.0, 1e-6, 1e300]),
    ("pipeline", {"emitters": _GROUND, "receivers": _DRONES}, [0.0, 1e-9, 1e300]),
])
def test_sweeps_do_not_depend_on_the_chunk_size(monkeypatch, mode, scenario, sigmas):
    # Chunks of 7 driver rows (2 pipeline trials) give the rows, summaries
    # and errors of the default chunks; the sweeps include errors, fallback
    # runs and non-finite times.
    sf = _validate({"schema_version": 1, "scenario": {**scenario, "seed": 3},
                    "solve": {"mode": mode},
                    "monte_carlo": {"trials": 20, "sigma_t_list": sigmas}})
    whole = run(sf)
    monkeypatch.setattr(cli, "_MC_CHUNK", 7)
    chunked = run(sf)
    assert chunked["monte_carlo"] == whole["monte_carlo"]
    assert chunked["errors"] == whole["errors"]
    assert whole["errors"] and len(whole["monte_carlo"]["rows"]) > 7


@pytest.mark.parametrize("mode, scenario, key", [
    ("trilat2d", {"emitters": [[0, 0], [500, 0], [0, 500]],
                  "receivers": [[180, 90], [120, 300], [350, 60]]}, "receivers"),
    ("trilat3d", {"emitters": [[0, 0, 0], [500, 0, 0], [0, 500, 0]],
                  "receivers": [[180, 90, 222], [120, 300, 150], [350, 60, 80]]}, "receivers"),
    ("tdoa2d", {"emitters": [[400, 300], [-250, 700]], "receivers": _TRIANGLE_2D}, "emitters"),
    ("tdoa3d", {"emitters": _GROUND[:2], "receivers": _DRONES}, "emitters"),
])
def test_single_runs_index_their_driver_rows(mode, scenario, key):
    # A single run with several receivers (trilat) or emitters (tdoa) has one
    # entry per driver row, in order; each is the one entry of the same file
    # cut down to that receiver or emitter, apart from its index.
    index = "receiver_index" if key == "receivers" else "emitter_index"
    doc = {"schema_version": 1, "scenario": scenario, "solve": {"mode": mode}}
    report = run(_validate(doc))
    assert report["errors"] == []
    solves = report["solves"]
    assert [entry[index] for entry in solves] == list(range(len(scenario[key])))
    assert all(entry["converged"] and entry["iterations"] == 0 for entry in solves)
    for k, entry in enumerate(solves):
        cut = {**doc, "scenario": {**scenario, key: [scenario[key][k]]}}
        assert run(_validate(cut))["solves"] == [{**entry, index: 0}]


@pytest.mark.parametrize("verb", ["run", "export-csv"])
def test_unwritable_output_is_an_output_error(tmp_path, capsys, verb):
    # Exit code 1 means a solve raised; a report that cannot be written is 2.
    for output in (tmp_path / "missing" / "r.json", tmp_path):
        assert main([verb, BASELINE, "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {output}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_closed_stdout_pipe_leaves_no_traceback():
    # The reader goes away after 100 bytes of a report larger than a pipe's buffer.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "rfloc", "run", NOISE_SWEEP],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "output error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("verb", ["run", "export-csv"])
def test_unwritable_output_is_refused_before_the_run(tmp_path, capsys, monkeypatch, verb):
    # --output is opened before the run: a path that cannot be written costs
    # no solve, and a writable one gets exactly the text of the report.
    reports = []

    def recorded(sf, seed=None):
        reports.append(run(sf, seed=seed))
        return reports[-1]

    monkeypatch.setattr(cli, "run", recorded)
    for output in (tmp_path / "missing" / "r.json", tmp_path):
        assert main([verb, NOISE_SWEEP, "--output", str(output)]) == 2
        assert capsys.readouterr().err.startswith(f"output error: cannot write {output}: ")
    assert reports == []
    good = tmp_path / "r.out"
    assert main([verb, NOISE_SWEEP, "--quiet", "--output", str(good)]) == 0
    [report] = reports
    text = json.dumps(report, indent=2) if verb == "run" else report_to_csv(report)
    assert good.read_bytes() == text.encode()


def _single_epoch_doc(base, solve=None, **scenario):
    """The document at path base, or a copy of dict base, with a 40-row sweep."""
    if isinstance(base, dict):
        doc = json.loads(json.dumps(base))
    else:
        with open(base) as fh:
            doc = json.load(fh)
    doc["solve"].update(solve or {})
    doc["scenario"].update(scenario)
    doc["monte_carlo"] = {"trials": 20, "sigma_t_list": [0.0, 1e-9]}
    return doc


_TRILAT2D = {"schema_version": 1, "solve": {"mode": "trilat2d"},
             "scenario": {"emitters": [[0, 0], [500, 0], [0, 500]], "receivers": [[180, 90]]}}
_TRILAT3D = {"schema_version": 1, "solve": {"mode": "trilat3d"},
             "scenario": {"emitters": [[0, 0, 0], [500, 0, 0], [0, 500, 0]],
                          "receivers": [[180, 90, 222]]}}


@pytest.mark.parametrize("doc, kinds, solve_errors", [
    (_single_epoch_doc(_TRILAT2D, noise_sigma_t=1e-9), ["trilat"], []),
    (_single_epoch_doc(_TRILAT3D, noise_sigma_t=1e-9), ["trilat"], []),
    (_single_epoch_doc(NOISE_SWEEP, noise_sigma_t=1e-8), ["tdoa_emitter"], []),
    (_single_epoch_doc(PIPELINE, {"mode": "tdoa3d"}, emitters=[_GROUND[2]],
                       noise_sigma_t=1e-11), ["tdoa_emitter"], []),
    (_single_epoch_doc(PIPELINE, noise_sigma_t=1e-9, seed=5),
     ["pipeline_emitter"] * 3 + ["team_position"], []),
    # The branches do not meet: the fallback converges, or stops at its best iterate.
    (_single_epoch_doc(NOISE_SWEEP, noise_sigma_t=1e-6, seed=4), ["tdoa_emitter"], []),
    (_single_epoch_doc(NOISE_SWEEP, noise_sigma_t=1e-6, seed=3), ["best_iterate"],
     ["NoConvergence"]),
    (_single_epoch_doc(PIPELINE, noise_sigma_t=1e-9, seed=3), [], ["NoConvergence"]),
    # Ranges that overflow, single times that are not finite, and a simulation
    # that fails, which every trial reports too.
    (_single_epoch_doc(NOISE_SWEEP, noise_sigma_t=1e300), [], ["ValidationError"]),
    (_single_epoch_doc(_TRILAT2D, noise_sigma_t=1e300), [], ["ValidationError"]),
    (_single_epoch_doc(PIPELINE, noise_sigma_t=1.7e308), [], ["ValidationError"]),
    (_single_epoch_doc(PIPELINE, c=1e-320), [], ["ValidationError"]),
], ids=["trilat2d", "trilat3d", "tdoa2d", "tdoa3d", "pipeline", "tdoa2d-fallback",
        "tdoa2d-best-iterate", "pipeline-noroot", "tdoa2d-1e300", "trilat2d-1e300",
        "pipeline-1.7e308", "pipeline-tiny-c"])
def test_sweep_single_epoch_matches_the_file_without_its_sweep(doc, kinds, solve_errors):
    # The single epoch rides in the sweep's first driver batch; its solves
    # and solve-stage errors are those of the same file without a sweep, and
    # its errors come before the sweep's.
    swept = run(_validate(doc))
    alone = run(_validate({k: v for k, v in doc.items() if k != "monte_carlo"}))
    assert [entry["kind"] for entry in swept["solves"]] == kinds
    assert swept["solves"] == alone["solves"]
    assert swept["errors"][:len(solve_errors)] == alone["errors"]
    assert [e["type"] for e in alone["errors"]] == solve_errors
    assert all(e["stage"] != "solve" for e in swept["errors"][len(solve_errors):])
    assert len(swept["monte_carlo"]["rows"]) + len(swept["errors"]) - len(solve_errors) == 40
