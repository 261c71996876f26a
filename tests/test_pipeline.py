"""The team pipeline's physics: the team position follows its measurements.

The team position is a bearing resection against the beacons at
scenario.emitters (trilat.team_relative_position), so it is where the
measured bearings put it: exact without noise, moved with the geometry,
and worse as the timing noise grows.
"""

import json
import math
import os

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import pipeline_raw_scenario
from rfloc.cli import _validate, run

PIPELINE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "pipeline_demo.json")


def _team(doc: dict) -> dict:
    report = run(_validate(doc))
    assert report["errors"] == [], report["errors"]
    return report["solves"][-1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dx=st.floats(-1e5, 1e5), dy=st.floats(-1e5, 1e5))
def test_translating_the_geometry_translates_the_team(seed, dx, dy):
    # Drones and beacons moved together by (dx, dy): the noise-free team
    # estimate moves by the same offset, and keeps its altitude.
    doc = pipeline_raw_scenario(np.random.default_rng(seed))
    team = _team(doc)
    for key in ("emitters", "receivers"):
        doc["scenario"][key] = [[x + dx, y + dy, z] for x, y, z in doc["scenario"][key]]
    moved = _team(doc)
    x, y, z = team["estimate"]
    assert math.dist(moved["estimate"][:2], (x + dx, y + dy)) <= 1e-6
    assert moved["estimate"][2] == z


def test_noise_free_teams_of_300_geometries_are_exact():
    # Every noise-free criterion-4 geometry puts the team within 1e-3 m of
    # the drones' centroid. Taking each emitter's residual-tied root
    # farthest from the drones, not the combination whose bearing lines
    # meet best, misses on some of these geometries.
    rng = np.random.default_rng(4242)
    errors = []
    for _ in range(300):
        team = _team(pipeline_raw_scenario(rng))
        assert team["flags"] == []
        errors.append(team["error_m"])
    assert max(errors) < 1e-3, max(errors)


def test_team_error_grows_with_timing_noise():
    # pipeline_demo, 500 trials per sigma_t: at sigma_t = 0 the bearings are
    # exact, and the median team error rises with the noise.
    with open(PIPELINE) as fh:
        doc = json.load(fh)
    doc["monte_carlo"] = {"trials": 500, "sigma_t_list": [0.0, 1e-12, 1e-11]}
    medians = [s["median_error_m"] for s in run(_validate(doc))["monte_carlo"]["summaries"]]
    assert medians[0] < 1e-6
    assert medians[0] < medians[1] < medians[2]
