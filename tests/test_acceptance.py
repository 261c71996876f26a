"""Acceptance gate: every criterion at its stated tolerance.

 1. Reference 3D fixture: closed-form and least-squares trilateration both
    give x = 180 +- 1e-9, y = 90 +- 1e-9, z = sqrt(49500) +- 1e-6, with the
    mirror candidate at -z; both solves finish in under 1 s.
 2. Inconsistent 2D fixture: estimate x = 5 +- 1e-9, inconsistent flag set
    (best residual norm > 1 m), and the (5,5) branch beats the (5,15) branch
    by total squared residual (~8.6 vs ~234), confirmed by a 0.01 m
    grid-search oracle.
 3. TDOA round trip: 1000 seeded random 2D scenarios (receiver triangles
    with minimum angle > 15 deg, emitter within 10 triangle diameters),
    noise-free: 100% recover the true emitter within 1e-6 m, in under 30 s.
 4. Pipeline round trip: 200 seeded 3D scenarios (three drones at distinct
    altitudes, three ground emitters at z = 0), noise-free: team position
    error vs the drone centroid < 1e-3 m in >= 99% of trials.
 5. Noise degradation: Monte-Carlo (200 trials per sigma) at
    sigma_t in {0, 1e-8, 1e-7} s gives strictly increasing median errors.
 6. Jacobians: analytic vs central-difference for both residual families,
    relative error < 1e-5 at 100 seeded points away from anchors.
 7. Oracle equivalence: for criteria 1-2 the iterative minimizer's objective
    is <= the grid-search lattice minimum at 0.01 m resolution.
 8. Doppler arithmetic: (c * shift) / (2 * f_emitted) reproduces the three
    tabulated values (0, 15, 30 m) exactly.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import math
import os
import time

import numpy as np

from conftest import pipeline_raw_scenario, tdoa_roundtrip_case
from rfloc import (
    DopplerReading,
    Point,
    RangeDifferenceSet,
    distance,
    doppler_distance,
    finite_difference_jacobian,
    grid_search,
    hyperbolic_jacobian,
    hyperbolic_residuals,
    locate_emitter,
    trilaterate,
    trilaterate_lsq,
    trilateration_jacobian,
    trilateration_objective,
    trilateration_residuals,
)
from rfloc.cli import _validate, run
from rfloc.trilat import TrilaterationProblem

C = 3e8
REF_EMITTERS = (Point.of(0, 0, 0), Point.of(500, 0, 0), Point.of(0, 500, 0))
REF_DISTANCES = (300.0, 400.0, 500.0)
REF_Z = math.sqrt(49500.0)
DEMO_EMITTERS = (Point.of(0, 0), Point.of(10, 0), Point.of(5, 10))
DEMO_DISTANCES = (5.0, 5.0, 5.0)
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _gate(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _ref_problem():
    return TrilaterationProblem(REF_EMITTERS, REF_DISTANCES, 3)


def _demo_problem():
    return TrilaterationProblem(DEMO_EMITTERS, DEMO_DISTANCES, 2)


def test_criterion_1_reference_reproduction():
    t0 = time.perf_counter()
    algebraic = trilaterate(_ref_problem())
    centroid = np.mean([e.coords for e in REF_EMITTERS], axis=0)
    lsq = trilaterate_lsq(_ref_problem(), centroid + 1.0)
    elapsed = time.perf_counter() - t0

    ok = True
    for result in (algebraic, lsq):
        ok &= abs(result.estimate.x - 180.0) <= 1e-9
        ok &= abs(result.estimate.y - 90.0) <= 1e-9
        ok &= abs(result.estimate.z - REF_Z) <= 1e-6
    mirrors = [p for p, _ in algebraic.candidates if p.z < 0]
    ok &= len(mirrors) == 1 and abs(mirrors[0].z + REF_Z) <= 1e-6
    ok &= elapsed < 1.0
    _gate(1, "reference 3D reproduction", ok,
          f"estimate=({algebraic.estimate.x:.12g}, {algebraic.estimate.y:.12g}, "
          f"{algebraic.estimate.z:.10g}), runtime={elapsed * 1000:.1f} ms")


def test_criterion_2_inconsistent_2d_fixture():
    result = trilaterate(_demo_problem())
    objective = trilateration_objective(_demo_problem())

    ok = abs(result.estimate.x - 5.0) <= 1e-9
    ok &= "inconsistent" in result.flags
    ok &= result.residual_norm > 1.0
    cands = sorted(result.candidates, key=lambda c: c[0].y)
    ok &= len(cands) == 2
    ssq_low = float(objective(np.array([cands[0][0].coords]))[0])
    ssq_high = float(objective(np.array([cands[1][0].coords]))[0])
    ok &= abs(cands[0][0].y - 5.0) <= 1e-9 and abs(cands[1][0].y - 15.0) <= 1e-9
    ok &= abs(ssq_low - 8.578643762690485) < 1e-6
    ok &= abs(ssq_high - 233.77223398316206) < 1e-6
    ok &= result.estimate.y == cands[0][0].y  # selection by squared residual
    # grid-search oracle at 0.01 m: the (5,5) branch's region beats (5,15)'s
    _, low_region = grid_search(objective, [(4, 6), (4, 6)], 0.01)
    _, high_region = grid_search(objective, [(4, 6), (14, 16)], 0.01)
    ok &= low_region < high_region
    _gate(2, "inconsistent 2D fixture", ok,
          f"x={result.estimate.x:.12g}, norm={result.residual_norm:.4f} m, "
          f"ssq {ssq_low:.3f} vs {ssq_high:.2f}, "
          f"oracle regions {low_region:.3f} vs {high_region:.3f}")


def test_criterion_3_tdoa_roundtrip_1000():
    rng = np.random.default_rng(20240501)
    recovered = 0
    trials = 1000
    t0 = time.perf_counter()
    for _ in range(trials):
        receivers, emitter, pairs = tdoa_roundtrip_case(rng)
        rd = RangeDifferenceSet.from_range_differences(0, pairs, C)
        result = locate_emitter(receivers, rd)
        if min(distance(p, emitter) for p, _ in result.candidates) < 1e-6:
            recovered += 1
    elapsed = time.perf_counter() - t0
    ok = recovered == trials and elapsed < 30.0
    _gate(3, "TDOA round trip", ok,
          f"{recovered}/{trials} recovered, runtime={elapsed:.1f} s")


def test_criterion_4_pipeline_roundtrip_200():
    rng = np.random.default_rng(8899)
    errors = []
    for _ in range(200):
        sf = _validate(pipeline_raw_scenario(rng))
        report = run(sf)
        assert report["errors"] == [], report["errors"]
        team = next(e for e in report["solves"] if e["kind"] == "team_position")
        errors.append(team["error_m"])
    errors = np.array(errors)
    frac = float((errors < 1e-3).mean())
    ok = frac >= 0.99
    _gate(4, "pipeline round trip", ok,
          f"{frac * 100:.1f}% of 200 trials < 1e-3 m "
          f"(median {np.median(errors):.2e} m, max {errors.max():.2e} m)")


def test_criterion_5_noise_degradation():
    raw = {
        "schema_version": 1,
        "scenario": {"emitters": [[400, 300]],
                     "receivers": [[0, 0], [1000, 0], [0, 1000]],
                     "seed": 2024},
        "solve": {"mode": "tdoa2d"},
        "monte_carlo": {"trials": 200, "sigma_t_list": [0.0, 1e-8, 1e-7]},
    }
    report = run(_validate(raw))
    med = [s["median_error_m"] for s in report["monte_carlo"]["summaries"]]
    ok = med[0] < med[1] < med[2]
    _gate(5, "noise degradation", ok,
          "medians " + " -> ".join(f"{m:.3e}" for m in med))


def test_criterion_6_jacobian_correctness():
    rng = np.random.default_rng(606)
    problem = _ref_problem()
    receivers = (Point.of(0, 0), Point.of(800, 100), Point.of(200, 900))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, -150.0), (2, 220.0)], C)
    anchors_3d = [np.array(e.coords) for e in REF_EMITTERS]
    anchors_2d = [np.array(r.coords) for r in receivers]

    worst = 0.0
    checked = 0
    while checked < 100:
        if checked % 2 == 0:
            q = rng.uniform(-800, 800, size=3)
            if min(np.linalg.norm(q - a) for a in anchors_3d) <= 1e-3:
                continue
            J = trilateration_jacobian(problem, Point.of(*q))
            J_fd = finite_difference_jacobian(
                lambda x: trilateration_residuals(problem, Point.of(*x)), q, h=1e-4)
        else:
            q = rng.uniform(-1500, 1500, size=2)
            if min(np.linalg.norm(q - a) for a in anchors_2d) <= 1e-3:
                continue
            J = hyperbolic_jacobian(receivers, rd, Point.of(*q))
            J_fd = finite_difference_jacobian(
                lambda x: hyperbolic_residuals(receivers, rd, Point.of(*x)), q, h=1e-4)
        rel = float(np.linalg.norm(J - J_fd) / np.linalg.norm(J))
        worst = max(worst, rel)
        checked += 1
    ok = worst < 1e-5
    _gate(6, "Jacobian correctness", ok,
          f"worst relative error {worst:.2e} over {checked} points")


def test_criterion_7_oracle_equivalence():
    # criterion 1 solve vs a 0.01 m lattice around the analytic point
    problem = _ref_problem()
    centroid = np.mean([e.coords for e in REF_EMITTERS], axis=0)
    lsq3 = trilaterate_lsq(problem, centroid + 1.0)
    objective3 = trilateration_objective(problem)
    bounds3 = [(179.0, 181.0), (89.0, 91.0), (REF_Z - 1.0, REF_Z + 1.0)]
    _, lattice3 = grid_search(objective3, bounds3, 0.01)
    obj3 = float(objective3(np.array([lsq3.estimate.coords]))[0])

    # criterion 2 solve vs the full 0.01 m lattice over [-10, 20]^2
    demo = _demo_problem()
    lsq2 = trilaterate_lsq(demo, Point.of(5.0, 5.0))
    objective2 = trilateration_objective(demo)
    node2, lattice2 = grid_search(objective2, [(-10.0, 20.0), (-10.0, 20.0)], 0.01)
    obj2 = float(objective2(np.array([lsq2.estimate.coords]))[0])

    ok = obj3 <= lattice3 and obj2 <= lattice2
    ok &= abs(node2.x - 5.0) <= 0.01 + 1e-12  # symmetry pins the lattice x
    _gate(7, "oracle equivalence", ok,
          f"3D {obj3:.3e} <= {lattice3:.3e}; 2D {obj2:.6f} <= {lattice2:.6f} "
          f"at node x={node2.x:.2f}")


def test_criterion_8_doppler_arithmetic():
    values = [
        doppler_distance(DopplerReading(1e9, 1e9, 3e8)).meters,
        doppler_distance(DopplerReading(1e9, 1.0000001e9, 3e8)).meters,
        doppler_distance(DopplerReading(1e9, 1e9 - 200, 3e8)).meters,
    ]
    ok = values == [0.0, 15.0, 30.0]
    _gate(8, "Doppler arithmetic", ok, f"values {values}")
