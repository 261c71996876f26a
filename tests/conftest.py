"""Shared scenario generators and reference implementations for the test suite.

Everything is driven by an explicit numpy Generator so tests stay
deterministic; acceptance tests pin their own seeds.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from rfloc import Point


def triangle_angles_deg(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[float]:
    angles = []
    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
        u, v = q - p, r - p
        cosang = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angles.append(float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))))
    return angles


def sample_triangle_2d(rng: np.random.Generator, span: float = 1000.0,
                       min_angle_deg: float = 15.0) -> np.ndarray:
    """Three 2D receiver positions whose smallest interior angle exceeds the bound."""
    while True:
        pts = rng.uniform(-span, span, size=(3, 2))
        if min(triangle_angles_deg(*pts)) > min_angle_deg:
            return pts


def tdoa_roundtrip_case(rng: np.random.Generator):
    """Receivers, true emitter, and exact range differences for a 2D round trip.

    Receiver triangles have minimum angle > 15 degrees and the emitter lies
    within 10 triangle diameters of the centroid.
    """
    recv = sample_triangle_2d(rng)
    diam = max(np.linalg.norm(recv[i] - recv[j])
               for i in range(3) for j in range(i + 1, 3))
    centroid = recv.mean(axis=0)
    radius = rng.uniform(0.0, 10.0) * diam
    theta = rng.uniform(0.0, 2.0 * np.pi)
    emitter = centroid + radius * np.array([np.cos(theta), np.sin(theta)])
    d = np.linalg.norm(recv - emitter, axis=1)
    receivers = tuple(Point.of(*row) for row in recv)
    pairs = [(1, float(d[0] - d[1])), (2, float(d[0] - d[2]))]
    return receivers, Point.of(*emitter), pairs


def consistent_trilat_case(rng: np.random.Generator, dim: int,
                           span: float = 500.0):
    """Non-degenerate anchors plus exact ranges from a hidden true point.

    The true point is kept at least 5 m off the tangency configuration (the
    anchor plane in 3D, the foot of the third anchor's perpendicular onto the
    first radical line in 2D): near tangency the root pair coalesces and the
    float64 rounding of the input ranges alone moves the exact solution by
    more than the 1e-9 recovery tolerance.
    """
    while True:
        anchors = rng.uniform(-span, span, size=(3, dim))
        v1 = anchors[1] - anchors[0]
        v2 = anchors[2] - anchors[0]
        if dim == 2:
            area2 = abs(float(v1[0] * v2[1] - v1[1] * v2[0]))
        else:
            area2 = float(np.linalg.norm(np.cross(v1, v2)))
        scale = max(np.linalg.norm(v1), np.linalg.norm(v2))
        if not (scale > 1.0 and area2 > 0.2 * scale * scale):
            continue
        truth = rng.uniform(-2.0 * span, 2.0 * span, size=dim)
        if dim == 2:
            u = np.array([-v1[1], v1[0]]) / np.linalg.norm(v1)
            separation = abs(float((anchors[2] - truth) @ u))
        else:
            n = np.cross(v1, v2)
            separation = abs(float((truth - anchors[0]) @ (n / np.linalg.norm(n))))
        if separation >= 5.0:
            break
    dists = np.linalg.norm(anchors - truth, axis=1)
    emitters = tuple(Point.of(*row) for row in anchors)
    return emitters, tuple(float(x) for x in dists), Point.of(*truth)


def pipeline_raw_scenario(rng: np.random.Generator, spread: float = 0.25,
                          emit_range: tuple[float, float] = (4000.0, 10000.0)) -> dict:
    """A raw pipeline scenario dict: tight drone cluster, far ground emitters.

    The cluster is tight relative to the emitter ranges, as the team's
    bearing resection assumes: it measures bearings to the emitters well
    and their ranges hardly at all.
    """
    center = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50),
                       rng.uniform(100, 250)])
    while True:
        offsets = rng.uniform(-spread, spread, size=(3, 3))
        offsets[:, 2] = np.array([-spread, 0.0, spread]) * rng.uniform(0.5, 1.0)
        drones = center + offsets
        v1, v2 = drones[1] - drones[0], drones[2] - drones[0]
        if np.linalg.norm(np.cross(v1, v2)) > 0.1 * spread * spread:
            break
    base = rng.uniform(0.0, 2.0 * np.pi)
    gaps = rng.uniform(np.deg2rad(75.0), np.deg2rad(130.0), size=3)
    angles = base + np.cumsum(gaps)
    emitters = []
    for a in angles:
        radius = rng.uniform(*emit_range)
        emitters.append([float(center[0] + radius * np.cos(a)),
                         float(center[1] + radius * np.sin(a)), 0.0])
    return {
        "schema_version": 1,
        "scenario": {
            "emitters": emitters,
            "receivers": [[float(v) for v in row] for row in drones],
        },
        "solve": {"mode": "pipeline"},
    }


def report_to_csv_reference(report: dict) -> str:
    """cli.report_to_csv as csv.writer wrote it, the reference for its row
    template, with a pipeline emitter's row at its selected root."""
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
            norm = entry["residual_norm"]
            if "selected" in entry:  # the root a pipeline team rests on, with its norm
                x, y, z = entry["selected"]
                norm = [n for q, n in entry["candidates"] if q == entry["selected"]][0]
            writer.writerow([0, sigma, mode, x, y, z, norm, str(entry["converged"]).lower()])
    return buf.getvalue()
