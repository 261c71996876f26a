"""Digests of every `rfloc run` in a fixed parity corpus, one line per file.

    python3 tools/report_digests.py --seeds 11 12 [--root TREE] [--workdir DIR]

The corpus is the shipped scenarios, the pipeline_fix, trilat_sweep and
tdoa2d_sweep files that perfbench/workloads.py generates for each seed (as
`perfbench/run.py --seed N` generates them), and a fixed list of edge
documents derived from the shipped ones: huge noise, huge or collinear
geometry (collinear anchors of trilat2d/3d sweeps included), a subnormal c,
off-ground emitter planes, pipeline sweeps whose branches do not meet, a
sweep whose every trial is refused at sigma_t = 1e300, a trilat run whose
squared distance overflows, near-collinear trilat anchors in two orders, a
pipeline whose receivers are too far apart for float64, a tdoa2d sweep whose
Gauss-Newton start overflows, a two-emitter tdoa2d run with one fallback
that does not converge, single runs of three trilat3d receivers and of
two converging tdoa3d emitters, sweeps whose single epoch needs the
Gauss-Newton fallback or fails (one of them again with every solve.options
field at a value other than its default), a pipeline and a tdoa3d run
whose drones and beacons sit at x = 1e308, where the sum of the drones' x
overflows, a pipeline run and a tdoa2d sweep at a Unix-time
emission_time, and Doppler runs whose c * shift overflows float64: two
whose range fits it (a 1.7e308 Hz carrier heard at 1e-9 Hz, a 1e9 Hz one
heard at 1.7e308 Hz) and two whose range does not (c = 1.7e308 m/s with a
1e-300 Hz carrier, a 1e-320 Hz carrier).

Each line is: file, sha256 of the report less `timestamp` as
json.dumps(indent=2) writes it, sha256 of report_to_csv of that report, the
exit code, and sha256 of stderr, each hash cut to 16 hex digits. Stderr is
taken as a separate `rfloc run` process would print it: each warning once
per source line and file, with TREE and DIR replaced by fixed names. Run it
on two trees with the same seeds and compare the outputs with diff. rfloc
and the generators are imported from TREE (default: the checkout this
script is in). The hashed report text is also written beside its file as
NAME.report.json, so with --workdir, `diff -r` of two runs' directories
names the fields that moved.

After the files come the grid oracle's lines, one per oracle_grid lattice
and seed, generated as perfbench/run.py generates them: oracle_grid_N/NAME,
then the coordinates of the node grid_search returns and its value, each
as float.hex, so the oracle's bits compare across trees as well.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench/run.py seeds a workload's generator with [seed, its index here].
WORKLOAD_INDEX = {"pipeline_fix": 0, "trilat_sweep": 1, "tdoa2d_sweep": 3}
ORACLE_GRID_INDEX = 2


def _edit(doc: dict, scenario=None, solve=None, monte_carlo=None, drop=(), doppler=None) -> dict:
    doc = copy.deepcopy(doc)
    for key in drop:
        doc["scenario"].pop(key, None)
    doc["scenario"].update(scenario or {})
    doc["solve"].update(solve or {})
    if doppler is not None:
        doc["doppler"].update(doppler)
    if monte_carlo is not None:
        doc["monte_carlo"] = monte_carlo
    return doc


def _sweep(*sigmas, trials=20) -> dict:
    return {"trials": trials, "sigma_t_list": list(sigmas)}


def edge_documents(shipped: dict[str, dict]) -> dict[str, dict]:
    """The edge documents, by name, derived from the shipped scenarios."""
    pipe, tdoa, trilat = (shipped["pipeline_demo"], shipped["tdoa2d_noise_sweep"],
                          shipped["trilat3d_baseline"])
    tdoa1 = copy.deepcopy(tdoa)
    tdoa1.pop("monte_carlo")
    tdoa3 = _edit(pipe, solve={"mode": "tdoa3d"})
    collinear3 = [[0.0, 0.0, 150.0], [10.0, 0.0, 150.0], [20.0, 0.0, 150.0]]
    coincident3 = [[10.0, -5.0, 150.0]] * 3
    huge = [[-5e89, -5e89, 150.0], [5e89, -5e89, 150.0], [0.0, 5e89, 151.0]]
    overflow = [[-1e308, -1e308, 0.0], [1e308, -1e308, 1.0], [-1e308, 1e308, 2.0]]
    trilat_receiver = {"receivers": [[180.0, 90.0, 222.0]]}
    trilat2 = _edit(trilat, {"emitters": [[0.0, 0.0], [500.0, 0.0], [0.0, 500.0]],
                             "receivers": [[180.0, 90.0]]},
                    solve={"mode": "trilat2d"}, drop=("distances",))
    docs = {}
    for tag, sigma in (("1e300", 1e300), ("1.7e308", 1.7e308)):
        docs[f"pipeline_noise_{tag}"] = _edit(pipe, {"noise_sigma_t": sigma})
        docs[f"pipeline_sweep_{tag}"] = _edit(pipe, monte_carlo=_sweep(0.0, sigma))
        docs[f"tdoa2d_noise_{tag}"] = _edit(tdoa1, {"noise_sigma_t": sigma})
        docs[f"tdoa2d_sweep_{tag}"] = _edit(tdoa, monte_carlo=_sweep(0.0, 1e-7, sigma))
        docs[f"tdoa3d_noise_{tag}"] = _edit(tdoa3, {"noise_sigma_t": sigma})
        docs[f"trilat3d_sweep_{tag}"] = _edit(trilat, trilat_receiver, drop=("distances",),
                                              monte_carlo=_sweep(0.0, 1e-9, sigma))
    docs["trilat2d_sweep_1e300"] = _edit(trilat2, monte_carlo=_sweep(0.0, 1e-9, 1e300))
    # sigma_t = 1e300: every trial is refused, as a range or the radicand
    # overflows or the circles miss. cli._mean's overflow branch has its own test.
    docs["trilat2d_mean_overflow"] = _edit(trilat2, {"receivers": [[120.0, 80.0]], "seed": 3},
                                           monte_carlo=_sweep(1e300, trials=50))
    # A distance whose square overflows: the radicand is inf, a refused row.
    docs["trilat2d_distances_1e308"] = _edit(
        trilat, {"emitters": [[0.0, 0.0], [500.0, 0.0], [0.0, 500.0]],
                 "distances": [100.0, 100.0, 1e308]}, solve={"mode": "trilat2d"})
    # Near-collinear anchors: twice the area is 5e-11 against a 10 m
    # diameter, refused in every order. A scale taken from the two sides at
    # the first anchor would solve the middle anchor first, not an end one.
    for tag, emitters in (("middle_first", [[5.0, 0.0], [0.0, 0.0], [10.0, 1e-11]]),
                          ("end_first", [[0.0, 0.0], [5.0, 0.0], [10.0, 1e-11]])):
        docs[f"trilat2d_near_collinear_{tag}"] = _edit(
            trilat2, {"emitters": emitters, "receivers": [[4.0, 3.0]]})
    # Collinear anchors: every trial of the sweep reports GeometryDegenerate.
    docs["trilat2d_collinear_sweep"] = _edit(
        trilat2, {"emitters": [[0.0, 0.0], [250.0, 0.0], [500.0, 0.0]]},
        monte_carlo=_sweep(0.0, 1e-9))
    docs["trilat3d_collinear_sweep"] = _edit(
        trilat, {"emitters": [[0.0, 0.0, 0.0], [250.0, 0.0, 0.0], [500.0, 0.0, 0.0]],
                 **trilat_receiver}, drop=("distances",), monte_carlo=_sweep(0.0, 1e-9))
    # Sides of 2e154 m: the triangle's diameter overflows float64.
    docs["pipeline_far_2e154"] = _edit(pipe, {"receivers": [[-1e154, 0.0, 150.0],
                                                            [1e154, 0.0, 150.0],
                                                            [0.0, 1e154, 151.0]]})
    for tag, receivers in (("huge_1e90", huge), ("overflow_1e308", overflow),
                           ("collinear", collinear3), ("coincident", coincident3)):
        docs[f"pipeline_{tag}"] = _edit(pipe, {"receivers": receivers})
        docs[f"pipeline_{tag}_sweep"] = _edit(pipe, {"receivers": receivers},
                                             monte_carlo=_sweep(0.0, 1e-11))
        docs[f"tdoa3d_{tag}"] = _edit(tdoa3, {"receivers": receivers})
    for tag, receivers in (("collinear", [[0, 0], [10, 0], [20, 0]]),
                           ("coincident", [[5, 5]] * 3)):
        docs[f"tdoa2d_{tag}"] = _edit(tdoa, {"receivers": receivers})
    docs["tdoa2d_tiny_c"] = _edit(tdoa, {"c": 1e-320})
    docs["pipeline_tiny_c"] = _edit(pipe, {"c": 1e-320})
    docs["pipeline_tiny_c_sweep"] = _edit(pipe, {"c": 1e-320}, monte_carlo=_sweep(0.0, 1e-11))
    for tag, plane in (("0.5", 0.5), ("-3", -3.0)):
        docs[f"pipeline_plane_{tag}"] = _edit(pipe, solve={"emitter_plane_z": plane})
        docs[f"pipeline_plane_{tag}_sweep"] = _edit(pipe, solve={"emitter_plane_z": plane},
                                                    monte_carlo=_sweep(0.0, 1e-9))
        docs[f"tdoa3d_plane_{tag}"] = _edit(tdoa3, solve={"emitter_plane_z": plane})
    # Pipeline sweeps at noise where the branches of many trials do not meet.
    for tag, sigma in (("1e-9", 1e-9), ("1e-7", 1e-7), ("1e-6", 1e-6)):
        docs[f"pipeline_noroot_sweep_{tag}"] = _edit(pipe, monte_carlo=_sweep(0.0, sigma,
                                                                              trials=40))
        docs[f"pipeline_noroot_{tag}"] = _edit(pipe, {"noise_sigma_t": sigma, "seed": 3})
    # The fallback's start has a squared residual that overflows: the run never moves.
    docs["tdoa2d_sweep_1e150"] = _edit(tdoa, {"noise_sigma_t": 1e150},
                                       monte_carlo=_sweep(0.0, 1e150))
    # Emitter 0 converges, emitter 1's branches do not meet and its fallback does not.
    docs["tdoa2d_two_emitters_noroot"] = _edit(
        tdoa1, {"emitters": [[400.0, 300.0], [5000.0, 9000.0]], "noise_sigma_t": 1e-7,
                "seed": 1})
    # Single runs of several driver rows, each solved in closed form.
    three = [[180.0, 90.0, 222.0], [120.0, 300.0, 150.0], [350.0, 60.0, 80.0]]
    docs["trilat3d_three_receivers"] = _edit(trilat, {"receivers": three}, drop=("distances",))
    docs["tdoa3d_two_emitters"] = _edit(tdoa3, {"emitters": pipe["scenario"]["emitters"][:2]})
    # Sweeps whose single epoch has no closed-form root and rides in the
    # sweep's first driver batch: its fallback converges, its fallback
    # stops at a best iterate, and a pipeline emitter fails while every
    # sweep row solves.
    docs["tdoa2d_sweep_fallback"] = _edit(tdoa, {"noise_sigma_t": 1e-6, "seed": 4},
                                          monte_carlo=_sweep(0.0, 1e-7))
    # The same sweep with every solve.options field at a value other than its
    # default: the fields once tuned the Gauss-Newton run and are now ignored.
    docs["tdoa2d_sweep_fallback_options"] = _edit(
        docs["tdoa2d_sweep_fallback"], solve={"options": {
            "max_iterations": 3, "step_tolerance": 1e-3, "residual_tolerance": 1e-3,
            "damping_initial": 10.0}})
    docs["tdoa2d_sweep_best_iterate"] = _edit(tdoa, {"noise_sigma_t": 1e-6, "seed": 3},
                                              monte_carlo=_sweep(0.0, 1e-7))
    docs["pipeline_sweep_single_noroot"] = _edit(pipe, {"noise_sigma_t": 1e-9, "seed": 3},
                                                 monte_carlo=_sweep(0.0, 1e-11))
    # Drones and beacons at x = 1e308: the receivers' centroid is finite
    # only if their x are divided by their count before they are added.
    far = {"receivers": [[1e308, y, r[2]] for y, r in
                         zip((0.0, 0.4, 0.1), pipe["scenario"]["receivers"])],
           "emitters": [[1e308, y, 0.0] for y in (5000.0, -4000.0, 7000.0)]}
    docs["pipeline_x_1e308"] = _edit(pipe, far)
    docs["tdoa3d_x_1e308"] = _edit(tdoa3, far)
    # Emission at a Unix time: the arrival times' absolute value must cancel.
    docs["pipeline_emission_1.7e9"] = _edit(pipe, {"emission_time": 1.7e9})
    docs["tdoa2d_sweep_emission_1.7e9"] = _edit(tdoa, {"emission_time": 1.7e9})
    # c * shift overflows: ranges of 1.5e8 m and 2.55e307 m, then two
    # ranges beyond float64, each refused with a ValidationError.
    dopp = shipped["doppler_demo"]
    docs["doppler_carrier_1.7e308"] = _edit(dopp, {"carrier": 1.7e308},
                                            doppler={"f_received": 1e-9})
    docs["doppler_received_1.7e308"] = _edit(dopp, doppler={"f_received": 1.7e308})
    docs["doppler_c_1.7e308"] = _edit(dopp, {"c": 1.7e308, "carrier": 1e-300})
    docs["doppler_carrier_1e-320"] = _edit(dopp, {"carrier": 1e-320})
    return docs


def write_corpus(root: str, workdir: str, seeds: list[int]) -> list[str]:
    """Write the corpus under workdir; returns its files, sorted."""
    import numpy as np
    import workloads

    shipped = {}
    for name in sorted(os.listdir(os.path.join(root, "scenarios"))):
        with open(os.path.join(root, "scenarios", name), encoding="utf-8") as fh:
            shipped[name[:-len(".json")]] = json.load(fh)
    groups = {"shipped": shipped, "edge": edge_documents(shipped)}
    for group, docs in groups.items():
        os.makedirs(os.path.join(workdir, group))
        for name, doc in docs.items():
            with open(os.path.join(workdir, group, name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
    for seed in seeds:
        for workload, index in WORKLOAD_INDEX.items():
            out = os.path.join(workdir, f"{workload}_{seed}")
            os.makedirs(out)
            generate = getattr(workloads, "gen_" + workload)
            generate(np.random.default_rng([seed, index]), out, 1.0)
    return sorted(os.path.join(d, f) for d, _, files in os.walk(workdir) for f in files)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_line(path: str, root: str, workdir: str) -> str:
    from rfloc import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")   # once per source line, as a fresh process
        code = cli.main(["run", path])
    report_sha = csv_sha = "-"
    if out.getvalue():
        report = json.loads(out.getvalue())
        report.pop("timestamp")
        text = json.dumps(report, indent=2)
        report_sha = _sha(text)
        csv_sha = _sha(cli.report_to_csv(report))
        with open(os.path.splitext(path)[0] + ".report.json", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    stderr = err.getvalue().replace(workdir, "<corpus>").replace(root, "<root>")
    return f"{os.path.relpath(path, workdir)} {report_sha} {csv_sha} {code} {_sha(stderr)}"


def grid_lines(workdir: str, seeds: list[int]) -> list[str]:
    """grid_search's node and value, in float hex, on each oracle_grid lattice."""
    import numpy as np
    import workloads

    lines = []
    for seed in seeds:
        out = os.path.join(workdir, f"oracle_grid_{seed}")
        os.makedirs(out)
        rng = np.random.default_rng([seed, ORACLE_GRID_INDEX])
        for op in workloads.gen_oracle_grid(rng, out, 1.0):
            node, value = workloads.run_grid_op(op)
            bits = " ".join(float.hex(v) for v in (*node.coords, value))
            lines.append(f"oracle_grid_{seed}/{op.name} {bits}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--root", default=ROOT, help="source tree to run (default: this one)")
    parser.add_argument("--workdir", default=None,
                        help="empty or missing directory for the corpus, kept with each "
                             "report beside its file (default: a temporary one, removed "
                             "afterwards)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    with contextlib.ExitStack() as stack:
        workdir = args.workdir or stack.enter_context(tempfile.TemporaryDirectory())
        workdir = os.path.abspath(workdir)
        for path in write_corpus(root, workdir, args.seeds):
            print(digest_line(path, root, workdir), flush=True)
        for line in grid_lines(workdir, args.seeds):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
