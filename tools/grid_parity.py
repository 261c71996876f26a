"""grid_search's node and value, in float hex, on seeded random lattices.

    python3 tools/grid_parity.py --count 2000 [--root TREE]

One line per lattice: its number, dimension, objective kind, then the
coordinates of the node grid_search returns and its value. The lattices
cycle through range 2D, range 3D, TDOA 2D and TDOA 3D objectives with 3-4
anchors around a random source and noise from none to 3 m, at resolutions
from 0.01 to 1. Their axes are 1 node long, a leaf or a tile long give or
take one node, a tile and a leaf and one node long, or a random length up
to about 3 tiles, so that partial tiles and leaves occur. Run it on two
source trees and `diff` the outputs: a change to the bounded search that
keeps its result exact prints the same lines.

    python3 tools/grid_parity.py --count 2000 > new.txt
    python3 tools/grid_parity.py --count 2000 --root ../parent > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Tile and leaf nodes per axis, by dimension, as the bounded search cut its
# lattices when this corpus was fixed. Fixed here, not read from the tree, so
# that every tree runs the same lattices.
_LEVELS = {2: (64, 8), 3: (16, 4)}


def lines(count: int):
    import numpy as np
    from rfloc import _kernels, grid_search

    rng = np.random.default_rng(20261019)
    for case in range(count):
        dim, tdoa = 2 + case % 2, bool(case // 2 % 2)
        anchors = rng.uniform(-20.0, 20.0, size=(rng.integers(3, 5), dim))
        source = rng.uniform(-10.0, 10.0, dim)
        noise = rng.choice([0.0, 0.01, 0.3, 3.0])
        dists = np.linalg.norm(anchors - source, axis=1) + rng.normal(0.0, noise, len(anchors))
        objective = _kernels.GridObjective(anchors, dists[0] - dists[1:] if tdoa else dists, tdoa)
        tile, leaf = _LEVELS[dim]
        resolution = float(rng.choice([0.01, 0.05, 0.1, 0.25, 1.0]))
        bounds = []
        for k in range(dim):
            nodes = int(rng.choice([1, leaf - 1, leaf, leaf + 1, tile - 1, tile, tile + 1,
                                    tile + leaf + 1, rng.integers(2, 3 * tile + 2)]))
            lo = float(source[k] + rng.uniform(-0.9, -0.1) * nodes * resolution)
            bounds.append((lo, lo + (nodes - 1) * resolution))
        with np.errstate(all="ignore"):
            node, value = grid_search(objective, bounds, resolution)
        bits = " ".join(float.hex(v) for v in (*node.coords, value))
        yield f"{case} {dim}D {'tdoa' if tdoa else 'range'} {bits}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--root", default=ROOT, help="source tree to run (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    for line in lines(args.count):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
