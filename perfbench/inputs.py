"""Seeded input file for the twirl workload.

A Wishart density matrix rho = G G^dagger / tr(G G^dagger) with G a
complex Ginibre matrix, deterministic in the seed, written in the
``{"dim", "shape", "re", "im"}`` form that ``orthosym twirl --state`` reads.

Floats are written with ``repr`` (via :mod:`json`), so the program reads back
exactly the doubles generated here.  Run as a script to write the file and
print its size::

    python3 perfbench/inputs.py --seed 1 --out-dir /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np


def wishart_state(d: int, K: int, seed: int) -> np.ndarray:
    """Full-rank random density matrix on 2K qudits of dimension d."""
    dim = d ** (2 * K)
    rng = np.random.default_rng([seed, d, K, 0])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def write_state(path: str, d: int, K: int, seed: int) -> int:
    """Write a Wishart state file and return its size in bytes."""
    rho = wishart_state(d, K, seed)
    flat = rho.reshape(-1)
    doc = {
        "dim": rho.shape[0],
        "shape": [d] * (2 * K),
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return os.path.getsize(path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    state = os.path.join(args.out_dir, "state_d3K3.json")
    print(f"{state} {write_state(state, 3, 3, args.seed)} bytes")


if __name__ == "__main__":
    main()
