"""Independent reference results for checking the program's outputs.

Nothing here imports orthosym.  The bipartite projectors and the one-pair
transposition matrix are rebuilt from their definitions with numpy, and the
multi-pair quantities come from whole-array contractions instead of the
package's per-point code paths.  Each ``check_*`` function takes the bytes
the program wrote and returns ``None`` when they are correct, or a one-line
reason when they are not.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

#: Default positivity tolerance of the CLI (``--tol`` and the bound check).
TOL = 1e-9
#: Allowed absolute deviation of output floats from the reference.
FLOAT_ATOL = 1e-12


def bipartite_projectors(d: int) -> np.ndarray:
    """(Pi0, Pi1, Pi2) on C^d (x) C^d, row index a*d + b, shape (3, d*d, d*d)."""
    eye = np.eye(d * d)
    swap = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            swap[a * d + b, b * d + a] = 1.0
    phi = np.zeros(d * d)
    phi[np.arange(d) * (d + 1)] = 1.0
    pplus = np.outer(phi, phi) / d
    return np.stack([(eye + swap) / 2.0 - pplus, (eye - swap) / 2.0, pplus])


def transposition_matrix(d: int) -> np.ndarray:
    """C[b, a] = Tr(T_B(Pi_b / tr Pi_b) Pi_a), computed from dense matrices."""
    pis = bipartite_projectors(d)
    c = np.empty((3, 3))
    for b in range(3):
        t = (pis[b] / np.trace(pis[b])).reshape(d, d, d, d).transpose(0, 3, 2, 1)
        t = t.reshape(d * d, d * d)
        for a in range(3):
            c[b, a] = np.trace(t @ pis[a])
    return c


def masks(K: int) -> list[str]:
    """Nonzero transposition masks, binary rank order, first pair leftmost."""
    return [format(r, f"0{K}b") for r in range(1, 2**K)]


def multi_index(rank: int, K: int) -> str:
    digits = []
    for _ in range(K):
        rank, g = divmod(rank, 3)
        digits.append(str(g))
    return "".join(reversed(digits))


def transposed(pi: np.ndarray, c: np.ndarray, mask: str) -> np.ndarray:
    """Coordinates after the mask's transposition; ``pi`` is (..., 3**K)."""
    K = len(mask)
    lead = pi.shape[:-1]
    t = pi.reshape(lead + (3,) * K)
    for i, bit in enumerate(mask):
        if bit == "1":
            t = np.moveaxis(np.tensordot(t, c, axes=([len(lead) + i], [0])), -1, len(lead) + i)
    return t.reshape(pi.shape)


def ceilings(d: int, K: int) -> np.ndarray:
    """Product-state ceilings 1 / (f_s1 ... f_sK), (f0, f1, f2) = (1, 2, d)."""
    w = np.array([1.0, 2.0, float(d)])
    out = np.ones(1)
    for _ in range(K):
        out = np.outer(out, w).reshape(-1)
    return 1.0 / out


def scan_csv(d: int, K: int, n: int) -> bytes:
    """The exact CSV ``orthosym scan`` must write for this lattice."""
    m = 3**K
    bars = np.array(list(combinations(range(n + m - 1), m - 1)), dtype=np.int64)
    edges = np.concatenate(
        [np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), n + m - 1)], axis=1
    )
    pi = (np.diff(edges, axis=1) - 1).astype(float) / n
    c = transposition_matrix(d)
    mask_list = masks(K)
    ppt = np.stack([~(transposed(pi, c, mk) < -TOL).any(axis=1) for mk in mask_list], axis=1)
    bound_ok = ~(pi > ceilings(d, K) + TOL).any(axis=1)
    labels = np.where(~ppt.all(axis=1), "NPT", np.where(bound_ok, "bound-pass", "PPT-all"))
    header = (
        [f"pi_{multi_index(r, K)}" for r in range(m)]
        + ["sep_bound"]
        + [f"ppt_{mk}" for mk in mask_list]
        + ["class"]
    )
    lines = [",".join(header)]
    for row, ok, flags, label in zip(pi.tolist(), bound_ok, ppt, labels):
        fields = [format(x, ".17g") for x in row]
        fields.append("1" if ok else "0")
        fields.extend("1" if v else "0" for v in flags)
        fields.append(str(label))
        lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode()


def twirl_fidelities(rho: np.ndarray, d: int, K: int) -> np.ndarray:
    """pi_alpha = Tr(rho Pi_alpha) / sum, contracting one Alice-Bob pair at a time."""
    t = rho.reshape((d,) * (4 * K))
    order = []
    for i in range(K):
        order += [i, K + i, 2 * K + i, 3 * K + i]
    t = t.transpose(order).reshape((d * d,) * (2 * K))
    pis = bipartite_projectors(d)
    for _ in range(K):
        # sum_{r,c} t[r, c, ...] * Pi_k[c, r], then move k behind the rest
        t = np.moveaxis(np.tensordot(pis, t, axes=([1, 2], [1, 0])), 0, -1)
    pi = t.reshape(-1).real
    return pi / pi.sum()


def _close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= FLOAT_ATOL))


def check_scan(data: bytes, expected: bytes) -> str | None:
    if data == expected:
        return None
    if len(data) != len(expected):
        return f"scan CSV has {len(data)} bytes, reference has {len(expected)}"
    first = next(i for i, (a, b) in enumerate(zip(data, expected)) if a != b)
    return f"scan CSV differs from the reference at byte {first}"


def check_twirl(data: bytes, d: int, K: int, rho: np.ndarray) -> str | None:
    doc = json.loads(data)
    if (doc["d"], doc["K"]) != (d, K):
        return f"twirl header {doc['d'], doc['K']} != {d, K}"
    if not _close(doc["pi"], twirl_fidelities(rho, d, K)):
        return f"twirl coordinates differ by more than {FLOAT_ATOL}"
    return None


def verify_checks(combos) -> list[tuple[str, int, int | None]]:
    """(check, d, K) of every report the default verify battery emits."""
    out = []
    for d in sorted({d for d, _ in combos}):
        out += [("c_matrix", d, None), ("coplanarity", d, None)]
    for d, K in combos:
        out += [(name, d, K) for name in
                ("resolution", "invariance", "pt_consistency", "product_fidelities")]
        if K >= 2:
            out.append(("reduction", d, K))
    return out


def check_verify(data: bytes, combos) -> str | None:
    reports = json.loads(data)
    got = [(r["check"], r["params"]["d"], r["params"].get("K")) for r in reports]
    if got != verify_checks(combos):
        return f"verify ran {got}"
    failed = [r["check"] for r in reports if r["pass"] is not True]
    if failed:
        return f"verify reports failing: {failed}"
    return None
