"""Dense operator builders that only the tests use as independent oracles."""

from typing import Sequence

import numpy as np

from orthosym import ComplexOperator


def pure_state_projector(vector: np.ndarray) -> ComplexOperator:
    """Rank-1 projector |v><v| onto a unit vector, as a single-factor operator."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    return ComplexOperator(np.outer(v, v.conj()), (v.size,))


def swap_oracle(d: int) -> np.ndarray:
    """The swap F = sum_ij |ij><ji| on two d-dimensional factors, one
    ``np.kron`` of basis vectors per term."""
    e = np.eye(d)
    return sum(
        np.outer(np.kron(e[i], e[j]), np.kron(e[j], e[i])) for i in range(d) for j in range(d)
    )


def random_unit_vector(d: int, field: str, seed) -> np.ndarray:
    """Unit-norm random vector over the ``"real"`` or ``"complex"`` field, drawn from its own
    seed's generator: the per-seed reference of ``random_unit_rows``."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    if field == "real":
        v = rng.standard_normal(d)
    elif field == "complex":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        raise ValueError(f"unknown field {field!r}")
    return v / np.linalg.norm(v)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary matrix (complex Ginibre + QR phase fix)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def doubled_tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the matrices ``ops`` followed by a second copy of the same list.

    With K single-factor rotations this builds O1 (x) ... (x) OK (x) O1 (x)
    ... (x) OK, the joint rotation the pair projectors commute with.
    """
    if not ops:
        raise ValueError("need at least one operator")
    seq = list(ops) + list(ops)
    out = seq[0]
    for op in seq[1:]:
        out = np.kron(out, op)
    return out
