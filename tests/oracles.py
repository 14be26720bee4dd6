"""Dense operator builders that only the tests use as independent oracles."""

from typing import Sequence

import numpy as np

from orthosym import ComplexOperator, kron


def pure_state_projector(vector: np.ndarray) -> ComplexOperator:
    """Rank-1 projector |v><v| onto a unit vector, as a single-factor operator."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    return ComplexOperator(np.outer(v, v.conj()), (v.size,))


def random_unitary(d: int, seed) -> ComplexOperator:
    """Haar-distributed unitary matrix (complex Ginibre + QR phase fix)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag))
    return ComplexOperator(q, (d,))


def doubled_tensor(ops: Sequence[ComplexOperator]) -> ComplexOperator:
    """Tensor product of ``ops`` followed by a second copy of the same list.

    With K single-factor rotations this builds O1 (x) ... (x) OK (x) O1 (x)
    ... (x) OK, the joint rotation the pair projectors commute with.
    """
    if not ops:
        raise ValueError("need at least one operator")
    seq = list(ops) + list(ops)
    out = seq[0]
    for op in seq[1:]:
        out = kron(out, op)
    return out
