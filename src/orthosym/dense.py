"""Dense complex linear algebra over tensor-product Hilbert spaces.

Everything here works on explicit matrices: Kronecker products, partial
transposes and traces over arbitrary subsystem subsets, Hermitian eigenvalue
bounds, and seeded random rotations and unit vectors.  All functions are
pure and all returned operators are immutable, so values can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .jsonio import float_array

#: Hard cap on the total Hilbert dimension of any dense construction.
MAX_DIM = 4096

#: Hermiticity tolerance, relative to the largest entry magnitude.
HERM_RTOL = 1e-12

#: Default tolerance for positive-semidefiniteness verdicts.
PSD_TOL = 1e-9


class CapacityError(ValueError):
    """The requested construction exceeds the supported dense dimension."""


class DomainError(ValueError):
    """An input violates a mathematical precondition of the operation."""


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """Square complex matrix on a tensor product of finite local spaces.

    ``shape`` lists the local dimensions in tensor order (leftmost factor
    first); their product must equal the matrix dimension.  The matrix is
    stored as a read-only complex128 array in row-major order.
    """

    matrix: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128, order="C", copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        shape = tuple(int(s) for s in self.shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"local dimensions must be positive, got {shape}")
        if prod(shape) != mat.shape[0]:
            raise ValueError(
                f"shape {shape} has product {prod(shape)}, "
                f"but the matrix dimension is {mat.shape[0]}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def to_json(self) -> dict:
        """Row-major JSON form ``{"dim", "shape", "re", "im"}``."""
        flat = self.matrix.reshape(-1)
        return {
            "dim": self.dim,
            "shape": list(self.shape),
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ComplexOperator":
        dim, shape = data["dim"], data["shape"]
        if type(shape) is not list or any(type(x) is not int for x in [dim, *shape]):
            raise ValueError(f"dim and shape must be JSON integers, got {dim!r}, {shape!r}")
        re = float_array(data["re"], "re").reshape(dim, dim)
        im = float_array(data["im"], "im").reshape(dim, dim)
        matrix = np.empty((dim, dim), dtype=np.complex128)
        matrix.real, matrix.imag = re, im
        return cls(matrix, tuple(shape))


def identity(shape: Sequence[int]) -> ComplexOperator:
    """Identity operator with the given local dimensions."""
    return ComplexOperator(np.eye(prod(shape)), tuple(shape))


def _subsystems(shape: Sequence[int], subs: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(int(s) for s in subs))
    if len(set(out)) != len(out):
        raise IndexError(f"duplicate subsystem indices in {out}")
    if out and (out[0] < 0 or out[-1] >= len(shape)):
        raise IndexError(f"subsystem indices {out} out of range for shape {shape}")
    return out


def kron(a: ComplexOperator, b: ComplexOperator) -> ComplexOperator:
    """Kronecker product; the factors of ``b`` are appended to those of ``a``.

    Row index convention is the standard one: i_a * b.dim + i_b.
    """
    if a.dim * b.dim > MAX_DIM:
        raise CapacityError(f"kron dimension {a.dim * b.dim} exceeds the cap {MAX_DIM}")
    return ComplexOperator(kron_rows(a.matrix[None], b.matrix[None])[0], a.shape + b.shape)


def kron_rows(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of (T, m, n) stacks, member by member.

    The factors are folded left to right, and a stack of one broadcasts
    against the others.  Each entry is one product of the running entry and
    a factor entry, as in ``numpy.kron``.
    """
    out = factors[0]
    for b in factors[1:]:
        x = out[:, :, None, :, None] * b[:, None, :, None, :]
        out = x.reshape(len(x), x.shape[1] * x.shape[2], x.shape[3] * x.shape[4])
    return out


def partial_transpose_rows(
    stack: np.ndarray, shape: Sequence[int], subs: Iterable[int]
) -> np.ndarray:
    """:func:`partial_transpose` of every matrix of a (T, D, D) stack on factors ``shape``."""
    n = len(shape)
    axes = list(range(2 * n + 1))
    for s in _subsystems(shape, subs):
        axes[1 + s], axes[1 + n + s] = axes[1 + n + s], axes[1 + s]
    tensor = stack.reshape((len(stack), *shape, *shape))
    return tensor.transpose(axes).reshape(stack.shape)


def partial_transpose(a: ComplexOperator, subs: Iterable[int]) -> ComplexOperator:
    """Transpose the selected tensor factors, leaving the rest untouched.

    Parameters
    ----------
    a : operator with a declared factorization
    subs : subsystem positions (0-based) whose row/column indices are swapped

    The map is a trace-preserving involution.
    """
    return ComplexOperator(partial_transpose_rows(a.matrix[None], a.shape, subs)[0], a.shape)


def partial_trace_rows(
    stack: np.ndarray, shape: Sequence[int], subs: Iterable[int]
) -> np.ndarray:
    """:func:`partial_trace` of every matrix of a (T, D, D) stack on factors ``shape``."""
    dims = list(shape)
    tensor = stack.reshape((len(stack), *dims, *dims))
    for s in reversed(_subsystems(shape, subs)):
        tensor = np.trace(tensor, axis1=1 + s, axis2=1 + s + len(dims))
        del dims[s]
    return tensor.reshape(len(stack), prod(dims), prod(dims))


def partial_trace(a: ComplexOperator, subs: Iterable[int]) -> ComplexOperator:
    """Trace out the selected tensor factors.

    The result lives on the complementary factors and has the same trace as
    the input.  Tracing out every factor yields a 1x1 operator holding the
    full trace.
    """
    subs = _subsystems(a.shape, subs)
    dims = tuple(s for i, s in enumerate(a.shape) if i not in subs) or (1,)
    return ComplexOperator(partial_trace_rows(a.matrix[None], a.shape, subs)[0], dims)


def _hermitian_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M + M^dagger) / 2 of every matrix M of a (T, D, D) stack, and the
    largest entry magnitude of each M.

    Raises :class:`DomainError` when any matrix deviates from Hermiticity by
    more than :data:`HERM_RTOL` relative to its largest entry magnitude.
    """
    scale = np.abs(stack).max(axis=(1, 2))
    skew = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if (skew > HERM_RTOL * scale).any():
        raise DomainError("matrix is not Hermitian within tolerance")
    herm = stack + stack.conj().swapaxes(1, 2)
    herm /= 2.0
    return herm, scale


def min_eigenvalue_rows(stack: np.ndarray) -> np.ndarray:
    """:func:`min_eigenvalue` of every matrix of a (T, D, D) stack."""
    herm, _ = _hermitian_rows(stack)
    return np.linalg.eigvalsh(herm)[:, 0]


def min_eigenvalue(a: ComplexOperator) -> float:
    """Smallest eigenvalue of a Hermitian operator.

    Raises :class:`DomainError` when the matrix deviates from Hermiticity by
    more than :data:`HERM_RTOL` relative to its largest entry magnitude.
    """
    return float(min_eigenvalue_rows(a.matrix[None])[0])


def is_psd_rows(stack: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """:func:`is_psd` of every matrix of a (T, D, D) stack, as a boolean array.

    The certificate is one stacked Cholesky factorization; when any matrix
    is not certifiable or fails it, every verdict comes from
    :func:`min_eigenvalue_rows`.
    """
    herm, scale = _hermitian_rows(stack)
    dim = stack.shape[-1]
    if tol > 0 and (tol / 2 > dim**2 * np.finfo(float).eps * scale).all():
        diagonal = np.arange(dim)
        herm[:, diagonal, diagonal] += tol / 2
        try:
            np.linalg.cholesky(herm)
            return np.ones(len(herm), dtype=bool)
        except np.linalg.LinAlgError:
            pass
    return min_eigenvalue_rows(stack) >= -tol


def is_psd(a: ComplexOperator, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue is above ``-tol``.

    A Cholesky factorization of the Hermitian part shifted by ``tol / 2``
    certifies the smallest eigenvalue to be at least ``-tol / 2`` up to the
    factorization's backward error, which is below dim^2 * eps * max|a_ij|.
    The certificate is tried only when that bound is under the shift; when
    it is not, or the factorization fails, the verdict is
    ``min_eigenvalue(a) >= -tol``, so every rejection comes from eigvalsh.
    """
    return bool(is_psd_rows(a.matrix[None], tol)[0])


def random_orthogonal(d: int, seed) -> ComplexOperator:
    """Haar-distributed real orthogonal matrix, deterministic per seed.

    A square matrix of independent standard normals is QR-orthogonalized and
    the column signs are fixed so the triangular factor has a positive
    diagonal, which makes the distribution exactly Haar on O(d).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return ComplexOperator(q, (d,))


def random_unit_vector(d: int, field: str, seed) -> np.ndarray:
    """Unit-norm random vector over the ``"real"`` or ``"complex"`` field."""
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
