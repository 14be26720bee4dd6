"""Dense complex linear algebra over tensor-product Hilbert spaces.

Everything here works on explicit matrices, batched as (T, D, D) stacks:
Kronecker products, partial transposes and traces over arbitrary subsystem
subsets, Hermitian eigenvalue bounds and PSD verdicts, and seeded random
rotations and unit vectors.  All functions are pure, and a ComplexOperator's
matrix is read-only, so operators can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

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
        # checked before int(), which would take 2.7 and "2" to 2; a bool is no dimension
        if not all(_is_integer(s) for s in self.shape):
            raise ValueError(f"local dimensions must be integers, got {tuple(self.shape)}")
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


def _is_integer(n) -> bool:
    """True for an ``int`` or a NumPy integer, but not for a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _check_local_dimension(d: int) -> None:
    if not _is_integer(d):
        raise ValueError(f"local dimension must be an integer, got {d!r}")
    if d < 2:
        raise DomainError("local dimension must be >= 2")


def _check_pair_count(K: int) -> None:
    if not _is_integer(K):
        raise ValueError(f"pair count must be an integer, got {K!r}")
    if K < 1:
        raise ValueError("pair count must be >= 1")


def _check_draw_dimension(d: int) -> None:
    if d < 1:
        raise ValueError("dimension must be >= 1")


def _check_dimension(dim: int) -> int:
    if dim > MAX_DIM:
        raise CapacityError(f"dimension {dim} exceeds the cap {MAX_DIM}")
    return dim


def _subsystems(shape: Sequence[int], subs: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(int(s) for s in subs))
    if len(set(out)) != len(out):
        raise IndexError(f"duplicate subsystem indices in {out}")
    if out and (out[0] < 0 or out[-1] >= len(shape)):
        raise IndexError(f"subsystem indices {out} out of range for shape {shape}")
    return out


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
    """Transpose the factors ``subs`` (0-based) of every matrix of a (T, D, D) stack on
    factors ``shape``, leaving the others untouched: a trace-preserving involution."""
    n = len(shape)
    axes = list(range(2 * n + 1))
    for s in _subsystems(shape, subs):
        axes[1 + s], axes[1 + n + s] = axes[1 + n + s], axes[1 + s]
    tensor = stack.reshape((len(stack), *shape, *shape))
    return tensor.transpose(axes).reshape(stack.shape)


def partial_trace_rows(
    stack: np.ndarray, shape: Sequence[int], subs: Iterable[int]
) -> np.ndarray:
    """Trace out the factors ``subs`` of every matrix of a (T, D, D) stack on factors
    ``shape``, keeping its trace; tracing out every factor leaves a 1x1 matrix."""
    dims = list(shape)
    tensor = stack.reshape((len(stack), *dims, *dims))
    for s in reversed(_subsystems(shape, subs)):
        tensor = np.trace(tensor, axis1=1 + s, axis2=1 + s + len(dims))
        del dims[s]
    return tensor.reshape(len(stack), prod(dims), prod(dims))


def _hermitian_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M + M^dagger) / 2 of every matrix M of a (T, D, D) stack, and the
    largest entry magnitude of each M.

    Raises :class:`DomainError` when any matrix deviates from Hermiticity by
    more than :data:`HERM_RTOL` relative to its largest entry magnitude.
    """
    scale = np.abs(stack).max(axis=(1, 2))
    # one adjoint serves the skew and, with the stack added in place, the sum
    herm = np.conj(stack.swapaxes(1, 2), order="C")
    skew = np.abs(stack - herm).max(axis=(1, 2))
    if (skew > HERM_RTOL * scale).any():
        raise DomainError("matrix is not Hermitian within tolerance")
    herm += stack
    herm /= 2.0
    return herm, scale


def min_eigenvalue_rows(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every Hermitian matrix of a (T, D, D) stack.

    Raises :class:`DomainError` when any matrix deviates from Hermiticity by
    more than :data:`HERM_RTOL` relative to its largest entry magnitude.
    """
    herm, _ = _hermitian_rows(stack)
    return np.linalg.eigvalsh(herm)[:, 0]


def is_psd_rows(stack: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Whether each matrix of a (T, D, D) stack has smallest eigenvalue >= -tol.

    A Cholesky factorization of the Hermitian part shifted by ``tol / 2``
    certifies the smallest eigenvalue to be at least ``-tol / 2`` up to the
    factorization's backward error, which is below dim^2 * eps * max|a_ij|.
    The certificate is one stacked factorization, tried only when that bound
    is under the shift for every matrix; when it is not, or any matrix fails
    it, every verdict is ``min_eigenvalue_rows(stack) >= -tol``, so every
    rejection comes from eigvalsh.
    """
    herm, scale = _hermitian_rows(stack)
    dim = stack.shape[-1]
    if (tol / 2 > dim**2 * np.finfo(float).eps * scale).all():
        diagonal = np.arange(dim)
        herm[:, diagonal, diagonal] += tol / 2
        try:
            np.linalg.cholesky(herm)
            return np.ones(len(herm), dtype=bool)
        except np.linalg.LinAlgError:
            pass
    return min_eigenvalue_rows(stack) >= -tol


@dataclass(eq=False, slots=True)
class _SeedChild:
    """A SeedSequence child as PCG64 seeds from it: its four uint64 seed words."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a seed child gives 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _spawn_seeds(seed: int, count: int) -> list:
    """For an integer seed, the PCG64 seed words of the ``count`` children that numpy's
    ``SeedSequence.spawn`` gives, from one vectorized pass over the parent's pool."""
    from numpy.random.bit_generator import ISeedSequence  # at module level: +15 ms start-up

    parent = np.random.SeedSequence(seed)
    ISeedSequence.register(_SeedChild)
    # numpy >= 1.19 pads a child's run entropy to the pool, so child i's pool is the parent's
    # until its last entropy word, i, which meets the hash constant after this many steps
    size = parent.pool_size
    hashes = size * max(size, -(-int(parent.entropy).bit_length() // 32))
    const, mult = 0x43B0D7E5 * pow(0x931E8875, hashes, 2**32) % 2**32, 0x931E8875

    def hashmix(value: np.ndarray) -> np.ndarray:  # const steps alike for any data
        nonlocal const
        value = (value ^ const) * (const := const * mult & 0xFFFFFFFF)
        return value ^ value >> 16

    pool, index = list(parent.pool[:, None]), np.arange(count, dtype=np.uint32)
    for dst in range(size):
        mixed = pool[dst] * 0xCA01F9DD - hashmix(index) * 0x4973F715
        pool[dst] = mixed ^ mixed >> 16
    const, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, np.uint64)
    table = np.stack([hashmix(pool[i % size]) for i in range(8)], axis=1)
    table = table.astype("<u4").view("<u8").astype(np.uint64)
    table.setflags(write=False)
    return [_SeedChild(row) for row in table]


def random_orthogonal_rows(d: int, seeds) -> np.ndarray:
    """Haar-distributed real orthogonal (d, d) float64 matrices, one per seed,
    as a (T, d, d) stack; each deterministic per its seed.

    Each seed's square matrix of independent standard normals, drawn from its
    own generator, is QR-orthogonalized in one stacked factorization, and the
    column signs are fixed so each triangular factor has a positive diagonal,
    which makes the distribution exactly Haar on O(d).
    """
    _check_draw_dimension(d)
    g = np.array([np.random.default_rng(seed).standard_normal((d, d)) for seed in seeds])
    q, r = np.linalg.qr(g.reshape(-1, d, d))
    return q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]


def random_unit_rows(d: int, field: str, seeds) -> np.ndarray:
    """Unit-norm random vectors over the ``"real"`` or ``"complex"`` field, one per seed, as
    a (T, d) stack; each seed's generator draws d normals, 2d (real parts first) if complex.

    Each norm is ``np.linalg.norm``'s of one vector, bitwise: the ``sqrt`` of the summed dot
    products of the real and imaginary views (zero if real), as (1, d) @ (d, 1) products.
    """
    _check_draw_dimension(d)
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    n = d if field == "real" else 2 * d
    g = np.array([np.random.default_rng(s).standard_normal(n) for s in seeds]).reshape(-1, n)
    v = g if field == "real" else g[:, :d] + 1j * g[:, d:]
    squares = v.real[:, None] @ v.real[..., None] + v.imag[:, None] @ v.imag[..., None]
    return v / np.sqrt(squares)[:, 0]
