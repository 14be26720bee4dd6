"""Projector families for states invariant under joint real-orthogonal rotations.

The bipartite building blocks are the swap-symmetric and antisymmetric
projectors Q0, Q1 together with the maximally entangled projector; from them
one forms the three-member orthogonal resolution Pi0 = Q0 - P1, Pi1 = Q1,
Pi2 = P1 whose normalized members are the vertices of the invariant-state
simplex.  For 2K parties the factor acting on pair i couples subsystems i
and K+i, so each member of the family is the Kronecker product of its
factors in pair order (A1 B1 A2 B2 ...) transposed to grouped order
(A1..AK B1..BK).
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from .dense import (
    CapacityError,
    ComplexOperator,
    _check_dimension,
    _check_local_dimension,
    _check_pair_count,
    kron_rows,
)

#: Most bytes of dense complex128 projector matrices one family build may hold.
#: verify at d=3, K=3 keeps two copies of its 27 projectors, 0.46 GB; d=2, K=5
#: would need 4.1 GB for one.
FAMILY_BYTES = 2**30


def hull_generators(d: int) -> np.ndarray:
    """(Q0, Q1, P0, P1) at local dimension d >= 2 as one read-only (4, d**2, d**2) stack.

    Q0/Q1 = (1 +/- F)/2 resolve the swap F: x (x) y -> y (x) x.  P1 is the
    maximally entangled projector, exactly 1/d on the (ii, jj) positions so
    that d P1 reproduces the partially transposed F without rounding, and
    P0 = 1 - P1.  d = 1 is rejected: the antisymmetric sector is empty there
    and the simplex degenerates.
    """
    _check_local_dimension(d)
    n = _check_dimension(d * d)
    eye = np.eye(n)
    swap = eye.reshape(d, d, d, d).swapaxes(2, 3).reshape(n, n)
    entangled = np.zeros((n, n))
    diag = np.arange(d) * (d + 1)
    entangled[np.ix_(diag, diag)] = 1.0 / d
    generators = [(eye + swap) / 2.0, (eye - swap) / 2.0, eye - entangled, entangled]
    stack = np.array(generators, dtype=np.complex128)
    stack.setflags(write=False)
    return stack


def bipartite_traces(d: int) -> tuple[int, int, int]:
    """Exact traces of (Pi0, Pi1, Pi2): ((d-1)(d+2)/2, d(d-1)/2, 1)."""
    _check_local_dimension(d)
    return ((d - 1) * (d + 2) // 2, d * (d - 1) // 2, 1)


def all_multi_indices(K: int) -> list[tuple[int, ...]]:
    """All trinary K-digit multi-indices in rank order."""
    _check_pair_count(K)
    return list(product((0, 1, 2), repeat=K))


def pair_projectors(d: int) -> np.ndarray:
    """(Pi0, Pi1, Pi2) = (Q0 - P1, Q1, P1) of :func:`hull_generators` as one
    read-only (3, d**2, d**2) stack."""
    q0, q1, _, p1 = hull_generators(d)
    stack = np.stack([q0 - p1, q1, p1])
    stack.setflags(write=False)
    return stack


def _family_rows(d: int, K: int, alphas: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The pair projectors of trinary K-digit ``alphas`` as one read-only (T, D, D) stack.

    Each member is the Kronecker product of its factors in pair order, then
    one transpose of its legs to grouped order, written into its row in turn,
    so the build holds one family and one member besides.
    """
    dim = _check_dimension(d ** (2 * K))
    pair = pair_projectors(d)[:, None]
    # grouped leg j comes from pair-ordered leg legs[j]: A_i is leg 2i, B_i is 2i + 1
    legs = [*range(0, 2 * K, 2), *range(1, 2 * K, 2)]
    axes = legs + [2 * K + leg for leg in legs]
    out = np.empty((len(alphas), dim, dim), dtype=np.complex128)
    for row, alpha in zip(out, alphas):
        member = kron_rows(*(pair[g] for g in alpha))
        row[...] = member.reshape((d,) * (4 * K)).transpose(axes).reshape(dim, dim)
    out.setflags(write=False)
    return out


def build_multipartite(d: int, K: int, alpha: Sequence[int]) -> ComplexOperator:
    """Tensor projector with factor alpha[i] acting on the (i, K+i) pair.

    The result lives on shape [d]*2K with all Alice factors first.
    """
    _check_pair_count(K)
    if len(alpha) != K:
        raise ValueError(f"alpha has {len(alpha)} digits, expected K={K}")
    return ComplexOperator(_family_rows(d, K, [_trinary(alpha)])[0], (d,) * (2 * K))


def multipartite_trace(d: int, alpha: Sequence[int]) -> int:
    """Exact trace of the pair projector with the given digits."""
    traces = bipartite_traces(d)
    return prod(traces[g] for g in _trinary(alpha))


def _trinary(alpha: Sequence[int]) -> tuple[int, ...]:
    """``alpha`` as ints, each digit checked against {0, 1, 2} before int() could round it."""
    if any(g not in (0, 1, 2) for g in alpha):
        raise ValueError(f"alpha digits must be trinary, got {tuple(alpha)}")
    return tuple(int(g) for g in alpha)


def check_family_budget(d: int, K: int, copies: int = 1) -> None:
    """Raise CapacityError when ``copies`` dense families exceed FAMILY_BYTES.

    One family is 3**K matrices of dimension d**(2K) at 16 bytes an entry.
    The size is built one pair at a time and the check stops at the first
    partial size over budget, so an enormous K is rejected at once.
    """
    _check_local_dimension(d)
    _check_pair_count(K)
    needed = copies * 16
    for _ in range(K):
        needed *= 3 * d**4
        if needed > FAMILY_BYTES:
            raise CapacityError(
                f"{copies} x the dense projector family at d={d}, K={K} exceeds "
                f"the budget of {FAMILY_BYTES} bytes"
            )


def projector_family(d: int, K: int) -> np.ndarray:
    """All 3**K pair projectors in multi-index rank order, as one read-only
    (3**K, D, D) stack within FAMILY_BYTES."""
    check_family_budget(d, K)
    return _family_rows(d, K, all_multi_indices(K))

