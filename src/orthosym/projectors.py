"""Projector families for states invariant under joint real-orthogonal rotations.

The bipartite building blocks are the swap-symmetric and antisymmetric
projectors Q0, Q1 together with the maximally entangled projector; from them
one forms the three-member orthogonal resolution Pi0 = Q0 - P1, Pi1 = Q1,
Pi2 = P1 whose normalized members are the vertices of the invariant-state
simplex.  For 2K parties the factor acting on pair i couples subsystems i
and K+i, so building the tensor product requires an explicit leg
permutation from pair order (A1 B1 A2 B2 ...) to grouped order
(A1..AK B1..BK).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from .dense import (
    MAX_DIM,
    CapacityError,
    ComplexOperator,
    DomainError,
    identity,
    kron,
)

#: Most bytes of dense complex128 projector matrices one family build may hold.
#: verify at d=3, K=3 keeps two copies of its 27 projectors, 0.46 GB; d=2, K=5
#: would need 4.1 GB for one.
FAMILY_BYTES = 2**30


def flip(d: int) -> ComplexOperator:
    """Swap operator on two d-dimensional factors: x (x) y -> y (x) x.

    Its symmetric/antisymmetric eigenprojectors are (I +/- flip)/2; the
    trace equals d.
    """
    if d < 2:
        raise DomainError("flip requires local dimension >= 2")
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return ComplexOperator(f, (d, d))


def maximally_entangled(d: int) -> ComplexOperator:
    """Rank-1 projector onto the canonical maximally entangled vector.

    Entries are written as exactly 1/d on the (ii, jj) positions so that
    d times this operator reproduces the partially transposed flip without
    rounding.
    """
    m = np.zeros((d * d, d * d))
    diag = np.arange(d) * (d + 1)
    m[np.ix_(diag, diag)] = 1.0 / d
    return ComplexOperator(m, (d, d))


@dataclass(frozen=True, eq=False)
class BipartiteBasis:
    """The bipartite operators generating the invariant 2-simplex.

    Q0/Q1 resolve the swap symmetry, P1 is the maximally entangled projector
    with complement P0, and Pi0/Pi1/Pi2 form the orthogonal resolution of
    identity spanning every operator invariant under all O (x) O with O real
    orthogonal.
    """

    d: int
    F: ComplexOperator
    Q0: ComplexOperator
    Q1: ComplexOperator
    P0: ComplexOperator
    P1: ComplexOperator
    Pi0: ComplexOperator
    Pi1: ComplexOperator
    Pi2: ComplexOperator

    def pi(self, k: int) -> ComplexOperator:
        if k not in (0, 1, 2):
            raise ValueError(f"projector label must be 0, 1 or 2, got {k}")
        return (self.Pi0, self.Pi1, self.Pi2)[k]


def bipartite_traces(d: int) -> tuple[int, int, int]:
    """Exact traces of (Pi0, Pi1, Pi2): ((d-1)(d+2)/2, d(d-1)/2, 1)."""
    return ((d - 1) * (d + 2) // 2, d * (d - 1) // 2, 1)


def build_bipartite(d: int) -> BipartiteBasis:
    """Construct all bipartite generators at local dimension d >= 2.

    d = 1 is rejected: the antisymmetric sector is empty there and the
    simplex degenerates.
    """
    if d < 2:
        raise DomainError("local dimension must be >= 2")
    f = flip(d)
    p1 = maximally_entangled(d)
    eye = identity((d, d))
    q0 = ComplexOperator((eye.matrix + f.matrix) / 2.0, (d, d))
    q1 = ComplexOperator((eye.matrix - f.matrix) / 2.0, (d, d))
    p0 = ComplexOperator(eye.matrix - p1.matrix, (d, d))
    pi0 = ComplexOperator(q0.matrix - p1.matrix, (d, d))
    return BipartiteBasis(d, f, q0, q1, p0, p1, pi0, q1, p1)


def multi_index_rank(digits: Sequence[int]) -> int:
    """Base-3 rank of a trinary multi-index, most significant digit first."""
    rank = 0
    for g in digits:
        if g not in (0, 1, 2):
            raise ValueError(f"trinary digit expected, got {g}")
        rank = 3 * rank + g
    return rank


def multi_index_digits(rank: int, K: int) -> tuple[int, ...]:
    """Inverse of :func:`multi_index_rank` for K digits."""
    if not 0 <= rank < 3**K:
        raise ValueError(f"rank {rank} out of range for K={K}")
    digits = []
    for _ in range(K):
        rank, g = divmod(rank, 3)
        digits.append(g)
    return tuple(reversed(digits))


def all_multi_indices(K: int) -> list[tuple[int, ...]]:
    """All trinary K-digit multi-indices in rank order."""
    return list(product((0, 1, 2), repeat=K))


def pair_permutation(K: int) -> tuple[int, ...]:
    """Leg destinations taking pair order (A1 B1 ... AK BK) to (A1..AK B1..BK).

    Entry i is the grouped-order position of pair-ordered leg i; for K = 2
    this is (0, 2, 1, 3).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    dest: list[int] = []
    for i in range(K):
        dest.extend((i, K + i))
    return tuple(dest)


def permute_subsystems(a: ComplexOperator, dest: Sequence[int]) -> ComplexOperator:
    """Relabel tensor legs so that leg i of ``a`` becomes leg dest[i].

    The same leg permutation is applied to the row and the column indices.
    """
    n = len(a.shape)
    if sorted(dest) != list(range(n)):
        raise ValueError(f"{dest} is not a permutation of {n} legs")
    src = [int(i) for i in np.argsort(dest)]
    tensor = a.matrix.reshape(a.shape + a.shape).transpose(src + [n + i for i in src])
    return ComplexOperator(tensor.reshape(a.dim, a.dim), tuple(a.shape[i] for i in src))


def build_multipartite(d: int, K: int, alpha: Sequence[int]) -> ComplexOperator:
    """Tensor projector with factor alpha[i] acting on the (i, K+i) pair.

    The bipartite factors are Kronecker-multiplied in pair order and then
    relabeled into grouped order, so the result lives on shape [d]*2K with
    all Alice factors first.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != K:
        raise ValueError(f"alpha has {len(alpha)} digits, expected K={K}")
    if any(g not in (0, 1, 2) for g in alpha):
        raise ValueError(f"alpha digits must be trinary, got {alpha}")
    if d ** (2 * K) > MAX_DIM:
        raise CapacityError(f"dimension {d ** (2 * K)} exceeds the cap {MAX_DIM}")
    basis = build_bipartite(d)
    op = basis.pi(alpha[0])
    for digit in alpha[1:]:
        op = kron(op, basis.pi(digit))
    return permute_subsystems(op, pair_permutation(K))


def multipartite_trace(d: int, alpha: Sequence[int]) -> int:
    """Exact trace of the pair projector with the given digits."""
    traces = bipartite_traces(d)
    return prod(traces[int(g)] for g in alpha)


def check_family_budget(d: int, K: int, copies: int = 1) -> None:
    """Raise CapacityError when ``copies`` dense families exceed FAMILY_BYTES.

    One family is 3**K matrices of dimension d**(2K) at 16 bytes an entry.
    The size is built one pair at a time and the check stops at the first
    partial size over budget, so an enormous K is rejected at once.
    """
    needed = copies * 16
    for _ in range(K):
        needed *= 3 * d**4
        if needed > FAMILY_BYTES:
            raise CapacityError(
                f"{copies} x the dense projector family at d={d}, K={K} exceeds "
                f"the budget of {FAMILY_BYTES} bytes"
            )


def projector_family(d: int, K: int) -> list[ComplexOperator]:
    """All 3**K pair projectors in multi-index rank order, within FAMILY_BYTES."""
    check_family_budget(d, K)
    return [build_multipartite(d, K, alpha) for alpha in all_multi_indices(K)]


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
