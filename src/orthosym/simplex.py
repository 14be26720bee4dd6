"""Fidelity-coordinate calculus on the invariant-state simplex.

A 2K-party state invariant under every doubled rotation O1..OK is determined
by its 3**K fidelities pi_alpha against the pair projectors, one trinary
digit per Alice-Bob pair.  This module works directly on those coordinates:
partial transposition becomes a per-digit 3x3 matrix action, positivity
becomes coordinate nonnegativity, and separability bounds become per-
coordinate ceilings.  Dense matrices only enter where a density matrix is
explicitly supplied (twirling) or requested (reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb, inf, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dense import (
    PSD_TOL,
    CapacityError,
    ComplexOperator,
    DomainError,
    _check_dimension,
    _check_local_dimension,
    _check_pair_count,
    is_psd_rows,
    kron_rows,
)
from .projectors import bipartite_traces, pair_projectors

#: Absolute slack allowed on the unit-sum constraint of state coordinates.
SUM_TOL = 1e-12
#: Most floats one command may write, checked by :func:`check_output_budget`:
#: the lattice points x 3**K coordinates of ``scan`` (about 20 bytes of CSV text
#: each; the largest default grid of K <= 7 is K = 4, 7.4e6), the 4**K x 3**K
#: coordinates of ``vertices``, the masks x 3**K coordinates of ``ppt``, the
#: 2 x 3**K floats (``pi`` and ``bound``) of ``sep`` and the 2 x d**(4K) floats of
#: one ``projectors`` matrix.
SCAN_OUTPUT_COORDS = 10**7
#: Coordinates per row block of :func:`classify_lattice` (at least one row).  A
#: block's :func:`pt_map_masks` walk holds at most 2**K x SCAN_BLOCK_COORDS floats,
#: 16 MiB at K = 7, the largest K the output bound admits.
SCAN_BLOCK_COORDS = 2**14


@dataclass(frozen=True, eq=False)
class FidelityVector:
    """Coordinates pi_alpha of an invariant 2K-party state.

    Entries follow base-3 rank order with the first pair as the most
    significant digit.  Transposed coordinates (:attr:`PPTVerdict.transformed`)
    may carry negative entries; :meth:`is_state` tells the two cases apart.
    """

    d: int
    K: int
    pi: np.ndarray

    def __post_init__(self) -> None:
        _check_local_dimension(self.d)
        _check_pair_count(self.K)
        pi = np.array(self.pi, dtype=float, copy=True)
        if pi.ndim != 1 or not _is_power(pi.size, 3, self.K):
            raise ValueError(f"expected 3**{self.K} coordinates, got shape {pi.shape}")
        if not np.isfinite(pi).all():
            raise DomainError("coordinates must be finite")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def is_state(self, tol: float = PSD_TOL) -> bool:
        """True when every coordinate exceeds -tol and the sum is one."""
        return bool(_state_rows(self.pi[None], tol)[0])


def _state_rows(pi: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """:meth:`FidelityVector.is_state` for every row of an (N, 3**K) array."""
    return (pi.min(axis=1) >= -tol) & (np.abs(pi.sum(axis=1) - 1.0) <= SUM_TOL)


def _check_state_rows(pi: np.ndarray, what: str) -> None:
    """Raise DomainError naming ``what`` unless every row of ``pi`` is state-valued."""
    if not _state_rows(pi).all():
        raise DomainError(f"{what} requires state-valued coordinates")


def _check_tolerance(tol: float) -> None:
    if not 0 <= tol < inf:  # nan fails both comparisons
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


def _check_grid(n: int) -> None:
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n!r}")


def _check_reduction(K: int) -> None:
    _check_pair_count(K)
    if K < 2:
        raise DomainError("reduction requires K >= 2")


def all_masks(K: int) -> list[tuple[int, ...]]:
    """The 2**K - 1 nonzero masks in binary rank order: mask r is ``all_masks(K)[r - 1]``."""
    _check_pair_count(K)
    return list(product((0, 1), repeat=K))[1:]


def _binary_mask(mask: "str | Sequence[int]", K: int) -> tuple[int, ...]:
    """The bits of a K-digit '0'/'1' string or a K-bit 0/1 sequence; forms no power of K."""
    digits, shown = ("01", repr(mask)) if isinstance(mask, str) else ((0, 1), tuple(mask))
    if len(mask) != K or any(b not in digits for b in mask):
        raise ValueError(f"mask must be {K} binary digits, got {shown}")
    return tuple(map(int, mask))


def bob_subsystems(mask: Sequence[int], K: int) -> tuple[int, ...]:
    """Dense subsystems transposed by the K-bit ``mask``: {K + i : mask[i] = 1}."""
    _check_pair_count(K)
    bits = _binary_mask(tuple(mask), K)  # as a tuple, a '0'/'1' string is no bit sequence
    return tuple(K + i for i, b in enumerate(bits) if b)


def c_matrix(d: int) -> np.ndarray:
    """The read-only 3x3 matrix C of one-pair partial transposition at local dimension d.

    Rows index the input coordinate and columns the output, i.e.
    pi'_a = sum_b pi_b * C[b, a].  Every row sums to one, which is exactly
    trace preservation; the entries are not all nonnegative, so the matrix
    is not stochastic.  It squares to the identity.
    """
    _check_local_dimension(d)
    m = np.array(
        [
            [d - 2, d, 2],
            [d + 2, d, -2],
            [(d - 1) * (d + 2), -d * (d - 1), 2],
        ],
        dtype=float,
    ) / (2 * d)
    m.setflags(write=False)
    return m


def _check_mask(mask: Sequence[int], width: int) -> tuple[int, ...]:
    if 3 ** len(mask) != width:
        raise IndexError(f"mask length {len(mask)} does not match {width} coordinates")
    return _binary_mask(tuple(mask), len(mask))


def _is_power(size: int, base: int, exp: int) -> bool:
    """Whether ``size == base**exp``.  For base >= 2 the power is over the size once exp
    reaches the size's bit length, so capping exp there keeps the verdict (1**x is 1)."""
    return size == base ** min(exp, size.bit_length())


def _check_rows(pi: np.ndarray, K: int) -> None:
    """Raise ValueError unless ``pi`` is an (N, 3**K) array of coordinate rows."""
    _check_pair_count(K)
    if pi.ndim != 2 or not _is_power(pi.shape[1], 3, K):
        raise ValueError(f"expected rows of 3**{K} coordinates, got shape {pi.shape}")


def pt_map_rows(pi: np.ndarray, c: np.ndarray, mask: Sequence[int]) -> np.ndarray:
    """Coordinates of every row of an (N, 3**K) array after the transposition ``mask``.

    ``c`` is the (3, 3) map of one pair, :func:`c_matrix` of the local
    dimension, and ``mask`` holds one binary digit per pair.  Each masked
    digit axis is contracted with ``c`` while the batch axis rides along in
    front, so a single row gives exactly the floats of the one-vector
    contraction.
    """
    if pi.ndim != 2:  # a width that misses the mask stays the mask's IndexError
        _check_rows(pi, len(mask))
    bits = _check_mask(mask, pi.shape[1])
    tensor = pi.reshape((len(pi),) + (3,) * len(bits))
    axes = [axis for axis, bit in enumerate(bits, start=1) if bit]
    return _contract_axes(tensor, c, axes).reshape(pi.shape)


def _contract_axes(x: np.ndarray, m: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Contract the listed axes of a batched (T, p, ..., p) tensor with a (p, q) matrix.

    The axes are taken in the order given, one matrix product each, and each
    keeps its place.  The product runs row by row of the batch axis, so a row
    gives the floats of a batch of one.
    """
    t, (p, q) = len(x), m.shape
    for axis in axes:
        x = np.moveaxis(x, axis, -1)
        rows = x.reshape(t, prod(x.shape[1:-1]), p) @ m
        x = np.moveaxis(rows.reshape(x.shape[:-1] + (q,)), -1, axis)
    return x


def pt_map_masks(pi: np.ndarray, c: np.ndarray, K: int) -> np.ndarray:
    """:func:`pt_map_rows` of every row of an (N, 3**K) array under all 2**K masks.

    Returns the (N, 2**K, 3**K) walk: slice r holds the rows under the mask
    of rank r, ``all_masks(K)[r - 1]``, slice 0 the rows themselves.  Mask r is
    ``c`` on the last masked axis of mask r & (r - 1), already in the walk, so
    each mask costs one contraction, and the axes are contracted in the
    order of :func:`pt_map_rows`, which keeps every float bitwise equal to it.
    """
    _check_rows(pi, K)
    # stored mask by mask: each block is one contiguous (N, 3, ..., 3) tensor
    walk = np.empty((2**K, len(pi)) + (3,) * K)
    walk[0] = pi.reshape(walk.shape[1:])
    for r in range(1, 2**K):
        # the lowest rank bit is the last pair, axis K - lowest bit index
        axis = K - ((r & -r).bit_length() - 1)
        walk[r] = _contract_axes(walk[r & (r - 1)], c, [axis])
    return walk.reshape(2**K, *pi.shape).swapaxes(0, 1)


@dataclass(frozen=True, eq=False)
class PPTVerdict:
    """Outcome of one partial-transposition positivity test; ``violations`` holds
    the (rank, value) of each transformed coordinate below -tol."""

    mask: tuple[int, ...]
    is_ppt: bool
    transformed: FidelityVector
    violations: tuple[tuple[int, float], ...]


def ppt_check(f: FidelityVector, mask: Sequence[int], tol: float = PSD_TOL) -> PPTVerdict:
    """Positivity verdict for one transposition mask.

    The transformed coordinates are the weights of the transposed operator
    on the orthogonal projector family, so coordinate nonnegativity is
    exactly operator positivity; every coordinate below -tol is reported as
    a violation.
    """
    bits = _check_mask(mask, f.pi.size)
    _check_state_rows(f.pi[None], "ppt_check")
    _check_tolerance(tol)
    g = pt_map_rows(f.pi[None], c_matrix(f.d), bits)[0]
    violations = tuple((r, float(g[r])) for r in np.flatnonzero(g < -tol).tolist())
    return PPTVerdict(bits, not violations, FidelityVector(f.d, f.K, g), violations)


@dataclass(frozen=True, eq=False)
class PairInequalities:
    """Left-hand sides of the two single-pair transposition inequality systems."""

    mask01: np.ndarray
    mask10: np.ndarray


def ppt_inequalities(f: FidelityVector) -> PairInequalities:
    """The six-residual systems equivalent to the (0,1) and (1,0) mask tests.

    For each value k of the untouched digit, transposing the other pair is
    positive iff pi_k0 + pi_k1 - (d-1) pi_k2 >= 0 and pi_k0 - pi_k1 + pi_k2
    >= 0 (digits read in the transposed slot); the remaining output
    coordinate is automatically nonnegative for state-valued input because
    the first column of the transposition matrix is nonnegative for d >= 2.
    Residuals are listed k = 0, 1, 2, two per k.
    """
    if f.K != 2:
        raise DomainError("pair inequality systems are defined for K = 2")
    p = f.pi.reshape(3, 3)
    sys01, sys10 = [], []
    for k in range(3):
        sys01 += [p[k, 0] + p[k, 1] - (f.d - 1) * p[k, 2], p[k, 0] - p[k, 1] + p[k, 2]]
        sys10 += [p[0, k] + p[1, k] - (f.d - 1) * p[2, k], p[0, k] - p[1, k] + p[2, k]]
    return PairInequalities(np.array(sys01), np.array(sys10))


def product_state_fidelities_rows(psis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Simplex coordinates of pure product states, one (psi, phi) per pair.

    Row t of the (T, K, d) stacks gives psi_i = psis[t, i] and phi_i =
    phis[t, i], and row t of the (T, 3**K) result the coordinates of the
    dense product state psi_1 (x) .. (x) psi_K (x) phi_1 (x) .. (x) phi_K.
    With a = |<psi|phi>|^2 and b = |<psi|conj(phi)>|^2 pair i contributes
    the triple ((1+a)/2 - b/d, (1-a)/2, b/d), and coordinates multiply
    across pairs.
    """
    psis = np.asarray(psis, dtype=np.complex128)
    phis = np.asarray(phis, dtype=np.complex128)
    if psis.ndim != 3 or psis.shape != phis.shape or psis.shape[1] < 1:
        raise ValueError("need one psi and one phi per pair")
    d = psis.shape[2]
    _check_local_dimension(d)
    for v in (psis, phis):
        if (np.abs(np.linalg.norm(v, axis=2) - 1.0) > 1e-10).any():
            raise DomainError("vectors must have unit norm")
    # one (1, d) @ (d, 1) product per pair is the inner product np.vdot takes, and
    # hypot rounds as abs of one complex does (np.abs of an array need not)
    bra = psis.conj()[..., None, :]
    a, b = (
        np.hypot(z.real, z.imag)[..., 0, 0] ** 2
        for z in (bra @ phis[..., None], bra @ phis.conj()[..., None])
    )
    triples = np.stack([(1.0 + a) / 2.0 - b / d, (1.0 - a) / 2.0, b / d], axis=2)
    return kron_rows(*triples.swapaxes(0, 1)[:, :, None])[:, 0]


@dataclass(frozen=True, eq=False)
class SeparabilityBounds:
    """Outcome of the per-coordinate product-state ceilings.

    ``sufficient`` is True only for a single pair, where passing the bounds
    characterizes separability; for K >= 2 a pass is a necessary condition
    only and the state is merely a separability candidate.  ``violated``
    holds the ranks of the coordinates over their ceilings.
    """

    passes: bool
    sufficient: bool
    bounds: np.ndarray
    violated: tuple[int, ...]


def coordinate_bounds(d: int, K: int) -> np.ndarray:
    """Product-state ceilings 1 / (f_s1 ... f_sK) with (f_0, f_1, f_2) = (1, 2, d)."""
    _check_local_dimension(d)
    _check_pair_count(K)
    weights = np.array([[[1.0, 2.0, float(d)]]])
    with np.errstate(over="ignore"):  # a product past the float range is inf: ceiling 0
        return 1.0 / kron_rows(*[weights] * K)[0, 0]


def sep_bound_check(f: FidelityVector) -> SeparabilityBounds:
    """Check every coordinate against its product-state ceiling, within PSD_TOL."""
    _check_state_rows(f.pi[None], "sep_bound_check")
    bounds = coordinate_bounds(f.d, f.K)
    violated = tuple(np.flatnonzero(f.pi > bounds + PSD_TOL).tolist())
    return SeparabilityBounds(not violated, f.K == 1, bounds, violated)


def _pair_legs(K: int) -> list[int]:
    """Legs of a grouped-order 2K-party matrix, pair by pair as (A_i, B_i, A'_i, B'_i)."""
    return [leg for i in range(K) for leg in (i, K + i, 2 * K + i, 3 * K + i)]


def twirl_rows(stack: np.ndarray, d: int, K: int) -> np.ndarray:
    """:func:`twirl_coords` of every density matrix of a (T, D, D) stack.

    Returns the (T, 3**K) coordinates.  Each check runs on the whole stack,
    in the order of :func:`twirl_coords`, and raises its error for the first
    failing matrix.  Each pair is contracted by one matrix product per
    matrix, so a row gives the floats of a stack of one.
    """
    _check_local_dimension(d)
    _check_pair_count(K)
    dim = stack.shape[-1]
    if not _is_power(dim, d, 2 * K):
        raise DomainError(f"state dimension {dim} is not {d}^(2*{K})")
    _check_dimension(dim)
    if not np.isfinite(stack).all():
        raise DomainError("state has non-finite entries")
    traces = np.trace(stack, axis1=1, axis2=2)
    off = np.flatnonzero(np.abs(traces - 1.0) > 1e-10)
    if off.size:
        raise DomainError(f"state trace {complex(traces[off[0]]):.12g} is not 1")
    if not is_psd_rows(stack).all():
        raise DomainError("state is not positive semidefinite within tolerance")
    t = len(stack)
    # [k, (a b a' b')] = Pi_k[a' b', a b], the transposed factor of the trace
    pair = pair_projectors(d).transpose(0, 2, 1).reshape(3, d**4)
    legs = [0] + [1 + leg for leg in _pair_legs(K)]
    x = stack.reshape((t,) + (d,) * (4 * K)).transpose(legs).reshape((t,) + (d**4,) * K)
    pi = _contract_axes(x, pair.T, range(1, K + 1)).real.reshape(t, 3**K)
    return pi / pi.sum(axis=1, keepdims=True)


def twirl_coords(rho: ComplexOperator, d: int, K: int) -> FidelityVector:
    """Project a density matrix onto the invariant simplex.

    pi_alpha = Tr(rho Pi_alpha) is contracted one pair at a time, the (A_i, B_i
    | A'_i, B'_i) legs of rho against the three bipartite projectors.  The
    result is state-valued, idempotent with :func:`reconstruct`, and rescaled
    by its sum so that a trace off by up to 1e-10 still yields unit-sum output.
    """
    pi = twirl_rows(rho.matrix[None], d, K)[0]
    if rho.shape != (d,) * (2 * K):  # d >= 2 and d**(2K) <= MAX_DIM by now
        raise DomainError(f"state shape {list(rho.shape)} is not {2 * K} factors of {d}")
    return FidelityVector(d, K, pi)


def reconstruct_rows(pi: np.ndarray, d: int, K: int) -> np.ndarray:
    """:func:`reconstruct` of every row of an (N, 3**K) coordinate array.

    Returns the (N, D, D) stack of dense states, D = d**(2K).  Each pair is
    contracted by one matrix product per row, so a row gives the floats of a
    stack of one.
    """
    _check_rows(pi, K)
    _check_state_rows(pi, "reconstruct")
    dim = _check_dimension(d ** (2 * K))
    n = len(pi)
    pair = pair_projectors(d).reshape(3, d**4) / np.array(bipartite_traces(d))[:, None]
    x = _contract_axes(pi.reshape((n,) + (3,) * K), pair, range(1, K + 1))
    legs = [0] + [1 + leg for leg in np.argsort(_pair_legs(K))]
    return x.reshape((n,) + (d,) * (4 * K)).transpose(legs).reshape(n, dim, dim)


def reconstruct(f: FidelityVector) -> ComplexOperator:
    """Dense sum_alpha pi_alpha * (projector / trace): the twirl contraction in reverse."""
    return ComplexOperator(reconstruct_rows(f.pi[None], f.d, f.K)[0], (f.d,) * (2 * f.K))


def reduce_rows(pi: np.ndarray, K: int, pair_index: int) -> np.ndarray:
    """:func:`reduce_pair` of every row of an (N, 3**K) array, as (N, 3**(K-1)) rows."""
    _check_reduction(K)
    if not 0 <= pair_index < K:
        raise IndexError(f"pair index {pair_index} out of range for K={K}")
    _check_rows(pi, K)
    tensor = pi.reshape((len(pi),) + (3,) * K).sum(axis=1 + pair_index)
    return tensor.reshape(len(pi), 3 ** (K - 1))


def reduce_pair(f: FidelityVector, pair_index: int) -> FidelityVector:
    """Marginal coordinates after discarding one Alice-Bob pair.

    The discarded trinary digit is summed out, which matches the dense
    partial trace over subsystems (pair_index, K + pair_index) followed by
    re-extraction of coordinates.
    """
    return FidelityVector(f.d, f.K - 1, reduce_rows(f.pi[None], f.K, pair_index)[0])


VERTEX_LABELS = ("Q0", "Q1", "P0", "P1")


def _vertex_table(d: int) -> np.ndarray:
    """Coordinates of the normalized hull generators, one row each in VERTEX_LABELS order.

    Q0, Q1 are the swap-symmetric and antisymmetric (Werner) pair, P0, P1
    the entangled-fraction (isotropic) pair.  The values agree with twirling
    the corresponding dense normalized operator:

        Q0 -> ((d-1)(d+2), 0, 2) / (d(d+1))      Q1 -> (0, 1, 0)
        P0 -> (d+2, d, 0) / (2(d+1))             P1 -> (0, 0, 1)
    """
    werner, isotropic = d * (d + 1), 2 * (d + 1)
    return np.array(
        [
            [(d - 1) * (d + 2) / werner, 0.0, 2.0 / werner],
            [0.0, 1.0, 0.0],
            [(d + 2) / isotropic, d / isotropic, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def check_output_budget(sizes: Iterable[int], what: str) -> None:
    """Raise CapacityError at the first of ``sizes`` over SCAN_OUTPUT_COORDS.

    ``sizes`` are the growing partial products of an output count, the last
    one the count itself.  Given lazily, they stop at the first one over the
    bound, so an enormous K, n or d is rejected without forming the count.
    """
    for size in sizes:
        if size > SCAN_OUTPUT_COORDS:
            raise CapacityError(
                f"{what} exceeds the output budget of {SCAN_OUTPUT_COORDS:.0e} coordinates"
            )


def check_vertex_budget(K: int) -> None:
    """Raise CapacityError when the 4**K hull vertices of 3**K coordinates exceed
    SCAN_OUTPUT_COORDS.

    K <= 6 fits (K = 6: 3.0e6 coordinates); K >= 7 does not (K = 7: 3.6e7).
    """
    _check_pair_count(K)
    check_output_budget((12**k for k in range(1, K + 1)), f"the hull vertex list of K={K}")


def hull_vertices(d: int, K: int) -> np.ndarray:
    """All 4**K tensor combinations of the bipartite hull generators.

    Returns the read-only (4**K, 3**K) table, row r the vertex labelled
    ``list(product(VERTEX_LABELS, repeat=K))[r]``, after :func:`check_vertex_budget`.
    """
    _check_local_dimension(d)
    check_vertex_budget(K)  # checks K
    table = kron_rows(*[_vertex_table(d)[None]] * K)[0]
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class IntersectionPoint:
    """Crossing data for the bipartite Werner and isotropic state lines.

    ``coords`` is the point (1-q) Q0~ + q Q1~ on the Werner line and
    ``coords_isotropic`` the point (1-p) P0~ + p P1~ on the isotropic line,
    both in simplex coordinates.
    """

    q: float
    p: float
    coords: np.ndarray
    coords_isotropic: np.ndarray


def intersection_point(d: int) -> IntersectionPoint:
    """Closed-form crossing parameters of the Werner and isotropic lines.

    Returns q = 1/2 - 1/(d(d+1)) and p = 2/(d(d+1)) * (1/2 + 1/(d(d+1))),
    each as one correctly rounded integer division, together with the point
    each parameter selects on its line.  Both satisfy the separability side
    of the line conditions (q < 1/2, p < 1/d).

    Note: the two selected points coincide only in their third coordinate.
    The exact crossing of the two lines is the maximally mixed state,
    reached at line parameters (d-1)/(2d) and 1/d**2; both parametrized
    points are returned so the discrepancy stays observable.
    """
    _check_local_dimension(d)
    # q = (n - 2) / (2n) and p = (n + 2) / n^2 exactly, with n = d(d + 1);
    # int / int rounds the exact quotient once, as float(Fraction) does
    n = d * (d + 1)
    q = (n - 2) / (2 * n)
    p = (n + 2) / (n * n)
    w0, w1, i0, i1 = _vertex_table(d)
    return IntersectionPoint(q, p, (1 - q) * w0 + q * w1, (1 - p) * i0 + p * i1)


def _composition_blocks(n: int, parts: int, coords: int) -> Iterator[np.ndarray]:
    """Compositions of n into ``parts`` nonnegative integers, lexicographic.

    Yields (B, parts) integer blocks of at most ``coords`` entries, and at
    least one row each.  Each composition is read off the positions of its
    parts - 1 bars among n + parts - 1 slots: the gaps between consecutive
    bars, taken as one ``np.diff`` per block.
    """
    _check_grid(n)
    if parts < 1:
        raise ValueError("need parts >= 1")
    rows = max(1, coords // parts)
    slots = n + parts - 1
    bars = combinations(range(slots), parts - 1)
    while block := list(islice(bars, rows)):
        at = np.array(block, dtype=np.int64).reshape(len(block), parts - 1)
        yield np.diff(at, axis=1, prepend=-1, append=slots) - 1


def simplex_grid(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into ``parts`` nonnegative integers, lexicographic."""
    for block in _composition_blocks(n, parts, SCAN_BLOCK_COORDS):
        yield from map(tuple, block.tolist())


def default_grid_resolution(K: int) -> int:
    """Largest n whose composition lattice into 3**K parts has <= 100,000 points.

    Never below 1, even when the n = 1 lattice (3**K points) is over the limit.
    From K = 17, the bit length of the limit, that is always so; K is capped
    there, so an enormous K forms no enormous power.  K < 1 is rejected: at
    K = 0 every n would fit.
    """
    _check_pair_count(K)
    limit = 100_000
    m = 3 ** min(K, limit.bit_length())
    n = 1
    while comb(n + m, m - 1) <= limit:
        n += 1
    return n


def check_scan_budget(n: int, K: int) -> None:
    """Raise CapacityError when the points x 3**K coordinates of the n-lattice
    exceed SCAN_OUTPUT_COORDS.

    3**K is built one pair at a time, then the point count C(n + 3**K - 1,
    3**K - 1) one factor at a time, so an enormous n or K is rejected at once;
    K and n are checked first, n by :func:`_check_grid`.
    The work of a scan, the output times 2**K - 1 masks, needs no bound of its
    own: an admitted scan costs at most 6.3e8 (K = 7 admits only n = 1, and
    from K = 8 even n = 1 is over the bound).
    """
    _check_pair_count(K)
    _check_grid(n)

    def sizes() -> Iterator[int]:
        yield from (3**k for k in range(1, K + 1))
        m, points = 3**K, 1
        for i in range(1, m):
            points = points * (n + i) // i
            yield points * m

    check_output_budget(sizes(), f"scan of K={K} at grid {n}")


def classify_lattice(
    d: int, K: int, n: int, tol: float = PSD_TOL
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The lattice points pi = c / n in row blocks, with the scan verdicts.

    Yields ``(comp, ppt, bound_ok)`` per block of at most SCAN_BLOCK_COORDS
    coordinates: ``comp`` is (B, 3**K), the integer compositions c of n of
    :func:`simplex_grid`, and with f = c / n, ``ppt[:, j]`` is ``ppt_check(f,
    all_masks(K)[j], tol).is_ppt`` and ``bound_ok`` ``sep_bound_check(f).passes``,
    row by row, the masks taken from one :func:`pt_map_masks` walk per block.
    :func:`check_scan_budget` runs before the first block.
    """
    c = c_matrix(d)  # checks d
    _check_pair_count(K)
    _check_tolerance(tol)
    check_scan_budget(n, K)
    bounds = coordinate_bounds(d, K)
    for comp in _composition_blocks(n, 3**K, SCAN_BLOCK_COORDS):
        pi = comp / n
        ppt = ~(pt_map_masks(pi, c, K)[:, 1:] < -tol).any(axis=2)
        yield comp, ppt, ~(pi > bounds + PSD_TOL).any(axis=1)
