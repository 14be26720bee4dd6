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
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from typing import Iterator, Sequence

import numpy as np

from .dense import (
    MAX_DIM,
    PSD_TOL,
    CapacityError,
    ComplexOperator,
    DomainError,
    min_eigenvalue,
)
from .projectors import (
    all_multi_indices,
    bipartite_traces,
    build_bipartite,
    multi_index_digits,
    multi_index_rank,
)

#: Absolute slack allowed on the unit-sum constraint of state coordinates.
SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FidelityVector:
    """Coordinates pi_alpha of an invariant 2K-party state.

    Entries follow base-3 rank order with the first pair as the most
    significant digit.  Vectors coming out of :func:`pt_map` may carry
    negative entries; :meth:`is_state` tells the two cases apart.
    """

    d: int
    K: int
    pi: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("local dimension must be >= 2")
        if self.K < 1:
            raise ValueError("pair count must be >= 1")
        pi = np.array(self.pi, dtype=float, copy=True)
        if pi.shape != (3**self.K,):
            raise ValueError(f"expected {3 ** self.K} coordinates, got shape {pi.shape}")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def total(self) -> float:
        return float(self.pi.sum())

    def is_state(self, tol: float = PSD_TOL) -> bool:
        """True when every coordinate exceeds -tol and the sum is one."""
        return bool(self.pi.min() >= -tol and abs(self.total() - 1.0) <= SUM_TOL)

    def coordinate(self, digits: Sequence[int]) -> float:
        return float(self.pi[multi_index_rank(digits)])

    def to_json(self) -> dict:
        return {"d": self.d, "K": self.K, "pi": [float(x) for x in self.pi]}

    @classmethod
    def from_json(cls, data: dict) -> "FidelityVector":
        if type(data["d"]) is not int or type(data["K"]) is not int:
            raise ValueError(f"d and K must be JSON integers, got {data['d']!r}, {data['K']!r}")
        return cls(data["d"], data["K"], np.asarray(data["pi"], dtype=float))


def mask_rank(bits: Sequence[int]) -> int:
    """Binary rank of a transposition mask, most significant bit = first pair."""
    rank = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"binary digit expected, got {b}")
        rank = 2 * rank + b
    return rank


def mask_digits(rank: int, K: int) -> tuple[int, ...]:
    """Inverse of :func:`mask_rank` for K bits."""
    if not 0 <= rank < 2**K:
        raise ValueError(f"rank {rank} out of range for K={K}")
    bits = []
    for _ in range(K):
        rank, b = divmod(rank, 2)
        bits.append(b)
    return tuple(reversed(bits))


def all_masks(K: int) -> list[tuple[int, ...]]:
    """The 2**K - 1 nonzero transposition masks in binary rank order."""
    return [mask_digits(r, K) for r in range(1, 2**K)]


def bob_subsystems(mask: Sequence[int], K: int) -> tuple[int, ...]:
    """Dense subsystem positions transposed by ``mask``: {K + i : mask[i] = 1}."""
    return tuple(K + i for i, b in enumerate(mask) if b)


@dataclass(frozen=True, eq=False)
class CMatrix:
    """3x3 real matrix carrying one-pair partial transposition in coordinates.

    Rows index the input coordinate and columns the output, i.e.
    pi'_a = sum_b pi_b * entries[b, a].  Every row sums to one, which is
    exactly trace preservation; the entries are not all nonnegative, so the
    matrix is not stochastic.  It squares to the identity.
    """

    d: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def c_matrix(d: int) -> CMatrix:
    """The coordinate transposition matrix at local dimension d."""
    if d < 2:
        raise DomainError("local dimension must be >= 2")
    m = np.array(
        [
            [d - 2, d, 2],
            [d + 2, d, -2],
            [(d - 1) * (d + 2), -d * (d - 1), 2],
        ],
        dtype=float,
    ) / (2 * d)
    return CMatrix(d, m)


def _check_mask(f: FidelityVector, mask: Sequence[int]) -> tuple[int, ...]:
    bits = tuple(int(b) for b in mask)
    if len(bits) != f.K:
        raise IndexError(f"mask length {len(bits)} does not match K={f.K}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"mask must be binary, got {bits}")
    return bits


def pt_map(f: FidelityVector, mask: Sequence[int]) -> FidelityVector:
    """Coordinates after transposing the Bob factors selected by ``mask``.

    Each masked digit is pushed through the 3x3 transposition matrix while
    unmasked digits are left alone; the coordinate sum is preserved.  The
    output may have negative entries, which is precisely the positivity
    signal the PPT tests look for, so no error is raised.
    """
    bits = _check_mask(f, mask)
    c = c_matrix(f.d).entries
    tensor = f.pi.reshape((3,) * f.K)
    for axis, bit in enumerate(bits):
        if bit:
            tensor = np.moveaxis(np.tensordot(tensor, c, axes=([axis], [0])), -1, axis)
    return FidelityVector(f.d, f.K, tensor.reshape(-1))


@dataclass(frozen=True, eq=False)
class PPTVerdict:
    """Outcome of one partial-transposition positivity test."""

    mask: tuple[int, ...]
    is_ppt: bool
    transformed: FidelityVector
    violations: tuple[tuple[tuple[int, ...], float], ...]


def ppt_check(f: FidelityVector, mask: Sequence[int], tol: float = PSD_TOL) -> PPTVerdict:
    """Positivity verdict for one transposition mask.

    The transformed coordinates are the weights of the transposed operator
    on the orthogonal projector family, so coordinate nonnegativity is
    exactly operator positivity; every coordinate below -tol is reported as
    a violation.
    """
    bits = _check_mask(f, mask)
    if not f.is_state():
        raise DomainError("ppt_check requires state-valued coordinates")
    g = pt_map(f, bits)
    bad = np.nonzero(g.pi < -tol)[0]
    violations = tuple(
        (multi_index_digits(int(r), f.K), float(g.pi[r])) for r in bad
    )
    return PPTVerdict(bits, len(bad) == 0, g, violations)


def ppt_all(f: FidelityVector, tol: float = PSD_TOL) -> dict[tuple[int, ...], PPTVerdict]:
    """Run :func:`ppt_check` for every nonzero mask, in binary rank order."""
    return {mask: ppt_check(f, mask, tol) for mask in all_masks(f.K)}


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
    d = f.d
    p = f.pi.reshape(3, 3)
    sys01 = []
    sys10 = []
    for k in range(3):
        sys01 += [p[k, 0] + p[k, 1] - (d - 1) * p[k, 2], p[k, 0] - p[k, 1] + p[k, 2]]
        sys10 += [p[0, k] + p[1, k] - (d - 1) * p[2, k], p[0, k] - p[1, k] + p[2, k]]
    return PairInequalities(np.array(sys01), np.array(sys10))


def product_state_fidelities(
    psis: Sequence[np.ndarray], phis: Sequence[np.ndarray]
) -> FidelityVector:
    """Simplex coordinates of a pure product state, one (psi, phi) per pair.

    With a = |<psi|phi>|^2 and b = |<psi|conj(phi)>|^2 the pair contributes
    the triple ((1+a)/2 - b/d, (1-a)/2, b/d), and coordinates multiply
    across pairs.  This equals the fidelities of the dense product state
    psi_1 (x) .. (x) psi_K (x) phi_1 (x) .. (x) phi_K.
    """
    psis = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in psis]
    phis = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in phis]
    if not psis or len(psis) != len(phis):
        raise ValueError("need one psi and one phi per pair")
    d = psis[0].size
    if d < 2:
        raise DomainError("local dimension must be >= 2")
    for v in psis + phis:
        if v.size != d:
            raise ValueError("all vectors must share one local dimension")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise DomainError("vectors must have unit norm")
    pi = np.ones(1)
    for psi, phi in zip(psis, phis):
        a = abs(np.vdot(psi, phi)) ** 2
        b = abs(np.vdot(psi, phi.conj())) ** 2
        pi = np.kron(pi, [(1.0 + a) / 2.0 - b / d, (1.0 - a) / 2.0, b / d])
    return FidelityVector(d, len(psis), pi)


@dataclass(frozen=True, eq=False)
class SeparabilityBounds:
    """Outcome of the per-coordinate product-state ceilings.

    ``sufficient`` is True only for a single pair, where passing the bounds
    characterizes separability; for K >= 2 a pass is a necessary condition
    only and the state is merely a separability candidate.
    """

    passes: bool
    sufficient: bool
    bounds: np.ndarray
    violated: tuple[tuple[int, ...], ...]


def coordinate_bounds(d: int, K: int) -> np.ndarray:
    """Product-state ceilings 1 / (f_s1 ... f_sK) with (f_0, f_1, f_2) = (1, 2, d)."""
    weights = (1.0, 2.0, float(d))
    return np.array(
        [1.0 / prod(weights[g] for g in alpha) for alpha in all_multi_indices(K)]
    )


def sep_bound_check(f: FidelityVector, tol: float = PSD_TOL) -> SeparabilityBounds:
    """Check every coordinate against its product-state ceiling."""
    if not f.is_state():
        raise DomainError("sep_bound_check requires state-valued coordinates")
    bounds = coordinate_bounds(f.d, f.K)
    bad = np.nonzero(f.pi > bounds + tol)[0]
    return SeparabilityBounds(
        passes=len(bad) == 0,
        sufficient=f.K == 1,
        bounds=bounds,
        violated=tuple(multi_index_digits(int(r), f.K) for r in bad),
    )


def _pair_projectors(d: int) -> np.ndarray:
    """(Pi0, Pi1, Pi2) stacked as one (3, d, d, d, d) tensor with legs (a, b, a', b')."""
    basis = build_bipartite(d)
    return np.stack([basis.pi(k).matrix for k in range(3)]).reshape((3,) + (d,) * 4)


def _pair_legs(K: int) -> list[int]:
    """Legs of a grouped-order 2K-party matrix, pair by pair as (A_i, B_i, A'_i, B'_i)."""
    return [leg for i in range(K) for leg in (i, K + i, 2 * K + i, 3 * K + i)]


def twirl_coords(
    rho: ComplexOperator, d: int, K: int, tol: float = PSD_TOL
) -> FidelityVector:
    """Project a density matrix onto the invariant simplex.

    pi_alpha = Tr(rho Pi_alpha) is contracted one pair at a time, the (A_i, B_i
    | A'_i, B'_i) legs of rho against the three bipartite projectors.  The
    result is state-valued, idempotent with :func:`reconstruct`, and rescaled
    by its sum so that a trace off by up to 1e-10 still yields unit-sum output.
    """
    if rho.dim != d ** (2 * K):
        raise DomainError(f"state dimension {rho.dim} is not {d}^(2*{K})")
    if rho.dim > MAX_DIM:
        raise CapacityError(f"dimension {rho.dim} exceeds the cap {MAX_DIM}")
    if not np.isfinite(rho.matrix).all():
        raise DomainError("state has non-finite entries")
    if abs(rho.trace() - 1.0) > 1e-10:
        raise DomainError(f"state trace {rho.trace():.12g} is not 1")
    if min_eigenvalue(rho) < -tol:
        raise DomainError("state is not positive semidefinite within tolerance")
    # [k, (a b a' b')] = Pi_k[a' b', a b], the transposed factor of the trace
    pair = _pair_projectors(d).transpose(0, 3, 4, 1, 2).reshape(3, d**4)
    x = rho.matrix.reshape((d,) * (4 * K)).transpose(_pair_legs(K)).reshape((d**4,) * K)
    for _ in range(K):
        x = np.tensordot(x, pair, axes=([0], [1]))
    pi = x.real.reshape(-1)
    return FidelityVector(d, K, pi / pi.sum())


def reconstruct(f: FidelityVector) -> ComplexOperator:
    """Dense sum_alpha pi_alpha * (projector / trace): the twirl contraction in reverse."""
    if not f.is_state():
        raise DomainError("reconstruct requires state-valued coordinates")
    d, K = f.d, f.K
    dim = d ** (2 * K)
    if dim > MAX_DIM:
        raise CapacityError(f"dimension {dim} exceeds the cap {MAX_DIM}")
    pair = _pair_projectors(d).reshape(3, d**4) / np.array(bipartite_traces(d))[:, None]
    x = f.pi.reshape((3,) * K)
    for _ in range(K):
        x = np.tensordot(x, pair, axes=([0], [0]))
    grouped = x.reshape((d,) * (4 * K)).transpose(np.argsort(_pair_legs(K)))
    return ComplexOperator(grouped.reshape(dim, dim), (d,) * (2 * K))


def reduce_pair(f: FidelityVector, pair_index: int) -> FidelityVector:
    """Marginal coordinates after discarding one Alice-Bob pair.

    The discarded trinary digit is summed out, which matches the dense
    partial trace over subsystems (pair_index, K + pair_index) followed by
    re-extraction of coordinates.
    """
    if f.K < 2:
        raise DomainError("reduction requires K >= 2")
    if not 0 <= pair_index < f.K:
        raise IndexError(f"pair index {pair_index} out of range for K={f.K}")
    tensor = f.pi.reshape((3,) * f.K).sum(axis=pair_index)
    return FidelityVector(f.d, f.K - 1, tensor.reshape(-1))


def reduce_mixed(f: FidelityVector, pair_i: int, pair_j: int) -> FidelityVector:
    """Marginal after a mixed trace-out (Alice of one pair, Bob of another).

    For invariant states this is the composition of the two natural
    reductions, so both digits are summed out and the result has K - 2
    pairs (requiring K >= 3).
    """
    if pair_i == pair_j:
        raise ValueError("mixed reduction needs two distinct pairs")
    first, second = max(pair_i, pair_j), min(pair_i, pair_j)
    return reduce_pair(reduce_pair(f, first), second)


VERTEX_LABELS = ("Q0", "Q1", "P0", "P1")


def pair_vertex_coords(d: int, family: str, index: int) -> np.ndarray:
    """Simplex coordinates of one normalized bipartite hull generator.

    ``family`` is ``"werner"`` for the swap-symmetric pair (Q0, Q1) or
    ``"isotropic"`` for the entangled-fraction pair (P0, P1); ``index``
    picks the member.  The values agree with twirling the corresponding
    dense normalized operator:

        Q0 -> ((d-1)(d+2), 0, 2) / (d(d+1))      Q1 -> (0, 1, 0)
        P0 -> (d+2, d, 0) / (2(d+1))             P1 -> (0, 0, 1)
    """
    if d < 2:
        raise DomainError("local dimension must be >= 2")
    if index not in (0, 1):
        raise ValueError("index must be 0 or 1")
    fam = family.lower()
    if fam == "werner":
        if index == 0:
            den = d * (d + 1)
            return np.array([(d - 1) * (d + 2) / den, 0.0, 2.0 / den])
        return np.array([0.0, 1.0, 0.0])
    if fam == "isotropic":
        if index == 0:
            den = 2 * (d + 1)
            return np.array([(d + 2) / den, d / den, 0.0])
        return np.array([0.0, 0.0, 1.0])
    raise ValueError(f"unknown family {family!r}")


def _vertex_coords_by_label(d: int) -> dict[str, np.ndarray]:
    return {
        "Q0": pair_vertex_coords(d, "werner", 0),
        "Q1": pair_vertex_coords(d, "werner", 1),
        "P0": pair_vertex_coords(d, "isotropic", 0),
        "P1": pair_vertex_coords(d, "isotropic", 1),
    }


def hull_vertices(d: int, K: int) -> list[tuple[tuple[str, ...], FidelityVector]]:
    """All 4**K tensor combinations of the bipartite hull generators.

    Returned in lexicographic order over per-pair labels (Q0, Q1, P0, P1).
    """
    singles = _vertex_coords_by_label(d)
    out = []
    for labels in product(VERTEX_LABELS, repeat=K):
        pi = np.ones(1)
        for name in labels:
            pi = np.kron(pi, singles[name])
        out.append((labels, FidelityVector(d, K, pi)))
    return out


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
    evaluated exactly as rationals, together with the point each parameter
    selects on its line.  Both satisfy the separability side of the line
    conditions (q < 1/2, p < 1/d).

    Note: the two selected points coincide only in their third coordinate.
    The exact crossing of the two lines is the maximally mixed state,
    reached at line parameters (d-1)/(2d) and 1/d**2; both parametrized
    points are returned so the discrepancy stays observable.
    """
    if d < 2:
        raise DomainError("local dimension must be >= 2")
    s = Fraction(1, d * (d + 1))
    q = float(Fraction(1, 2) - s)
    p = float(2 * s * (Fraction(1, 2) + s))
    w0 = pair_vertex_coords(d, "werner", 0)
    w1 = pair_vertex_coords(d, "werner", 1)
    i0 = pair_vertex_coords(d, "isotropic", 0)
    i1 = pair_vertex_coords(d, "isotropic", 1)
    return IntersectionPoint(q, p, (1 - q) * w0 + q * w1, (1 - p) * i0 + p * i1)


def simplex_grid(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into ``parts`` nonnegative integers, lexicographic."""
    if n < 1 or parts < 1:
        raise ValueError("need n >= 1 and parts >= 1")
    for bars in combinations(range(n + parts - 1), parts - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(n + parts - 2 - prev)
        yield tuple(comp)


def grid_points(d: int, K: int, n: int) -> Iterator[FidelityVector]:
    """State-valued lattice points pi = c / n over the coordinate simplex."""
    for comp in simplex_grid(n, 3**K):
        yield FidelityVector(d, K, np.array(comp, dtype=float) / n)


def default_grid_resolution(K: int, limit: int = 100_000) -> int:
    """Largest n whose composition lattice into 3**K parts has <= ``limit`` points."""
    m = 3**K
    n = 1
    while comb(n + m, m - 1) <= limit:
        n += 1
    return n
