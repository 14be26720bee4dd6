"""Brute-force dense cross-checks for the closed-form machinery.

Every check recomputes one claimed identity from explicit matrices and
reports the largest residual found, so a passing report certifies a formula
at a specific parameter set and a failing one pinpoints it.  All stochastic
checks take an explicit seed and are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dense import (
    MAX_DIM,
    CapacityError,
    _check_local_dimension,
    _is_integer,
    _spawn_seeds,
    kron_rows,
    min_eigenvalue_rows,
    partial_trace_rows,
    partial_transpose_rows,
    random_orthogonal_rows,
    random_unit_rows,
)
from .projectors import (
    bipartite_traces,
    check_family_budget,
    hull_generators,
    pair_projectors,
    projector_family,
)
from .simplex import (
    _check_reduction,
    all_masks,
    bob_subsystems,
    c_matrix,
    coordinate_bounds,
    product_state_fidelities_rows,
    pt_map_masks,
    reconstruct_rows,
    reduce_rows,
    twirl_rows,
)

#: Seed used by every stochastic check unless the caller overrides it.
DEFAULT_SEED = 8191

#: Most bytes of one stacked array of a sampled check: the samples are taken in
#: chunks of as many (D, D) complex matrices as fit, or one when a single
#: matrix is larger (d=3, K=3: 8.5 MB).  A check holds a few such stacks at
#: once, so at D = 16 a chunk is 32 samples: 100 in one chunk would add about
#: 2 MB to the peak RSS of the default battery.
STACK_BYTES = 2**17


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """One check outcome; ``passed`` holds iff ``max_residual <= tolerance``."""

    check: str
    params: dict
    max_residual: float
    tolerance: float
    passed: bool

    @classmethod
    def build(cls, check: str, params: dict, residual: float, tolerance: float):
        residual = float(residual)
        return cls(check, dict(params), residual, float(tolerance), residual <= tolerance)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", a, b).real)


def _check_nonnegative(value, name: str) -> int:
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _chunks(count: int, dim: int) -> Iterator[range]:
    """Consecutive sample ranges whose (n, dim, dim) complex stacks fit STACK_BYTES.

    Each check draws its samples chunk by chunk, so its memory does not grow with
    the count; the draws are bitwise those of one draw of all the samples.
    """
    step = max(1, STACK_BYTES // (16 * dim * dim))
    return (range(start, min(start + step, count)) for start in range(0, count, step))


def verify_c_matrix(d: int, tolerance: float = 1e-12) -> VerificationReport:
    """Recompute the 3x3 transposition matrix from dense partial transposes.

    Each normalized projector is transposed on its second factor and
    re-expanded in the projector basis by trace inner products; the
    expansion coefficients must reproduce the closed-form matrix row by row.
    """
    _check_local_dimension(d)
    if d**4 > MAX_DIM:
        raise CapacityError(f"d^4 = {d ** 4} exceeds the cap {MAX_DIM}")
    pis = pair_projectors(d)
    tildes = np.array([p / np.trace(p).real for p in pis])
    transposed = partial_transpose_rows(tildes, (d, d), (1,))
    dense = np.array([[_trace_product(t, p) for p in pis] for t in transposed])
    residual = float(np.abs(dense - c_matrix(d)).max())
    return VerificationReport.build("c_matrix", {"d": d}, residual, tolerance)


def verify_resolution(d: int, K: int, tolerance: float = 1e-12) -> VerificationReport:
    """Completeness and pairwise orthogonality of the projector family."""
    family = projector_family(d, K)
    residual = float(np.abs(sum(family) - np.eye(d ** (2 * K))).max())
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            residual = max(residual, float(np.abs(a @ b).max()))
    return VerificationReport.build("resolution", {"d": d, "K": K}, residual, tolerance)


def verify_invariance(
    d: int, K: int, trials: int, seed=DEFAULT_SEED, tolerance: float = 1e-10
) -> VerificationReport:
    """Largest commutator of any family member with sampled doubled rotations."""
    trials, seed = _check_nonnegative(trials, "trials"), _check_nonnegative(seed, "seed")
    params = {"d": d, "K": K, "trials": trials, "seed": seed}
    family = projector_family(d, K)
    residual = 0.0
    for chunk in _chunks(trials, d ** (2 * K)):
        children = _spawn_seeds(seed, len(chunk) * K, start=chunk.start * K)
        ops = random_orthogonal_rows(d, children).reshape(-1, K, d, d).swapaxes(0, 1)
        # the doubled rotation O1 (x) ... (x) OK (x) O1 (x) ... (x) OK
        big = kron_rows(*ops, *ops)
        for m in family:
            commutator = big @ m
            commutator -= m @ big
            residual = max(residual, float(np.abs(commutator).max()))
    return VerificationReport.build("invariance", params, residual, tolerance)


def verify_pt_consistency(
    d: int, K: int, samples: int, seed=DEFAULT_SEED, tolerance: float = 1e-11
) -> VerificationReport:
    """Dense partial transposes against the coordinate transposition map.

    For random state-valued coordinates and every nonzero mask, the dense
    transpose of the reconstructed state must equal the coordinate-mapped
    mixture entrywise, and its smallest eigenvalue must equal the smallest
    normalized output coordinate.
    """
    samples, seed = _check_nonnegative(samples, "samples"), _check_nonnegative(seed, "seed")
    params = {"d": d, "K": K, "samples": samples, "seed": seed}
    check_family_budget(d, K, copies=2)  # the family and its normalized copy
    rng = np.random.default_rng(seed)
    traces = kron_rows(*[np.array([[bipartite_traces(d)]], dtype=float)] * K)[0, 0]
    tildes = projector_family(d, K) / traces[:, None, None]
    c = c_matrix(d)
    residual = 0.0
    for chunk in _chunks(samples, d ** (2 * K)):
        pis = rng.dirichlet(np.ones(3**K), size=len(chunk))
        rho = reconstruct_rows(pis, d, K)
        for mask, g in zip(all_masks(K), pt_map_masks(pis, c, K).swapaxes(0, 1)[1:]):
            transposed = partial_transpose_rows(rho, (d,) * (2 * K), bob_subsystems(mask, K))
            # summed member by member, in the order of the scalar form
            mixture = g[:, 0, None, None] * tildes[0]
            for w, t in zip(g.T[1:], tildes[1:]):
                mixture += w[:, None, None] * t
            mixture -= transposed
            residual = max(residual, float(np.abs(mixture).max()))
            del mixture  # before the eigenvalue temporaries
            eig = min_eigenvalue_rows(transposed)
            residual = max(residual, float(np.abs(eig - (g / traces).min(axis=1)).max()))
    return VerificationReport.build("pt_consistency", params, residual, tolerance)


def verify_product_fidelities(
    d: int, K: int, trials: int, seed=DEFAULT_SEED, tolerance: float = 1e-12
) -> VerificationReport:
    """Product-state coordinates and twirl against dense traces, real and complex draws.

    Also checks that every sampled product state clears the per-coordinate
    separability ceilings; any excess above a ceiling counts as residual.
    """
    trials, seed = _check_nonnegative(trials, "trials"), _check_nonnegative(seed, "seed")
    params = {"d": d, "K": K, "trials": trials, "seed": seed}
    family = projector_family(d, K)
    bounds = coordinate_bounds(d, K)
    width = 2 * K  # per trial psi_1 .. psi_K then phi_1 .. phi_K, in draw order
    residual = 0.0
    # the real draws take children 0 .. trials * width - 1, the complex ones the next
    for field, first in (("real", 0), ("complex", trials * width)):
        for chunk in _chunks(trials, d ** (2 * K)):
            seeds = _spawn_seeds(seed, len(chunk) * width, start=first + chunk.start * width)
            vs = random_unit_rows(d, field, seeds).astype(np.complex128).reshape(-1, width, d)
            projectors = vs[..., :, None] * vs.conj()[..., None, :]
            sigma = kron_rows(*projectors.swapaxes(0, 1))
            # one member at a time: a single einsum over the family sums in another order
            dense = np.array([np.einsum("tij,ji->t", sigma, m) for m in family]).real.T
            f = product_state_fidelities_rows(vs[:, :K], vs[:, K:])
            twirled = twirl_rows(sigma, d, K)
            residual = max(
                residual,
                float(np.abs(dense - f).max()),
                float(np.abs(dense - twirled).max()),
                float((f - bounds).max()),
            )
    return VerificationReport.build("product_fidelities", params, residual, tolerance)


def verify_coplanarity(d: int, tolerance: float = 1e-12) -> VerificationReport:
    """Gram determinant of the four normalized hull generators.

    The overlap matrix of (Q0~, Q1~, P0~, P1~) must be singular, and the
    unnormalized generators must satisfy Q0 + Q1 - P0 - P1 = 0 exactly
    (both sums equal the identity).
    """
    generators = hull_generators(d)
    tildes = [g / float(np.trace(g).real) for g in generators]
    gram = np.array([[_trace_product(x, y) for y in tildes] for x in tildes])
    residual = abs(float(np.linalg.det(gram)))
    q0, q1, p0, p1 = generators
    residual = max(residual, float(np.abs(q0 + q1 - p0 - p1).max()))
    return VerificationReport.build("coplanarity", {"d": d}, residual, tolerance)


def verify_reduction(
    d: int, K: int, samples: int, seed=DEFAULT_SEED, tolerance: float = 1e-12
) -> VerificationReport:
    """Coordinate reduction against dense partial trace plus re-twirling."""
    samples, seed = _check_nonnegative(samples, "samples"), _check_nonnegative(seed, "seed")
    params = {"d": d, "K": K, "samples": samples, "seed": seed}
    _check_local_dimension(d)
    _check_reduction(K)
    rng = np.random.default_rng(seed)
    residual = 0.0
    for chunk in _chunks(samples, d ** (2 * K)):
        pis = rng.dirichlet(np.ones(3**K), size=len(chunk))
        rho = reconstruct_rows(pis, d, K)
        # the reduced states of every pair in one stack, pair by pair
        reduced = [partial_trace_rows(rho, (d,) * (2 * K), (pair, K + pair)) for pair in range(K)]
        dense = twirl_rows(np.concatenate(reduced), d, K - 1)
        coords = np.concatenate([reduce_rows(pis, K, pair) for pair in range(K)])
        residual = max(residual, float(np.abs(coords - dense).max()))
    return VerificationReport.build("reduction", params, residual, tolerance)


def run_suite(
    seed=DEFAULT_SEED,
    combos: tuple[tuple[int, int], ...] = ((2, 1), (2, 2), (3, 1)),
    trials: int = 100,
    samples: int = 100,
) -> list[VerificationReport]:
    """Standard battery over the given (d, K) pairs, one report per check."""
    seed = _check_nonnegative(seed, "seed")
    trials, samples = _check_nonnegative(trials, "trials"), _check_nonnegative(samples, "samples")
    for d, K in combos:
        check_family_budget(d, K, copies=2)  # the most that any check holds
    reports = []
    for d in sorted({d for d, _ in combos}):
        reports.append(verify_c_matrix(d))
        reports.append(verify_coplanarity(d))
    for d, K in combos:
        reports.append(verify_resolution(d, K))
        reports.append(verify_invariance(d, K, trials, seed=seed))
        reports.append(verify_pt_consistency(d, K, samples, seed=seed))
        reports.append(verify_product_fidelities(d, K, trials, seed=seed))
        if K >= 2:
            reports.append(verify_reduction(d, K, samples, seed=seed))
    return reports


def first_failure(reports) -> VerificationReport | None:
    """The first failing report, or None when everything passed."""
    return next((report for report in reports if not report.passed), None)
