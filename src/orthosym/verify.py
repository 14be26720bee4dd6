"""Brute-force dense cross-checks for the closed-form machinery.

Every check recomputes one claimed identity from explicit matrices and
reports the largest residual found, so a passing report certifies a formula
at a specific parameter set and a failing one pinpoints it.  All stochastic
checks take an explicit seed and are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import (
    MAX_DIM,
    CapacityError,
    ComplexOperator,
    DomainError,
    kron,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    pure_state_projector,
    random_orthogonal,
    random_unit_vector,
)
from .projectors import (
    all_multi_indices,
    build_bipartite,
    check_family_budget,
    doubled_tensor,
    multipartite_trace,
    projector_family,
)
from .simplex import (
    FidelityVector,
    all_masks,
    bob_subsystems,
    c_matrix,
    coordinate_bounds,
    pt_map,
    product_state_fidelities,
    reconstruct,
    reduce_pair,
    twirl_coords,
)

#: Seed used by every stochastic check unless the caller overrides it.
DEFAULT_SEED = 8191


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

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", a, b).real)


def _seed_param(seed) -> "int | str":
    return seed if isinstance(seed, int) else str(seed)


def verify_c_matrix(d: int, tolerance: float = 1e-12) -> VerificationReport:
    """Recompute the 3x3 transposition matrix from dense partial transposes.

    Each normalized projector is transposed on its second factor and
    re-expanded in the projector basis by trace inner products; the
    expansion coefficients must reproduce the closed-form matrix row by row.
    """
    if d < 2:
        raise DomainError("local dimension must be >= 2")
    if d**4 > MAX_DIM:
        raise CapacityError(f"d^4 = {d ** 4} exceeds the cap {MAX_DIM}")
    basis = build_bipartite(d)
    pis = (basis.Pi0, basis.Pi1, basis.Pi2)
    traces = [float(p.trace().real) for p in pis]
    dense = np.empty((3, 3))
    for beta in range(3):
        tilde = ComplexOperator(pis[beta].matrix / traces[beta], (d, d))
        transposed = partial_transpose(tilde, (1,))
        for alpha in range(3):
            dense[beta, alpha] = _trace_product(transposed.matrix, pis[alpha].matrix)
    residual = float(np.abs(dense - c_matrix(d).entries).max())
    return VerificationReport.build("c_matrix", {"d": d}, residual, tolerance)


def verify_resolution(d: int, K: int, tolerance: float = 1e-12) -> VerificationReport:
    """Completeness and pairwise orthogonality of the projector family."""
    family = projector_family(d, K)
    residual = float(np.abs(sum(p.matrix for p in family) - np.eye(d ** (2 * K))).max())
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            residual = max(residual, float(np.abs(a.matrix @ b.matrix).max()))
    return VerificationReport.build("resolution", {"d": d, "K": K}, residual, tolerance)


def verify_invariance(
    d: int, K: int, trials: int, seed=DEFAULT_SEED, tolerance: float = 1e-10
) -> VerificationReport:
    """Largest commutator of any family member with sampled doubled rotations."""
    params = {"d": d, "K": K, "trials": trials, "seed": _seed_param(seed)}
    if trials < 1:
        params["note"] = "no samples"
        return VerificationReport.build("invariance", params, 0.0, tolerance)
    family = projector_family(d, K)
    children = np.random.SeedSequence(seed).spawn(trials * K)
    residual = 0.0
    for t in range(trials):
        ops = [random_orthogonal(d, children[t * K + i]) for i in range(K)]
        big = doubled_tensor(ops).matrix
        for p in family:
            residual = max(residual, float(np.abs(big @ p.matrix - p.matrix @ big).max()))
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
    check_family_budget(d, K, copies=2)  # the family and its normalized copy
    rng = np.random.default_rng(seed)
    indices = all_multi_indices(K)
    family = projector_family(d, K)
    traces = np.array([multipartite_trace(d, a) for a in indices], dtype=float)
    tildes = [p.matrix / t for p, t in zip(family, traces)]
    residual = 0.0
    for _ in range(samples):
        f = FidelityVector(d, K, rng.dirichlet(np.ones(3**K)))
        rho = reconstruct(f)
        for mask in all_masks(K):
            transposed = partial_transpose(rho, bob_subsystems(mask, K))
            g = pt_map(f, mask)
            mixture = sum(w * t for w, t in zip(g.pi, tildes))
            residual = max(residual, float(np.abs(transposed.matrix - mixture).max()))
            eig = min_eigenvalue(transposed)
            residual = max(residual, abs(eig - float((g.pi / traces).min())))
    params = {"d": d, "K": K, "samples": samples, "seed": _seed_param(seed)}
    return VerificationReport.build("pt_consistency", params, residual, tolerance)


def verify_product_fidelities(
    d: int, K: int, trials: int, seed=DEFAULT_SEED, tolerance: float = 1e-12
) -> VerificationReport:
    """Product-state coordinates and twirl against dense traces, real and complex draws.

    Also checks that every sampled product state clears the per-coordinate
    separability ceilings; any excess above a ceiling counts as residual.
    """
    family = projector_family(d, K)
    bounds = coordinate_bounds(d, K)
    children = iter(np.random.SeedSequence(seed).spawn(4 * trials * K))
    residual = 0.0
    for field in ("real", "complex"):
        for _ in range(trials):
            psis = [random_unit_vector(d, field, next(children)) for _ in range(K)]
            phis = [random_unit_vector(d, field, next(children)) for _ in range(K)]
            f = product_state_fidelities(psis, phis)
            sigma = pure_state_projector(psis[0])
            for v in psis[1:] + phis:
                sigma = kron(sigma, pure_state_projector(v))
            dense = np.array(
                [_trace_product(sigma.matrix, p.matrix) for p in family]
            )
            residual = max(residual, float(np.abs(dense - f.pi).max()))
            twirled = twirl_coords(sigma, d, K).pi
            residual = max(residual, float(np.abs(dense - twirled).max()))
            residual = max(residual, max(0.0, float((f.pi - bounds).max())))
    params = {"d": d, "K": K, "trials": trials, "seed": _seed_param(seed)}
    return VerificationReport.build("product_fidelities", params, residual, tolerance)


def verify_coplanarity(d: int, tolerance: float = 1e-12) -> VerificationReport:
    """Gram determinant of the four normalized hull generators.

    The overlap matrix of (Q0~, Q1~, P0~, P1~) must be singular, and the
    unnormalized generators must satisfy Q0 + Q1 - P0 - P1 = 0 exactly
    (both sums equal the identity).
    """
    basis = build_bipartite(d)
    ops = (basis.Q0, basis.Q1, basis.P0, basis.P1)
    tildes = [o.matrix / float(o.trace().real) for o in ops]
    gram = np.array([[_trace_product(x, y) for y in tildes] for x in tildes])
    residual = abs(float(np.linalg.det(gram)))
    dependence = basis.Q0.matrix + basis.Q1.matrix - basis.P0.matrix - basis.P1.matrix
    residual = max(residual, float(np.abs(dependence).max()))
    return VerificationReport.build("coplanarity", {"d": d}, residual, tolerance)


def verify_reduction(
    d: int, K: int, samples: int, seed=DEFAULT_SEED, tolerance: float = 1e-12
) -> VerificationReport:
    """Coordinate reduction against dense partial trace plus re-twirling."""
    if K < 2:
        raise DomainError("reduction checks require K >= 2")
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(samples):
        f = FidelityVector(d, K, rng.dirichlet(np.ones(3**K)))
        rho = reconstruct(f)
        for pair in range(K):
            reduced = reduce_pair(f, pair)
            dense = twirl_coords(partial_trace(rho, (pair, K + pair)), d, K - 1)
            residual = max(residual, float(np.abs(reduced.pi - dense.pi).max()))
    params = {"d": d, "K": K, "samples": samples, "seed": _seed_param(seed)}
    return VerificationReport.build("reduction", params, residual, tolerance)


def run_suite(
    seed=DEFAULT_SEED,
    combos: tuple[tuple[int, int], ...] = ((2, 1), (2, 2), (3, 1)),
    trials: int = 100,
    samples: int = 100,
) -> list[VerificationReport]:
    """Standard battery over the given (d, K) pairs, one report per check."""
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
    for report in reports:
        if not report.passed:
            return report
    return None
