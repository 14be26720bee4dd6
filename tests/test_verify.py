"""Tests for the dense verification suite itself."""

from collections import Counter

import numpy as np
import pytest

from orthosym import (
    CapacityError,
    DomainError,
    FidelityVector,
    VerificationReport,
    all_masks,
    bob_subsystems,
    coordinate_bounds,
    first_failure,
    kron,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    pt_map,
    product_state_fidelities,
    random_orthogonal,
    random_unit_vector,
    reconstruct,
    reconstruct_rows,
    reduce_pair,
    run_suite,
    twirl_coords,
    verify_c_matrix,
    verify_coplanarity,
    verify_invariance,
    verify_product_fidelities,
    verify_pt_consistency,
    verify_reduction,
    verify_resolution,
)
from orthosym import projectors as projectors_module
from orthosym import simplex as simplex_module
from orthosym import verify as verify_module
from orthosym.projectors import (
    all_multi_indices,
    multipartite_trace,
    projector_family,
)

from oracles import doubled_tensor, pure_state_projector


# The sampled checks as one loop per sample, on ComplexOperator and the dense
# helpers: the reference the stacked checks in orthosym.verify must reproduce.
def reference_invariance(d, K, trials, seed):
    family = projector_family(d, K)
    children = np.random.SeedSequence(seed).spawn(trials * K)
    residual = 0.0
    for t in range(trials):
        ops = [random_orthogonal(d, children[t * K + i]) for i in range(K)]
        big = doubled_tensor(ops).matrix
        for p in family:
            residual = max(residual, float(np.abs(big @ p - p @ big).max()))
    return residual


def reference_pt_consistency(d, K, samples, seed):
    rng = np.random.default_rng(seed)
    indices = all_multi_indices(K)
    family = projector_family(d, K)
    traces = np.array([multipartite_trace(d, a) for a in indices], dtype=float)
    tildes = [p / t for p, t in zip(family, traces)]
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
    return residual


def reference_product_fidelities(d, K, trials, seed):
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
                [float(np.einsum("ij,ji->", sigma.matrix, p).real) for p in family]
            )
            residual = max(residual, float(np.abs(dense - f.pi).max()))
            twirled = twirl_coords(sigma, d, K).pi
            residual = max(residual, float(np.abs(dense - twirled).max()))
            residual = max(residual, max(0.0, float((f.pi - bounds).max())))
    return residual


def reference_reduction(d, K, samples, seed):
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(samples):
        f = FidelityVector(d, K, rng.dirichlet(np.ones(3**K)))
        rho = reconstruct(f)
        for pair in range(K):
            reduced = reduce_pair(f, pair)
            dense = twirl_coords(partial_trace(rho, (pair, K + pair)), d, K - 1)
            residual = max(residual, float(np.abs(reduced.pi - dense.pi).max()))
    return residual


SAMPLED_CHECKS = [
    (verify_invariance, reference_invariance),
    (verify_pt_consistency, reference_pt_consistency),
    (verify_product_fidelities, reference_product_fidelities),
    (verify_reduction, reference_reduction),
]
REFERENCE_CASES = [
    (check, reference, d, K, seed)
    for d, K, seed in [(2, 1, 5), (3, 1, 6), (2, 2, 0), (3, 2, 1), (2, 3, 2), (4, 2, 3)]
    for check, reference in SAMPLED_CHECKS
    if K >= 2 or check is not verify_reduction
]


class TestIndividualChecks:
    def test_pt_consistency_budgets_two_family_copies(self, monkeypatch):
        # the family and its trace-normalized copy: 2 x 3 x 4 x 4 x 16 bytes
        monkeypatch.setattr(projectors_module, "FAMILY_BYTES", 2 * 3 * 16 * 16 - 1)
        verify_resolution(2, 1)
        with pytest.raises(CapacityError, match="2 x"):
            verify_pt_consistency(2, 1, 1)
        monkeypatch.setattr(projectors_module, "FAMILY_BYTES", 2 * 3 * 16 * 16)
        assert verify_pt_consistency(2, 1, 1).passed

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_c_matrix(self, d):
        report = verify_c_matrix(d)
        assert report.passed
        assert report.max_residual <= 1e-13

    def test_c_matrix_capacity(self):
        with pytest.raises(CapacityError):
            verify_c_matrix(9)

    @pytest.mark.parametrize("d,K", [(2, 1), (2, 2), (3, 1)])
    def test_resolution(self, d, K):
        assert verify_resolution(d, K).passed

    def test_invariance_small(self):
        report = verify_invariance(2, 2, trials=10)
        assert report.passed
        assert report.params["trials"] == 10

    def test_invariance_no_samples_is_vacuous(self):
        report = verify_invariance(2, 1, trials=0)
        assert report.passed
        assert report.max_residual == 0.0
        assert report.params["note"] == "no samples"

    def test_pt_consistency_small(self):
        report = verify_pt_consistency(2, 1, samples=20)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_pt_consistency_vertex_exact(self):
        # deterministic check on the all-zeros vertex is part of the random
        # battery; here just pin a stricter bound at small size
        report = verify_pt_consistency(2, 1, samples=5)
        assert report.max_residual <= 1e-13

    def test_product_fidelities_small(self):
        report = verify_product_fidelities(3, 1, trials=10)
        assert report.passed
        assert report.max_residual <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    def test_coplanarity(self, d):
        report = verify_coplanarity(d)
        assert report.passed
        assert report.max_residual <= 1e-14

    def test_reduction_small(self):
        assert verify_reduction(2, 2, samples=5).passed

    def test_reduction_rejects_single_pair(self):
        with pytest.raises(DomainError):
            verify_reduction(2, 1, samples=1)


class TestStackedChecks:
    @pytest.mark.parametrize("check, reference, d, K, seed", REFERENCE_CASES)
    def test_residual_equals_scalar_reference(self, check, reference, d, K, seed):
        # the stacked checks keep the draws and the arithmetic of the loops; the
        # trace products of product_fidelities come from einsum, whose summation
        # order over a stack is not promised to match the one-matrix form
        got, want = check(d, K, 6, seed=seed).max_residual, reference(d, K, 6, seed)
        if check is verify_product_fidelities:
            assert abs(got - want) <= 1e-15
        else:
            assert got == want

    @pytest.mark.parametrize("d, K", [(2, 2), (3, 1), (2, 3)])
    def test_one_sample_chunks_equal_one_batch(self, monkeypatch, d, K):
        def reports(stack_bytes):
            monkeypatch.setattr(verify_module, "STACK_BYTES", stack_bytes)
            suite = run_suite(seed=11, combos=((d, K),), trials=7, samples=7)
            return [r.to_json() for r in suite]

        one_sample = 16 * d ** (4 * K)
        assert reports(one_sample) == reports(7 * one_sample)

    @pytest.mark.parametrize(
        "check", [verify_pt_consistency, verify_product_fidelities, verify_reduction]
    )
    def test_empty_stack_passes_with_zero_residual(self, check):
        report = check(2, 2, 0)
        assert report.passed
        assert report.max_residual == 0.0
        assert "note" not in report.params


class TestBatchedFastPaths:
    SCALAR = ("twirl_coords", "reconstruct", "product_state_fidelities")
    ROWS = ("twirl_rows", "reconstruct_rows", "product_state_fidelities_rows", "reduce_rows")

    @pytest.mark.parametrize("per_chunk", [7, 3])
    def test_rows_forms_run_once_per_chunk(self, monkeypatch, per_chunk):
        # d = 2, K = 2: 7 samples in chunks of ``per_chunk``
        monkeypatch.setattr(verify_module, "STACK_BYTES", per_chunk * 16 * 16**2)
        chunks = -(-7 // per_chunk)
        current = [None]
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[current[0], name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.SCALAR + self.ROWS:
            fn = getattr(simplex_module, name)
            monkeypatch.setattr(simplex_module, name, counting(name, fn))
            if hasattr(verify_module, name):
                monkeypatch.setattr(verify_module, name, counting(name, fn))
        for check in ("verify_pt_consistency", "verify_product_fidelities", "verify_reduction"):

            def tracked(*args, _check=check, _fn=getattr(verify_module, check), **kwargs):
                current[0] = _check
                try:
                    return _fn(*args, **kwargs)
                finally:
                    current[0] = None

            monkeypatch.setattr(verify_module, check, tracked)
        assert first_failure(run_suite(combos=((2, 2),), trials=7, samples=7)) is None
        assert calls == Counter(
            {
                ("verify_pt_consistency", "reconstruct_rows"): chunks,
                # one stack per chunk for each of the real and the complex draws
                ("verify_product_fidelities", "product_state_fidelities_rows"): 2 * chunks,
                ("verify_product_fidelities", "twirl_rows"): 2 * chunks,
                ("verify_reduction", "reconstruct_rows"): chunks,
                ("verify_reduction", "twirl_rows"): chunks,
                # one reduction of the chunk per pair
                ("verify_reduction", "reduce_rows"): 2 * chunks,
            }
        )


def _shift_coords(fast):
    """``fast`` with the first output coordinate of every row moved by 1e-6."""

    def shifted(*args, **kwargs):
        out = fast(*args, **kwargs).copy()
        out[:, 0] += 1e-6
        return out

    return shifted


def _shift_walk(fast):
    """``fast`` with the first output coordinate of every nonzero mask moved by
    1e-6; slice 0 of the walk is the input itself."""

    def shifted(*args, **kwargs):
        out = fast(*args, **kwargs).copy()
        out[:, 1:, 0] += 1e-6
        return out

    return shifted


def _shift_states(fast):
    """``fast`` with 1e-6 moved between the first two diagonal entries of every
    state of its (T, D, D) stack."""

    def shifted(*args, **kwargs):
        m = fast(*args, **kwargs).copy()
        m[:, 0, 0] += 1e-6
        m[:, 1, 1] -= 1e-6
        return m

    return shifted


class TestOracleStrength:
    @pytest.mark.parametrize(
        "check, name, shift",
        [
            (verify_product_fidelities, "product_state_fidelities_rows", _shift_coords),
            (verify_product_fidelities, "twirl_rows", _shift_coords),
            (verify_pt_consistency, "pt_map_masks", _shift_walk),
            (verify_pt_consistency, "reconstruct_rows", _shift_states),
            (verify_reduction, "reduce_rows", _shift_coords),
            (verify_reduction, "twirl_rows", _shift_coords),
            (verify_reduction, "reconstruct_rows", _shift_states),
        ],
    )
    @pytest.mark.parametrize("d", [2, 3])
    def test_shifted_fast_path_fails(self, monkeypatch, check, name, shift, d):
        assert check(d, 2, 3).passed
        monkeypatch.setattr(verify_module, name, shift(getattr(verify_module, name)))
        report = check(d, 2, 3)
        assert not report.passed
        assert report.max_residual > 100 * report.tolerance

    def test_non_invariant_family_member_fails(self, monkeypatch):
        def skewed_family(d, K):
            family = projector_family(d, K).copy()
            family[0, 0, 1] += 1e-6
            return family

        monkeypatch.setattr(verify_module, "projector_family", skewed_family)
        assert not verify_invariance(2, 2, 3).passed

    def test_non_hermitian_transposed_stack_raises(self, monkeypatch):
        def skewed(pi, d, K):
            m = reconstruct_rows(pi, d, K).copy()
            m[:, 0, 1] += 1e-3
            return m

        monkeypatch.setattr(verify_module, "reconstruct_rows", skewed)
        with pytest.raises(DomainError, match="Hermitian"):
            verify_pt_consistency(2, 2, 3)


class TestReportContract:
    def test_pass_iff_within_tolerance(self):
        good = VerificationReport.build("x", {}, 1e-13, 1e-12)
        bad = VerificationReport.build("x", {}, 1e-11, 1e-12)
        assert good.passed and not bad.passed

    def test_json_fields(self):
        doc = verify_c_matrix(2).to_json()
        assert set(doc) == {"check", "params", "max_residual", "tolerance", "pass"}
        assert doc["pass"] is True

    def test_deterministic_given_seed(self):
        a = verify_pt_consistency(2, 1, samples=5, seed=123)
        b = verify_pt_consistency(2, 1, samples=5, seed=123)
        c = verify_pt_consistency(2, 1, samples=5, seed=124)
        assert a.max_residual == b.max_residual
        assert a.max_residual != c.max_residual

    def test_first_failure(self):
        good = VerificationReport.build("a", {}, 0.0, 1e-12)
        bad = VerificationReport.build("b", {}, 1.0, 1e-12)
        assert first_failure([good]) is None
        assert first_failure([good, bad, good]).check == "b"


class TestSuite:
    def test_reduced_suite_all_pass(self):
        reports = run_suite(combos=((2, 1), (2, 2)), trials=5, samples=5)
        checks = [r.check for r in reports]
        assert checks.count("c_matrix") == 1
        assert checks.count("coplanarity") == 1
        assert checks.count("resolution") == 2
        assert checks.count("reduction") == 1
        assert first_failure(reports) is None

    def test_suite_deterministic(self):
        a = run_suite(combos=((2, 1),), trials=3, samples=3, seed=7)
        b = run_suite(combos=((2, 1),), trials=3, samples=3, seed=7)
        assert [r.max_residual for r in a] == [r.max_residual for r in b]
