"""Tests for the dense verification suite itself."""

import pytest

from orthosym import (
    CapacityError,
    DomainError,
    VerificationReport,
    first_failure,
    run_suite,
    verify_c_matrix,
    verify_coplanarity,
    verify_invariance,
    verify_product_fidelities,
    verify_pt_consistency,
    verify_reduction,
    verify_resolution,
)
from orthosym import projectors as projectors_module


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
