"""Acceptance battery.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them live).
Criterion 6 is expected to fail and is left failing deliberately: its two
halves are mutually exclusive, because the pinned closed-form crossing
parameters select points on the two state lines that agree only in their
third coordinate (the true crossing is the maximally mixed state, at line
parameters (d-1)/(2d) and 1/d**2).  The test asserts both halves anyway and
reports the measured discrepancy instead of hiding it.
"""

from fractions import Fraction
from itertools import islice

import numpy as np

from orthosym import (
    ComplexOperator,
    FidelityVector,
    intersection_point,
    ppt_check,
    ppt_inequalities,
    reconstruct,
    simplex_grid,
    twirl_coords,
    verify_c_matrix,
    verify_coplanarity,
    verify_invariance,
    verify_product_fidelities,
    verify_pt_consistency,
    verify_reduction,
    verify_resolution,
)
from orthosym.simplex import c_matrix


def check(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"{name}{suffix}"


def test_criterion_01_c_matrix_reproduction():
    worst = 0.0
    for d in (2, 3, 4):
        report = verify_c_matrix(d, tolerance=1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed, f"d={d} residual {report.max_residual:.3e}"
    check("criterion 01: dense transposition reproduces the 3x3 map, d=2..4",
          worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_02_row_sums_and_involution():
    worst = 0.0
    for d in range(2, 11):
        c = c_matrix(d)
        worst = max(worst, float(np.abs(c.sum(axis=1) - 1.0).max()))
        worst = max(worst, float(np.abs(c @ c - np.eye(3)).max()))
    check("criterion 02: row sums = 1 and C.C = I for d=2..10",
          worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_03_resolution_of_identity():
    worst = 0.0
    for d, K in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        report = verify_resolution(d, K, tolerance=1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed, f"(d,K)=({d},{K})"
    check("criterion 03: completeness/orthogonality at five (d,K) points",
          worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_04_orthogonal_invariance():
    worst = 0.0
    for d, K in ((2, 1), (2, 2), (3, 1)):
        report = verify_invariance(d, K, trials=100, tolerance=1e-10)
        worst = max(worst, report.max_residual)
        assert report.passed, f"(d,K)=({d},{K})"
    check("criterion 04: 100-sample rotation invariance at three (d,K) points",
          worst <= 1e-10, f"max residual {worst:.3e}")


def test_criterion_05_bipartite_ppt_equals_bounds():
    disagreements = 0
    points = 0
    for d in (2, 3, 5):
        for comp in islice(simplex_grid(19, 3), 200):
            f = FidelityVector(d, 1, np.array(comp, dtype=float) / 19.0)
            ppt = ppt_check(f, (1,), tol=1e-12).is_ppt
            bounds = f.pi[1] <= 0.5 + 1e-12 and f.pi[2] <= 1.0 / d + 1e-12
            disagreements += ppt != bounds
            points += 1
    check("criterion 05: PPT verdict equals the two bounds on 200-point grids, d=2,3,5",
          disagreements == 0, f"{disagreements} disagreements over {points} points")


def test_criterion_06_intersection_point():
    expected = {
        2: (Fraction(1, 3), Fraction(2, 9)),
        3: (Fraction(5, 12), Fraction(7, 72)),
    }
    rational_ok = True
    for d, (q, p) in expected.items():
        ip = intersection_point(d)
        rational_ok &= ip.q == float(q) and ip.p == float(p)
    check("criterion 06a: crossing parameters match the closed forms exactly",
          rational_ok)
    worst = 0.0
    for d in (2, 3):
        ip = intersection_point(d)
        worst = max(worst, float(np.abs(ip.coords - ip.coords_isotropic).max()))
    check("criterion 06b: both line parametrizations give identical coordinates",
          worst <= 1e-12,
          f"max coordinate gap {worst:.3e}; the closed-form parameters do not "
          f"solve the two-line system, whose true crossing is the maximally "
          f"mixed state at q=(d-1)/(2d), p=1/d^2")


def test_criterion_07_product_state_fidelities():
    worst = 0.0
    for d, K in ((2, 1), (3, 1), (2, 2)):
        report = verify_product_fidelities(d, K, trials=100, tolerance=1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed, f"(d,K)=({d},{K})"
    check("criterion 07: product-state coordinates match dense traces and clear bounds",
          worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_08_pt_map_consistency():
    worst = 0.0
    for d, K, samples in ((2, 1, 100), (2, 2, 50), (3, 1, 100)):
        report = verify_pt_consistency(d, K, samples=samples, tolerance=1e-11)
        worst = max(worst, report.max_residual)
        assert report.passed, f"(d,K)=({d},{K})"
    check("criterion 08: dense transposes equal coordinate maps for all masks",
          worst <= 1e-11, f"max residual {worst:.3e}")


def test_criterion_09_inequality_systems():
    rng = np.random.default_rng(424242)
    mismatches = 0
    for d in (2, 3):
        for _ in range(1000):
            f = FidelityVector(d, 2, rng.dirichlet(np.ones(9)))
            res = ppt_inequalities(f)
            ok01 = bool(res.mask01.min() >= -1e-12)
            ok10 = bool(res.mask10.min() >= -1e-12)
            mismatches += ok01 != ppt_check(f, (0, 1), 1e-12).is_ppt
            mismatches += ok10 != ppt_check(f, (1, 0), 1e-12).is_ppt
    check("criterion 09: inequality systems agree with mask checks on 2000 states",
          mismatches == 0, f"{mismatches} mismatches")


def test_criterion_10_coplanarity():
    worst = 0.0
    for d in (2, 3, 4):
        report = verify_coplanarity(d, tolerance=1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed, f"d={d}"
    check("criterion 10: four-generator overlap determinant vanishes, d=2..4",
          worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_11_twirl_reconstruct_round_trip():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(100):
        f = FidelityVector(2, 2, rng.dirichlet(np.ones(9)))
        back = twirl_coords(reconstruct(f), 2, 2)
        worst = max(worst, float(np.abs(back.pi - f.pi).max()))
    state_ok = True
    for _ in range(10):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        mat = g @ g.conj().T
        rho = ComplexOperator(mat / np.trace(mat).real, (2,) * 4)
        f = twirl_coords(rho, 2, 2)
        state_ok &= f.is_state(tol=1e-12)
        again = twirl_coords(reconstruct(f), 2, 2)
        worst = max(worst, float(np.abs(again.pi - f.pi).max()))
    check("criterion 11: twirl/reconstruct round trip and idempotence",
          worst <= 1e-12 and state_ok, f"max residual {worst:.3e}")


def test_criterion_12_reduction_consistency():
    worst = 0.0
    for d, K in ((2, 2), (3, 2)):
        report = verify_reduction(d, K, samples=50, tolerance=1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed, f"(d,K)=({d},{K})"
    check("criterion 12: coordinate reduction equals dense trace-out, both pairs",
          worst <= 1e-12, f"max residual {worst:.3e}")
