"""Tests for the fidelity-coordinate calculus."""

import hashlib
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthosym import (
    PSD_TOL,
    CapacityError,
    ComplexOperator,
    DomainError,
    FidelityVector,
    all_masks,
    all_multi_indices,
    bipartite_traces,
    bob_subsystems,
    c_matrix,
    check_scan_budget,
    check_vertex_budget,
    classify_lattice,
    coordinate_bounds,
    default_grid_resolution,
    hull_generators,
    hull_vertices,
    intersection_point,
    kron_rows,
    min_eigenvalue_rows,
    multipartite_trace,
    pair_projectors,
    partial_trace_rows,
    partial_transpose_rows,
    ppt_check,
    ppt_inequalities,
    product_state_fidelities_rows,
    projector_family,
    pt_map_masks,
    pt_map_rows,
    reconstruct,
    reconstruct_rows,
    reduce_pair,
    reduce_rows,
    sep_bound_check,
    simplex_grid,
    twirl_coords,
    twirl_rows,
)
from orthosym import dense as dense_module
from orthosym import simplex as simplex_module
from orthosym.simplex import VERTEX_LABELS

from oracles import pure_state_projector, random_unit_vector


def random_state_vector(d, K, seed):
    rng = np.random.default_rng(seed)
    return FidelityVector(d, K, rng.dirichlet(np.ones(3**K)))


def wishart_state(d, K, seed):
    n = d ** (2 * K)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return ComplexOperator(mat / np.trace(mat).real, (d,) * (2 * K))


def product_vectors(d, K, T, field, seed):
    """(T, K, d) stacks of psi and phi unit vectors over ``field``."""
    children = iter(np.random.SeedSequence(seed).spawn(2 * T * K))
    draws = [random_unit_vector(d, field, next(children)) for _ in range(2 * T * K)]
    vectors = np.array(draws, dtype=np.complex128).reshape(T, 2 * K, d)
    return vectors[:, :K], vectors[:, K:]


def product_states(psis, phis):
    """The dense psi_1 (x) .. (x) psi_K (x) phi_1 (x) .. (x) phi_K of every row."""
    states = []
    for row in np.concatenate([psis, phis], axis=1):
        sigma = pure_state_projector(row[0]).matrix
        for v in row[1:]:
            sigma = np.kron(sigma, pure_state_projector(v).matrix)
        states.append(sigma)
    return np.array(states)


def vertex_coords(d):
    """The coordinates of the four pair vertices of ``hull_vertices(d, 1)``, by label."""
    return dict(zip(VERTEX_LABELS, hull_vertices(d, 1)))


def grid_points(d, K, n):
    """The lattice points c / n of the compositions c of n into 3**K parts."""
    return [FidelityVector(d, K, np.array(c, dtype=float) / n) for c in simplex_grid(n, 3**K)]


def transposed_coords(f, mask):
    """The coordinates of ``f`` after the transposition ``mask``, through a stack of one."""
    return pt_map_rows(f.pi[None], c_matrix(f.d), mask)[0]


def single_point_pt_map(pi, c, mask):
    """The transposition map as one tensordot per masked digit of a single 3**K vector."""
    tensor = pi.reshape((3,) * len(mask))
    for axis, bit in enumerate(mask):
        if bit:
            tensor = np.moveaxis(np.tensordot(tensor, c, axes=([axis], [0])), -1, axis)
    return tensor.reshape(-1)


def fraction_c(d):
    """The coordinate transposition matrix at local dimension d, in Fractions."""
    rows = [
        [d - 2, d, 2],
        [d + 2, d, -2],
        [(d - 1) * (d + 2), -d * (d - 1), 2],
    ]
    return [[Fraction(x, 2 * d) for x in row] for row in rows]


def exact_c(d):
    return np.array(fraction_c(d), dtype=float)


def maximally_mixed(d, K):
    """Coordinates of the maximally mixed 2K-party state: pair traces / d**2, per pair."""
    return reduce(np.kron, [np.array(bipartite_traces(d)) / d**2] * K)


class TestTranspositionMatrix:
    def test_d2_values(self):
        expected = np.array([[0, 0.5, 0.5], [1, 0.5, -0.5], [1, -0.5, 0.5]])
        assert np.array_equal(c_matrix(2), expected)
        assert np.abs(c_matrix(2) - exact_c(2)).max() == 0.0

    def test_d3_values(self):
        expected = np.array([[1, 3, 2], [5, 3, -2], [10, -6, 2]]) / 6.0
        assert np.abs(c_matrix(3) - expected).max() <= 1e-16
        assert np.abs(c_matrix(3) - exact_c(3)).max() <= 1e-16

    @pytest.mark.parametrize("d", range(2, 11))
    def test_rows_sum_to_one(self, d):
        assert np.abs(c_matrix(d).sum(axis=1) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("d", range(2, 11))
    def test_squares_to_identity(self, d):
        c = c_matrix(d)
        assert np.abs(c @ c - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("d", range(2, 11))
    def test_not_stochastic(self, d):
        assert c_matrix(d).min() < 0.0

    def test_rejects_d1(self):
        with pytest.raises(DomainError):
            c_matrix(1)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_entries_read_only_closed_form(self, d):
        c = c_matrix(d)
        assert type(c) is np.ndarray
        assert (c.dtype, c.shape) == (np.float64, (3, 3))
        assert not c.flags.writeable
        assert np.array_equal(c, exact_c(d))


class TestPtMap:
    def test_zero_mask_is_identity(self):
        f = random_state_vector(3, 2, 4)
        out = transposed_coords(f, (0, 0))
        assert np.array_equal(out, f.pi)

    def test_entangled_vertex_d2(self):
        # the third row of the d=2 transposition matrix
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        out = transposed_coords(f, (1,))
        assert np.array_equal(out, np.array([1.0, -0.5, 0.5]))
        assert not FidelityVector(2, 1, out).is_state()

    def test_entangled_vertex_matches_dense_expansion(self):
        # expand the dense transposed state in the normalized projector
        # family by trace inner products
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        transposed = partial_transpose_rows(reconstruct(f).matrix[None], (2, 2), (1,))[0]
        dense = [np.einsum("ij,ji->", transposed, pi_k).real for pi_k in pair_projectors(2)]
        assert np.abs(np.array(dense) - transposed_coords(f, (1,))).max() <= 1e-14

    def test_matches_matrix_oracle_for_each_mask(self):
        f = random_state_vector(2, 2, 9)
        c = c_matrix(2)
        p = f.pi.reshape(3, 3)
        oracles = {
            (0, 1): p @ c,
            (1, 0): c.T @ p,
            (1, 1): c.T @ p @ c,
        }
        for mask, expected in oracles.items():
            got = transposed_coords(f, mask).reshape(3, 3)
            assert np.abs(got - expected).max() <= 1e-14

    def test_uniform_k2_sum_preserved(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        out = transposed_coords(f, (0, 1))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(0, 2**31),
        st.integers(0, 2**31),
    )
    def test_sum_preservation_and_involution(self, d, K, seed, mask_seed):
        f = random_state_vector(d, K, seed)
        mask = tuple(np.random.default_rng(mask_seed).integers(0, 2, K))
        out = transposed_coords(f, mask)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        back = transposed_coords(FidelityVector(d, K, out), mask)
        assert np.abs(back - f.pi).max() <= 1e-12

    def test_mask_length_mismatch(self):
        f = random_state_vector(2, 2, 0)
        with pytest.raises(IndexError):
            transposed_coords(f, (1,))
        with pytest.raises(IndexError):
            transposed_coords(f, (0.7,))  # the length is checked before the bits

    @pytest.mark.parametrize("mask", [(0.7,), (1.9,), (0.5,), (-1,), (2,), (1.0000001,)])
    def test_fractional_bits_rejected(self, mask):
        # int() would take 0.7 to the zero mask and 1.9 to mask 1
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="binary"):
            ppt_check(f, mask)
        with pytest.raises(ValueError, match="binary"):
            pt_map_rows(f.pi[None], c_matrix(2), mask)

    def test_integral_bits_of_any_type_accepted(self):
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        want = transposed_coords(f, (1,))
        for bit in (1.0, np.int64(1), np.float64(1.0), True):
            assert np.array_equal(transposed_coords(f, (bit,)), want)
            verdict = ppt_check(f, (bit,))
            assert verdict.mask == (1,) and type(verdict.mask[0]) is int
            assert not verdict.is_ppt


class TestPPTCheck:
    def test_entangled_vertex_not_ppt(self):
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        verdict = ppt_check(f, (1,))
        assert not verdict.is_ppt
        assert verdict.violations == ((1, -0.5),)  # the rank of alpha = (1,)
        assert type(verdict.violations[0][0]) is int

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed_is_ppt(self, d):
        traces = bipartite_traces(d)
        f = FidelityVector(d, 1, np.array(traces, dtype=float) / d**2)
        assert ppt_check(f, (1,)).is_ppt

    def test_product_vertex_ppt_all_masks_with_dense_oracle(self):
        f = FidelityVector(2, 2, np.eye(9)[0])
        rho = reconstruct(f)
        for mask in all_masks(2):
            assert ppt_check(f, mask).is_ppt
            dense = partial_transpose_rows(rho.matrix[None], rho.shape, bob_subsystems(mask, 2))
            assert min_eigenvalue_rows(dense)[0] >= -1e-12

    def test_rejects_non_state(self):
        f = FidelityVector(2, 1, [0.9, 0.4, -0.3])
        with pytest.raises(DomainError):
            ppt_check(f, (1,))

    def test_uniform_k2_d2_all_ppt(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        assert all(ppt_check(f, mask).is_ppt for mask in all_masks(2))

    @pytest.mark.parametrize(
        "check, message",
        [
            (lambda f: ppt_check(f, (1,)), "ppt_check requires state-valued coordinates"),
            (sep_bound_check, "sep_bound_check requires state-valued coordinates"),
        ],
    )
    def test_non_state_message(self, check, message):
        with pytest.raises(DomainError) as exc:
            check(FidelityVector(2, 1, [0.9, 0.4, -0.3]))
        assert str(exc.value) == message

    def test_non_binary_mask_message(self):
        # the sequence form of the one mask rule, worded as for the --mask text
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        for check in (ppt_check, lambda f, m: pt_map_rows(f.pi[None], c_matrix(2), m)):
            with pytest.raises(ValueError) as exc:
                check(f, (0, 2))
            assert str(exc.value) == "mask must be 2 binary digits, got (0, 2)"

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0], ids=repr)
    @pytest.mark.parametrize(
        "check",
        [
            lambda tol: ppt_check(FidelityVector(2, 1, [0.0, 0.0, 1.0]), (1,), tol),
            lambda tol: next(classify_lattice(2, 1, 4, tol)),
        ],
        ids=["ppt_check", "classify_lattice"],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, monkeypatch, check, tol):
        # nan and inf compare false with every coordinate: the entangled P1 read as PPT,
        # and a scan at d = 2, K = 1, n = 4 flagged 0 NPT rows instead of 6
        def walk(*args):
            raise AssertionError("walked before the tolerance was checked")

        monkeypatch.setattr(simplex_module, "pt_map_rows", walk)
        monkeypatch.setattr(simplex_module, "pt_map_masks", walk)
        with pytest.raises(ValueError) as exc:
            check(tol)
        assert (exc.type, str(exc.value)) == (
            ValueError,
            f"tolerance must be a finite number >= 0, got {tol!r}",
        )

    def test_zero_tolerance_accepted(self):
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        assert not ppt_check(f, (1,), 0.0).is_ppt
        npt = sum(int((~ppt.all(axis=1)).sum()) for _, ppt, _ in classify_lattice(2, 1, 4, 0))
        assert npt == 6


class TestCutsAndCeilings:
    """Multi-PPT covers every cut of the 2K parties and implies the ceilings."""

    @pytest.mark.parametrize("d, K", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_every_cut_is_a_bob_mask(self, d, K):
        # Pi_k is real symmetric, so T_A T_B Pi = Pi and T_A Pi = T_B Pi: the cut S
        # acts as the Bob mask m_i = [A_i in S] xor [B_i in S]
        rho = reconstruct(random_state_vector(d, K, 11))
        for size in range(2 * K + 1):
            for cut in combinations(range(2 * K), size):
                mask = [(i in cut) != (K + i in cut) for i in range(K)]
                m = rho.matrix[None]
                bob = partial_transpose_rows(m, rho.shape, bob_subsystems(mask, K))
                assert np.array_equal(partial_transpose_rows(m, rho.shape, cut), bob)

    @pytest.mark.parametrize("d, K", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)])
    def test_walk_row_is_the_trace_norm_of_every_mask(self, d, K):
        # the mask's partial transpose is sum_alpha pi'_alpha P_alpha / tr P_alpha on
        # orthogonal projectors, so its trace norm (the negativity's 1 + 2N) is
        # sum_alpha |pi'_alpha|
        rows = np.random.default_rng([d, K, 23]).dirichlet(np.ones(3**K), size=8)
        stack = reconstruct_rows(rows, d, K)
        walk = pt_map_masks(rows, c_matrix(d), K)
        for r, mask in enumerate(all_masks(K), start=1):
            dense = partial_transpose_rows(stack, (d,) * (2 * K), bob_subsystems(mask, K))
            trace_norm = np.abs(np.linalg.eigvalsh(dense)).sum(axis=1)
            assert np.abs(trace_norm - np.abs(walk[:, r]).sum(axis=1)).max() <= 1e-12

    @given(
        st.integers(2, 50),
        st.lists(st.fractions(-10, 10, max_denominator=1000), min_size=3, max_size=3),
    )
    def test_k1_ceilings_are_transposed_coordinates(self, d, pi):
        # sum/2 - pi_1 = (d/2) (pi C)_2 and sum/d - pi_2 = (2/d) (pi C)_1, exactly
        c = fraction_c(d)
        pc = [sum(pi[b] * c[b][a] for b in range(3)) for a in range(3)]
        total = sum(pi)
        assert total / 2 - pi[1] == Fraction(d, 2) * pc[2]
        assert total / d - pi[2] == Fraction(2, d) * pc[1]

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(d, K) for d in (2, 3, 4) for K in (1, 2, 3)] + [(7, 1), (7, 2)]),
        st.integers(0, 2**31),
    )
    def test_one_pair_ppt_implies_ceilings(self, dK, seed):
        # Dirichlet rows mixed toward the maximally mixed point, so that many are PPT
        d, K = dK
        rng = np.random.default_rng(seed)
        w = rng.uniform(size=(600, 1))
        rows = w * rng.dirichlet(np.ones(3**K), size=600) + (1 - w) * maximally_mixed(d, K)
        ppt = np.ones(len(rows), dtype=bool)
        for k in range(K):
            one_pair = tuple(int(i == k) for i in range(K))
            ppt &= (pt_map_rows(rows, c_matrix(d), one_pair) >= 0).all(axis=1)  # tol 0
        assert ppt.any()
        for row in rows[ppt]:
            assert sep_bound_check(FidelityVector(d, K, row)).passes


def combination(coeffs, vectors):
    """sum_i coeffs[i] * vectors[i], entry by entry."""
    return [sum(c * x for c, x in zip(coeffs, entries, strict=True)) for entries in zip(*vectors)]


class TestMultiPPTCone:
    """One pair's PPT inequalities span the cone of its no-signalling ones.

    R holds the walk's per-pair inequalities: e0, e1, e2 (a coordinate is >= 0)
    and the columns of C (a transposed coordinate is >= 0).  N.G holds p(1|a),
    p(0|a), p(1|b) and p(0|b) pulled back through G.  Equal cones per pair give
    equal cones of the K-fold products, so multi-PPT is the no-signalling
    polytope in the Bell frame.
    """

    @pytest.mark.parametrize("d", range(2, 13))
    def test_each_cone_holds_the_other_generators(self, d):
        half, inv_d = Fraction(1, 2), Fraction(1, d)
        units = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        r = units + [list(col) for col in zip(*fraction_c(d))]
        ng = [[Fraction(x) for x in v] for v in ([1, -1, 1], [0, 2, 0], [0, 0, d], [1, 1, 1 - d])]
        # 2 e0 = (1,-1,1) + (1,1,1-d) + (1 - 2/d)(0,0,d), e1 = (0,2,0)/2, e2 = (0,0,d)/d
        units_in_ng = [[half, 0, half - inv_d, half], [0, half, 0, 0], [0, 0, inv_d, 0]]
        col0 = r[3]
        assert min(col0) >= 0  # so column 0 is a sum of the units
        r_in_ng = units_in_ng + [
            combination(col0, units_in_ng),
            [0, 0, 0, half],  # column 1 = (1,1,1-d)/2
            [inv_d, 0, 0, 0],  # column 2 = (1,-1,1)/d
        ]
        # (1,-1,1) = d col2, (0,2,0) = 2 e1, (0,0,d) = d e2, (1,1,1-d) = 2 col1
        ng_in_r = [[0, 0, 0, 0, 0, d], [0, 2, 0, 0, 0, 0], [0, 0, d, 0, 0, 0], [0, 0, 0, 0, 2, 0]]
        for targets, table, sources in ((r, r_in_ng, ng), (ng, ng_in_r, r)):
            for target, coeffs in zip(targets, table, strict=True):
                assert min(coeffs) >= 0
                assert combination(coeffs, sources) == target

    @settings(deadline=None)
    @given(st.integers(2, 7), st.integers(1, 4), st.data())
    def test_all_mask_verdict_is_the_no_signalling_forms(self, d, K, data):
        # c is w copies of the integer maximally mixed point (the pair traces, d**(2K)
        # in all) plus a composition of n: lone compositions of a small n are PPT at
        # K >= 2 in almost no draw.  The walk with M = 2d C and the 4**K forms
        # (N G)^(x K) c are then integers below 4 d**(2K) 98**K < 2**53 (98 is the
        # largest row sum of |M| at d = 7), so both verdicts are exact
        n = data.draw(st.integers(1, d ** (2 * K)), label="n")
        bars = data.draw(st.lists(st.integers(0, n), min_size=3**K - 1, max_size=3**K - 1))
        w = data.draw(st.integers(0, 3), label="w")
        mixed = reduce(np.kron, [np.array(bipartite_traces(d), dtype=float)] * K)
        c = w * mixed + np.diff([0, *sorted(bars), n])
        m = np.array(
            [[d - 2, d, 2], [d + 2, d, -2], [(d - 1) * (d + 2), -d * (d - 1), 2]], dtype=float
        )
        assert np.array_equal(m / (2 * d), c_matrix(d))
        ng = np.array([[1, -1, 1], [0, 2, 0], [0, 0, d], [1, 1, 1 - d]], dtype=float)
        ppt = (pt_map_masks(c[None], m, K) >= 0).all()
        assert ppt == (kron_rows(*[ng[None]] * K)[0] @ c >= 0).all()


class TestMaskHelpers:
    def test_rank_roundtrip(self):
        # mask r is all_masks(K)[r - 1]
        assert all_masks(2) == [(0, 1), (1, 0), (1, 1)]
        assert all_masks(1) == [(1,)]

    def test_bob_subsystems(self):
        assert bob_subsystems((0, 1), 2) == (3,)
        assert bob_subsystems((1, 1), 2) == (2, 3)
        assert bob_subsystems((1,), 1) == (1,)
        assert bob_subsystems((1.0, np.int64(0), True), 3) == (3, 5)

    @pytest.mark.parametrize(
        "mask, K",
        [
            ((0.7,), 1),
            ((0.0, 1.9), 2),
            ((1, 1, 1), 2),
            ((1,), 2),
            ((2,), 1),
            ((-1, 0), 2),
            ("01", 2),  # the CLI's text form is no bit sequence
        ],
    )
    def test_bob_subsystems_rejects_fractional_bits_and_wrong_length(self, mask, K):
        with pytest.raises(ValueError, match="binary"):
            bob_subsystems(mask, K)

    def test_bob_subsystems_length_check_forms_no_power(self):
        with pytest.raises(ValueError):
            bob_subsystems((1,), 10**18)


class TestPairInequalities:
    @pytest.mark.parametrize("d", [2, 3])
    def test_fully_entangled_vertex(self, d):
        f = FidelityVector(d, 2, np.eye(9)[8])
        res = ppt_inequalities(f)
        # the k = 2 row pair sits at positions 4 and 5
        assert res.mask01[4] == pytest.approx(-(d - 1), abs=0)
        assert res.mask10[4] == pytest.approx(-(d - 1), abs=0)

    def test_uniform_d2_all_nonnegative(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        res = ppt_inequalities(f)
        assert res.mask01.min() >= 0.0
        assert res.mask10.min() >= 0.0

    def test_residual_signs_match_pt_coordinates(self):
        d = 3
        f = random_state_vector(d, 2, 17)
        res = ppt_inequalities(f)
        p01 = transposed_coords(f, (0, 1)).reshape(3, 3)
        p10 = transposed_coords(f, (1, 0)).reshape(3, 3)
        for k in range(3):
            assert np.sign(res.mask01[2 * k]) == np.sign(p01[k, 1])
            assert np.sign(res.mask01[2 * k + 1]) == np.sign(p01[k, 2])
            assert np.sign(res.mask10[2 * k]) == np.sign(p10[1, k])
            assert np.sign(res.mask10[2 * k + 1]) == np.sign(p10[2, k])

    @pytest.mark.parametrize("d", [2, 3])
    def test_verdict_agrees_with_ppt_check(self, d):
        for seed in range(50):
            f = random_state_vector(d, 2, seed)
            res = ppt_inequalities(f)
            assert (res.mask01.min() >= -1e-12) == ppt_check(f, (0, 1), 1e-12).is_ppt
            assert (res.mask10.min() >= -1e-12) == ppt_check(f, (1, 0), 1e-12).is_ppt

    def test_rejects_wrong_k(self):
        with pytest.raises(DomainError):
            ppt_inequalities(random_state_vector(2, 1, 0))


class TestProductStateFidelities:
    def test_identical_real_vectors_d2(self):
        e1 = np.array([1.0, 0.0])
        pi = product_state_fidelities_rows(np.array([[e1]]), np.array([[e1]]))[0]
        assert np.abs(pi - np.array([0.5, 0.0, 0.5])).max() <= 1e-15

    def test_orthogonal_real_vectors(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        pi = product_state_fidelities_rows(np.array([[e1]]), np.array([[e2]]))[0]
        assert np.abs(pi - np.array([0.5, 0.5, 0.0])).max() <= 1e-15

    def test_complex_pair_d2(self):
        e1 = np.array([1.0, 0.0])
        phi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        pi = product_state_fidelities_rows(np.array([[e1]]), np.array([[phi]]))[0]
        assert np.abs(pi - np.array([0.5, 0.25, 0.25])).max() <= 1e-15

    def test_matches_dense_twirl(self):
        d, K = 2, 2
        psis = [random_unit_vector(d, "complex", s) for s in (1, 2)]
        phis = [random_unit_vector(d, "complex", s) for s in (3, 4)]
        pi = product_state_fidelities_rows(np.array([psis]), np.array([phis]))[0]
        sigma = product_states(np.array([psis]), np.array([phis]))
        dense = twirl_rows(sigma, d, K)[0]
        assert np.abs(pi - dense).max() <= 1e-12

    def test_rejects_bad_norm(self):
        with pytest.raises(DomainError):
            product_state_fidelities_rows(np.array([[[1.0, 1.0]]]), np.array([[[1.0, 0.0]]]))

    def test_rejects_mismatched_pairs(self):
        e1 = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            product_state_fidelities_rows(np.array([[e1, e1]]), np.array([[e1]]))

    @given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**31))
    def test_always_passes_bounds(self, d, K, seed):
        children = iter(np.random.SeedSequence(seed).spawn(2 * K))
        psis = [random_unit_vector(d, "complex", next(children)) for _ in range(K)]
        phis = [random_unit_vector(d, "complex", next(children)) for _ in range(K)]
        pi = product_state_fidelities_rows(np.array([psis]), np.array([phis]))[0]
        f = FidelityVector(d, K, pi)
        assert f.is_state(tol=1e-12)
        assert sep_bound_check(f).passes


class TestSepBounds:
    def test_entangled_vertex_fails(self):
        result = sep_bound_check(FidelityVector(2, 1, [0.0, 0.0, 1.0]))
        assert not result.passes
        assert result.violated == (2,)  # the rank of sigma = (2,)
        assert type(result.violated[0]) is int
        assert result.sufficient

    def test_symmetric_vertex_passes(self):
        result = sep_bound_check(FidelityVector(2, 1, [1.0, 0.0, 0.0]))
        assert result.passes
        assert result.violated == ()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bound_values_k2(self, d):
        bounds = coordinate_bounds(d, 2)
        ranks = {alpha: r for r, alpha in enumerate(all_multi_indices(2))}
        assert bounds[ranks[(1, 2)]] == pytest.approx(1.0 / (2 * d), abs=0)
        assert bounds[ranks[(0, 0)]] == 1.0
        assert bounds[ranks[(1, 1)]] == 0.25
        assert bounds[ranks[(2, 2)]] == pytest.approx(1.0 / d**2)

    def test_k2_not_sufficient(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        assert not sep_bound_check(f).sufficient

    def test_rejects_non_state(self):
        with pytest.raises(DomainError):
            sep_bound_check(FidelityVector(2, 1, [0.5, 0.6, -0.1]))

    @pytest.mark.parametrize("d", [*range(2, 13), 10**150])
    def test_bounds_equal_multi_index_loop(self, d):
        # the product over each multi-index, then one division, bitwise; at
        # d = 1e150 the products from K = 3 on overflow to inf, silently
        weights = (1.0, 2.0, float(d))
        for K in range(1, 7):
            expected = [1.0 / prod(weights[g] for g in alpha) for alpha in all_multi_indices(K)]
            assert coordinate_bounds(d, K).tobytes() == np.array(expected).tobytes()


class TestTwirlAndReconstruct:
    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_tensor_matches_hull_generators(self, d):
        pair = pair_projectors(d)
        assert pair.shape == (3, d * d, d * d) and pair.dtype == np.complex128
        assert not pair.flags.writeable
        q0, q1, _, p1 = hull_generators(d)
        for k in range(3):
            assert np.array_equal(pair[k], (q0 - p1, q1, p1)[k])

    def test_maximally_mixed_coordinates(self):
        rho = ComplexOperator(np.eye(4) / 4.0, (2, 2))
        f = twirl_coords(rho, 2, 1)
        assert np.abs(f.pi - np.array([0.5, 0.25, 0.25])).max() <= 1e-14

    def test_normalized_projectors_are_vertices(self):
        d, K = 2, 2
        for rank, alpha in enumerate(all_multi_indices(K)):
            f = FidelityVector(d, K, np.eye(9)[rank])
            rho = reconstruct(f)
            back = twirl_coords(rho, d, K)
            assert np.abs(back.pi - f.pi).max() <= 1e-13

    def test_uniform_reconstruction_d2(self):
        pi0, pi1, pi2 = pair_projectors(2)
        f = FidelityVector(2, 1, np.full(3, 1.0 / 3.0))
        rho = reconstruct(f)
        expected = (pi0 / 2.0 + pi1 + pi2) / 3.0
        assert np.abs(rho.matrix - expected).max() <= 1e-15
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-14)

    def test_roundtrip_random_states(self):
        for seed in range(30):
            f = random_state_vector(2, 2, seed)
            back = twirl_coords(reconstruct(f), 2, 2)
            assert np.abs(back.pi - f.pi).max() <= 1e-12

    def test_twirl_of_generic_density_matrix(self):
        rng = np.random.default_rng(33)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        mat = g @ g.conj().T
        rho = ComplexOperator(mat / np.trace(mat).real, (2,) * 4)
        f = twirl_coords(rho, 2, 2)
        assert f.is_state(tol=1e-12)
        again = twirl_coords(reconstruct(f), 2, 2)
        assert np.abs(again.pi - f.pi).max() <= 1e-12

    def test_twirl_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            twirl_coords(ComplexOperator(np.eye(4), (2, 2)), 2, 1)  # trace 4
        bad = ComplexOperator(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
        with pytest.raises(DomainError):
            twirl_coords(bad, 2, 1)
        with pytest.raises(DomainError):
            twirl_coords(ComplexOperator(np.eye(4) / 4.0, (2, 2)), 2, 2)

    @given(st.sampled_from([2, 3]), st.integers(1, 2), st.integers(0, 2**31))
    def test_matches_projector_family_oracle(self, d, K, seed):
        rho = wishart_state(d, K, seed)
        family = projector_family(d, K)
        oracle = np.array([np.einsum("ij,ji->", rho.matrix, p).real for p in family])
        f = twirl_coords(rho, d, K)
        assert np.abs(f.pi - oracle).max() <= 1e-12
        traces = [multipartite_trace(d, a) for a in all_multi_indices(K)]
        mixture = sum(w / t * p for w, t, p in zip(f.pi, traces, family))
        assert np.abs(reconstruct(f).matrix - mixture).max() <= 1e-12

    def test_twirl_check_order(self, monkeypatch):
        nan_state = np.eye(16) / 16.0
        nan_state[3, 5] = np.nan
        rho = ComplexOperator(nan_state, (2,) * 4)
        with pytest.raises(DomainError, match="non-finite"):
            twirl_coords(rho, 2, 2)
        monkeypatch.setattr(dense_module, "MAX_DIM", 8)  # the cap lives in dense._check_dimension
        with pytest.raises(CapacityError):
            twirl_coords(rho, 2, 2)  # the cap comes before the entries are read
        with pytest.raises(DomainError, match="dimension"):
            twirl_coords(rho, 2, 1)  # and a dimension mismatch before the cap
        with pytest.raises(DomainError, match="dimension"):
            twirl_coords(rho, 2, 10**9)  # decided without forming 2**(2 * 10**9)

    def test_reconstruct_capacity(self):
        f = FidelityVector(2, 7, np.full(3**7, 1.0 / 3**7))
        with pytest.raises(CapacityError):
            reconstruct(f)

    def test_reconstruct_rejects_non_state(self):
        with pytest.raises(DomainError):
            reconstruct(FidelityVector(2, 1, [1.2, -0.2, 0.0]))


class TestReduce:
    def test_uniform_marginal(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        out = reduce_pair(f, 0)
        assert out.K == 1
        assert np.abs(out.pi - np.full(3, 1.0 / 3.0)).max() <= 1e-15

    def test_vertex_marginal(self):
        f = FidelityVector(2, 2, np.eye(9)[2])  # the vertex (0, 2)
        out = reduce_pair(f, 0)
        assert np.array_equal(out.pi, np.array([0.0, 0.0, 1.0]))

    def test_dense_oracle_agreement(self):
        for seed in range(10):
            f = random_state_vector(2, 2, seed + 100)
            rho = reconstruct(f)
            for pair in range(2):
                got = reduce_pair(f, pair)
                marginal = partial_trace_rows(rho.matrix[None], rho.shape, (pair, 2 + pair))
                dense = twirl_rows(marginal, 2, 1)[0]
                assert np.abs(got.pi - dense).max() <= 1e-12

    def test_rejects_single_pair(self):
        with pytest.raises(DomainError, match="^reduction requires K >= 2$"):
            reduce_pair(FidelityVector(2, 1, [1.0, 0.0, 0.0]), 0)

    def test_rejects_bad_pair_index(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        with pytest.raises(IndexError):
            reduce_pair(f, 2)
        with pytest.raises(IndexError):
            reduce_rows(f.pi[None], 2, -1)

    @given(st.integers(2, 6), st.integers(1, 6), st.data())
    def test_rows_equal_reduce_pair_bitwise(self, K, N, data):
        pair = data.draw(st.integers(0, K - 1))
        rows = np.random.default_rng(data.draw(st.integers(0, 2**31))).dirichlet(
            np.ones(3**K), size=N
        )
        got = reduce_rows(rows, K, pair)
        assert got.shape == (N, 3 ** (K - 1))
        for t in range(N):
            assert got[t].tobytes() == reduce_pair(FidelityVector(2, K, rows[t]), pair).pi.tobytes()


class TestVertices:
    def test_werner_zero_d2(self):
        assert np.abs(vertex_coords(2)["Q0"] - np.array([2 / 3, 0.0, 1 / 3])).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_trivial_vertices(self, d):
        assert np.array_equal(vertex_coords(d)["Q1"], [0.0, 1.0, 0.0])
        assert np.array_equal(vertex_coords(d)["P1"], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_vertices_match_dense_twirl(self, d):
        for label, op in zip(VERTEX_LABELS, hull_generators(d)):
            rho = ComplexOperator(op / np.trace(op).real, (d, d))
            got = vertex_coords(d)[label]
            expected = twirl_coords(rho, d, 1)
            assert np.abs(got - expected.pi).max() <= 1e-12

    def test_hull_vertex_count_and_products(self):
        vertices = hull_vertices(2, 2)
        assert len(vertices) == 16
        assert (vertices.dtype, vertices.shape) == (np.float64, (16, 9))
        assert not vertices.flags.writeable
        assert list(product(VERTEX_LABELS, repeat=2))[0] == ("Q0", "Q0")
        single = vertex_coords(2)["Q0"]
        assert np.abs(vertices[0] - np.kron(single, single)).max() <= 1e-15
        for vec in vertices:
            assert FidelityVector(2, 2, vec).is_state(tol=1e-12)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_hull_vertices_equal_kron_chain(self, d):
        # the np.kron chain over each label sequence, one pair at a time; each
        # prefix is built once, with the floats of building it per sequence
        singles = vertex_coords(d)
        chains = {(): np.ones(1)}
        for K in range(1, 7):
            chains = {
                labels + (name,): np.kron(pi, singles[name])
                for labels, pi in chains.items()
                for name in VERTEX_LABELS
            }
            vertices = hull_vertices(d, K)
            assert list(chains) == list(product(VERTEX_LABELS, repeat=K))
            want = np.array(list(chains.values()))
            assert vertices.tobytes() == want.tobytes()


    @pytest.mark.parametrize("build", [hull_vertices, coordinate_bounds])
    @pytest.mark.parametrize(
        "d, K, error, message",
        [
            (1, 1, DomainError, "local dimension must be >= 2"),
            (0, 1, DomainError, "local dimension must be >= 2"),
            (0, 2, DomainError, "local dimension must be >= 2"),
            (2, 0, ValueError, "pair count must be >= 1"),
            (2, -1, ValueError, "pair count must be >= 1"),
        ],
    )
    def test_local_dimension_and_pair_count_checked(self, build, d, K, error, message):
        # unchecked, d = 1 gave a table, d = 0 a ZeroDivisionError or inf ceilings, and
        # K = 0 an IndexError from an empty Kronecker chain
        with pytest.raises(ValueError) as exc:
            build(d, K)
        assert (exc.type, str(exc.value)) == (error, message)


class TestIntersectionPoint:
    def test_parameter_values(self):
        ip2 = intersection_point(2)
        assert ip2.q == float(Fraction(1, 3))
        assert ip2.p == float(Fraction(2, 9))
        ip3 = intersection_point(3)
        assert ip3.q == float(Fraction(5, 12))
        assert ip3.p == float(Fraction(7, 72))

    def test_parameters_equal_the_rounded_fractions(self):
        # one int / int division rounds the exact quotient, as float(Fraction) does
        for d in range(2, 2001):
            s = Fraction(1, d * (d + 1))
            ip = intersection_point(d)
            assert ip.q == float(Fraction(1, 2) - s), d
            assert ip.p == float(2 * s * (Fraction(1, 2) + s)), d

    @pytest.mark.parametrize("d", range(2, 9))
    def test_parameters_in_separable_range(self, d):
        ip = intersection_point(d)
        assert ip.q < 0.5
        assert ip.p < 1.0 / d

    @pytest.mark.parametrize("d", [2, 3])
    def test_coords_match_dense_twirl_of_werner_mixture(self, d):
        ip = intersection_point(d)
        q0, q1 = hull_generators(d)[:2]
        q0 = q0 / np.trace(q0).real
        q1 = q1 / np.trace(q1).real
        rho = ComplexOperator((1 - ip.q) * q0 + ip.q * q1, (d, d))
        assert np.abs(ip.coords - twirl_coords(rho, d, 1).pi).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_true_crossing_is_maximally_mixed(self, d):
        # solving the two-line system directly lands on the maximally mixed
        # state, at parameters (d-1)/(2d) and 1/d^2
        w0, w1, i0, i1 = (vertex_coords(d)[label] for label in VERTEX_LABELS)
        m = np.column_stack([w1 - w0, -(i1 - i0)])
        sol, *_ = np.linalg.lstsq(m, i0 - w0, rcond=None)
        q_true, p_true = sol
        assert q_true == pytest.approx((d - 1) / (2 * d), abs=1e-12)
        assert p_true == pytest.approx(1.0 / d**2, abs=1e-12)
        crossing = (1 - q_true) * w0 + q_true * w1
        mixed = np.array(bipartite_traces(d), dtype=float) / d**2
        assert np.abs(crossing - mixed).max() <= 1e-12


class TestGrid:
    def test_composition_count_and_order(self):
        points = list(simplex_grid(19, 3))
        assert len(points) == comb(21, 2) == 210
        assert points[0] == (0, 0, 19)
        assert points[1] == (0, 1, 18)
        assert points[-1] == (19, 0, 0)
        assert all(sum(p) == 19 for p in points)

    def test_grid_points_are_states(self):
        for f in grid_points(2, 1, 4):
            assert f.is_state(tol=0.0)

    def test_single_part(self):
        assert list(simplex_grid(5, 1)) == [(5,)]

    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 40))
    @example(n=3, parts=1, coords=1)
    @example(n=4, parts=5, coords=3)
    def test_composition_blocks_match_recursive_list(self, n, parts, coords):
        def compositions(total, k):
            if k == 1:
                return [(total,)]
            return [
                (first,) + rest
                for first in range(total + 1)
                for rest in compositions(total - first, k - 1)
            ]

        blocks = list(simplex_module._composition_blocks(n, parts, coords))
        rows = max(1, coords // parts)  # a single row per block when coords <= parts
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= rows
        assert all(b.dtype.kind == "i" and b.shape[1] == parts for b in blocks)
        expected = compositions(n, parts)
        assert [tuple(r) for b in blocks for r in b.tolist()] == expected
        assert list(simplex_grid(n, parts)) == expected

    @pytest.mark.parametrize("n, parts", [(0, 3), (3, 0)])
    def test_empty_lattice_rejected(self, n, parts):
        with pytest.raises(ValueError):
            next(simplex_grid(n, parts))

    def test_default_resolution_limits(self):
        for K in (1, 2, 3):
            n = default_grid_resolution(K)
            m = 3**K
            assert comb(n + m - 1, m - 1) <= 100_000
            assert comb(n + m, m - 1) > 100_000

    def test_default_resolution_matches_uncapped_search(self):
        def uncapped(K):
            m, n = 3**K, 1
            while comb(n + m, m - 1) <= 100_000:
                n += 1
            return n

        assert [default_grid_resolution(K) for K in range(1, 21)] == [
            uncapped(K) for K in range(1, 21)
        ]
        assert default_grid_resolution(10**9) == 1

    @pytest.mark.parametrize("K", [0, -1])
    def test_default_resolution_rejects_no_pairs(self, K):
        # at K = 0 every lattice has one point, so the search would never stop
        with pytest.raises(ValueError, match="pair count must be >= 1"):
            default_grid_resolution(K)


class TestBatchedCore:
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 12),
        st.integers(0, 2**31),
    )
    def test_random_rows_match_single_point_formula(self, d, K, N, seed):
        rows = np.random.default_rng(seed).dirichlet(np.ones(3**K), size=N)
        c = c_matrix(d)
        for mask in all_masks(K):
            batched = pt_map_rows(rows, c, mask)
            single = np.array([single_point_pt_map(p, c, mask) for p in rows])
            assert np.array_equal(batched, single)
            wrapped = [transposed_coords(FidelityVector(d, K, p), mask) for p in rows]
            assert np.array_equal(batched, np.array(wrapped))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.sampled_from([(1, 12), (2, 4), (3, 2)]),
        st.data(),
        st.sampled_from([0.0, PSD_TOL, 1e-3]),
    )
    def test_lattice_flags_match_scalar_checks(self, d, K_and_max_n, data, tol):
        K, max_n = K_and_max_n
        n = data.draw(st.integers(1, max_n))
        c = c_matrix(d)
        masks = all_masks(K)
        blocks = list(classify_lattice(d, K, n, tol))
        pi = np.concatenate([b[0] for b in blocks]) / n
        ppt = np.concatenate([b[1] for b in blocks])
        bound_ok = np.concatenate([b[2] for b in blocks])
        points = grid_points(d, K, n)
        assert np.array_equal(pi, np.array([f.pi for f in points]))
        for j, mask in enumerate(masks):
            single = np.array([single_point_pt_map(f.pi, c, mask) for f in points])
            assert np.array_equal(pt_map_rows(pi, c, mask), single)
            assert ppt[:, j].tolist() == [ppt_check(f, mask, tol).is_ppt for f in points]
        assert bound_ok.tolist() == [sep_bound_check(f).passes for f in points]

    def test_blocks_bounded_by_coordinate_count(self, monkeypatch):
        monkeypatch.setattr(simplex_module, "SCAN_BLOCK_COORDS", 20)
        sizes = [len(pi) for pi, _, _ in classify_lattice(2, 2, 3, PSD_TOL)]
        assert sizes == [2] * 82 + [1]  # 165 points, two 9-coordinate rows per block
        monkeypatch.setattr(simplex_module, "SCAN_BLOCK_COORDS", 5)
        assert {len(pi) for pi, _, _ in classify_lattice(2, 2, 1, PSD_TOL)} == {1}

    def test_k7_blocks_hold_several_rows(self):
        # K = 7 is the largest K a scan admits; its rows have 3**7 coordinates
        comp, _, _ = next(classify_lattice(2, 7, 1))
        assert comp.shape == (simplex_module.SCAN_BLOCK_COORDS // 3**7, 3**7)
        assert len(comp) >= 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 7]),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(0, 2**31),
    )
    def test_walk_slices_equal_pt_map_rows(self, d, K, N, seed):
        rows = np.random.default_rng(seed).dirichlet(np.ones(3**K), size=N)
        c = c_matrix(d)
        walk = pt_map_masks(rows, c, K)
        assert walk.shape == (N, 2**K, 3**K)
        # slice 0 is the zero mask, the rows themselves
        for r, mask in enumerate(product((0, 1), repeat=K)):
            assert np.array_equal(walk[:, r], pt_map_rows(rows, c, mask))
        for i in range(N):
            assert np.array_equal(pt_map_masks(rows[i : i + 1], c, K), walk[i : i + 1])

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_one_contraction_per_mask_bitwise_equal(self, monkeypatch, K):
        outputs = []
        contract_axes = simplex_module._contract_axes

        def recording(x, m, axes):
            axes = list(axes)
            assert len(axes) == 1  # one single-axis contraction per mask
            outputs.append(contract_axes(x, m, axes))
            return outputs[-1]

        monkeypatch.setattr(simplex_module, "_contract_axes", recording)
        pi = np.random.default_rng(K).dirichlet(np.ones(3**K), size=7)
        c = c_matrix(3)
        pt_map_masks(pi, c, K)
        monkeypatch.setattr(simplex_module, "_contract_axes", contract_axes)
        assert len(outputs) == 2**K - 1
        for mask, t in zip(all_masks(K), outputs):
            assert np.array_equal(t.reshape(pi.shape), pt_map_rows(pi, c, mask))

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_zero_rows_give_empty_results(self, K):
        empty, c = np.empty((0, 3**K)), c_matrix(3)
        assert pt_map_rows(empty, c, (1,) * K).shape == (0, 3**K)
        assert pt_map_masks(empty, c, K).shape == (0, 2**K, 3**K)
        assert reconstruct_rows(empty, 2, K).shape == (0, 4**K, 4**K)
        states = np.empty((0, 4**K, 4**K), dtype=np.complex128)
        assert twirl_rows(states, 2, K).shape == (0, 3**K)
        if K >= 2:
            assert reduce_rows(empty, K, K - 1).shape == (0, 3 ** (K - 1))

    def test_walk_rejects_rows_of_another_width(self):
        with pytest.raises(ValueError):
            pt_map_masks(np.full((2, 9), 1.0 / 9.0), c_matrix(2), 3)
        with pytest.raises(ValueError):
            pt_map_masks(np.full(9, 1.0 / 9.0), c_matrix(2), 2)

    @pytest.mark.parametrize("K", [3, 10**18])
    def test_reduction_rejects_rows_of_another_width(self, K):
        # an enormous K forms no 3**K and no K-tuple: the width check comes first
        with pytest.raises(ValueError, match=rf"expected rows of 3\*\*{K} coordinates"):
            reduce_rows(np.ones((1, 9)), K, 0)
        with pytest.raises(ValueError, match=r"expected rows of 3\*\*2 coordinates"):
            reduce_rows(np.ones(9), 2, 0)

    def test_reduction_checks_pairs_before_rows(self):
        with pytest.raises(DomainError):
            reduce_rows(np.ones((1, 2)), 1, 0)
        with pytest.raises(IndexError):
            reduce_rows(np.ones((1, 2)), 3, 3)

    @pytest.mark.parametrize("d, K", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_unwrapped_integer_map_goes_straight_through(self, d, K):
        # 2d C has integer entries; each masked axis scales the result by 2d
        rows = np.random.default_rng([d, K]).dirichlet(np.ones(3**K), size=5)
        c, scaled = c_matrix(d), 2 * d * c_matrix(d)
        walk, scaled_walk = pt_map_masks(rows, c, K), pt_map_masks(rows, scaled, K)
        for r, mask in enumerate(product((0, 1), repeat=K)):
            factor = (2 * d) ** sum(mask)
            got = pt_map_rows(rows, scaled, mask)
            assert np.allclose(got, factor * pt_map_rows(rows, c, mask), rtol=1e-13, atol=1e-13)
            assert np.allclose(scaled_walk[:, r], factor * walk[:, r], rtol=1e-13, atol=1e-13)

    def test_mask_errors(self):
        rows = np.full((2, 9), 1.0 / 9.0)
        with pytest.raises(IndexError):
            pt_map_rows(rows, c_matrix(2), (1,))
        with pytest.raises(ValueError):
            pt_map_rows(rows, c_matrix(2), (1, 2))
        # not rows at all: the row gate's error, K taken from the mask
        for pi in (np.ones(9), np.ones((1, 3, 3))):
            want = f"expected rows of 3**2 coordinates, got shape {pi.shape}"
            with pytest.raises(ValueError, match=re.escape(want)):
                pt_map_rows(pi, c_matrix(2), (1, 1))

    def test_lattice_yields_integer_compositions_in_grid_order(self):
        comp = np.concatenate([b[0] for b in classify_lattice(2, 2, 3, PSD_TOL)])
        assert comp.dtype == np.int64
        assert list(map(tuple, comp.tolist())) == list(simplex_grid(3, 9))

    def test_lattice_rejects_d1(self):
        with pytest.raises(DomainError):
            next(classify_lattice(1, 1, 2))


def bad_member(kind, good):
    """``good`` broken in one way that :func:`twirl_coords` rejects."""
    m = good.copy()
    if kind == "nan":
        m[1, 2] = np.nan
    elif kind == "trace":
        m *= 1.0 + 1e-9
    elif kind == "negative":
        # unit trace, smallest eigenvalue -2 PSD_TOL
        lam = np.full(len(m), (1.0 + 2 * PSD_TOL) / (len(m) - 1))
        lam[0] = -2 * PSD_TOL
        m = np.diag(lam).astype(np.complex128)
    elif kind == "non-hermitian":
        m[0, 1] += 1e-3
    return m


class TestDenseRows:
    @given(
        d=st.sampled_from([2, 3]),
        K=st.sampled_from([1, 2]),
        T=st.integers(1, 6),
        field=st.sampled_from(["real", "complex"]),
        seed=st.integers(0, 2**31),
    )
    def test_rows_equal_scalar_wrappers_bitwise(self, d, K, T, field, seed):
        psis, phis = product_vectors(d, K, T, field, seed)
        coords = product_state_fidelities_rows(psis, phis)
        assert coords.shape == (T, 3**K)
        for t in range(T):
            one = product_state_fidelities_rows(psis[t : t + 1], phis[t : t + 1])
            assert np.array_equal(coords[t], one[0])

        rows = np.random.default_rng(seed).dirichlet(np.ones(3**K), size=T)
        rho = reconstruct_rows(rows, d, K)
        assert rho.shape == (T, d ** (2 * K), d ** (2 * K))
        for t in range(T):
            assert np.array_equal(rho[t], reconstruct(FidelityVector(d, K, rows[t])).matrix)
            assert np.array_equal(rho[t], reconstruct_rows(rows[t : t + 1], d, K)[0])

        wishart = [wishart_state(d, K, seed + t).matrix for t in range(T)]
        states = np.concatenate([rho, product_states(psis, phis), wishart])
        twirled = twirl_rows(states, d, K)
        for m, row in zip(states, twirled):
            scalar = twirl_coords(ComplexOperator(m, (d,) * (2 * K)), d, K)
            assert np.array_equal(row, scalar.pi)
            assert np.array_equal(row, twirl_rows(m[None], d, K)[0])

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("nan", "non-finite"),
            ("trace", "trace 1.000000001"),
            ("negative", "positive semidefinite"),
            ("non-hermitian", "Hermitian"),
        ],
    )
    @pytest.mark.parametrize("position", [0, 2])
    def test_one_bad_member_raises_the_scalar_error(self, kind, message, position):
        good = reconstruct_rows(np.random.default_rng(1).dirichlet(np.ones(9), size=3), 2, 2)
        stack = good.copy()
        stack[position] = bad_member(kind, good[position])
        with pytest.raises(ValueError, match=message) as scalar:
            twirl_coords(ComplexOperator(stack[position], (2,) * 4), 2, 2)
        with pytest.raises(ValueError) as stacked:
            twirl_rows(stack, 2, 2)
        assert type(stacked.value) is type(scalar.value) is DomainError
        assert str(stacked.value) == str(scalar.value)

    def test_wrong_dimension_raises_the_scalar_error(self):
        stack = reconstruct_rows(np.full((3, 9), 1.0 / 9.0), 2, 2)
        with pytest.raises(DomainError) as scalar:
            twirl_coords(ComplexOperator(stack[1], (2,) * 4), 2, 1)
        with pytest.raises(DomainError) as stacked:
            twirl_rows(stack, 2, 1)
        assert str(stacked.value) == str(scalar.value)

    def test_errors_follow_the_scalar_check_order(self):
        # each member fails an earlier check than the one before it, and every
        # check runs on the whole stack, so a prefix fails as its last member does
        good = reconstruct_rows(np.full((4, 9), 1.0 / 9.0), 2, 2)
        kinds = ["negative", "non-hermitian", "trace", "nan"]
        stack = np.array([bad_member(k, m) for k, m in zip(kinds, good)])
        for n in range(1, 5):
            with pytest.raises(DomainError) as scalar:
                twirl_coords(ComplexOperator(stack[n - 1], (2,) * 4), 2, 2)
            with pytest.raises(DomainError) as stacked:
                twirl_rows(stack[:n], 2, 2)
            assert str(stacked.value) == str(scalar.value)

    def test_product_rows_reject_non_unit_vector(self):
        psis, phis = product_vectors(2, 2, 3, "complex", 0)
        phis = phis.copy()
        phis[1, 1] *= 1.001
        with pytest.raises(DomainError, match="unit norm"):
            product_state_fidelities_rows(psis, phis)
        with pytest.raises(ValueError, match="one psi and one phi"):
            product_state_fidelities_rows(psis, phis[:, :1])

    # SHA-256 of the reconstructed stack of three seeded Dirichlet rows, so that
    # any change in the floats of the pair contraction fails here
    @pytest.mark.parametrize(
        "d, K, digest",
        [
            (2, 2, "4e4ac73a8066e9913f0a072df362fb696659fdca4c9b302f024a5e4728dc6500"),
            (3, 2, "4bac7740258a274f6bd989f7a122f07fd5623b15df39b18b60cc8e1c4aa449b4"),
            (2, 3, "6f17fc585b7e642a034636f7f0a3947db747790bb6cd9cb68d6de50de9f5bcf0"),
        ],
    )
    def test_pinned_reconstruct_digest(self, d, K, digest):
        rows = np.random.default_rng([d, K, 2026]).dirichlet(np.ones(3**K), size=3)
        assert hashlib.sha256(reconstruct_rows(rows, d, K).tobytes()).hexdigest() == digest

    def test_reconstruct_rows_reject_bad_rows(self):
        with pytest.raises(DomainError, match="state-valued"):
            reconstruct_rows(np.array([[1.0, 0.0, 0.0], [1.2, -0.2, 0.0]]), 2, 1)
        with pytest.raises(ValueError, match="3\\*\\*2"):
            reconstruct_rows(np.full((2, 3), 1.0 / 3.0), 2, 2)
        with pytest.raises(ValueError, match="3\\*\\*1000000000"):
            reconstruct_rows(np.full((2, 3), 1.0 / 3.0), 2, 10**9)


class TestScanBudget:
    def test_default_grids_up_to_k7_fit(self):
        for K in range(1, 8):
            check_scan_budget(default_grid_resolution(K), K)

    @pytest.mark.parametrize("K", [8, 9, 10, 11])
    def test_default_grids_from_k8_rejected(self, K):
        with pytest.raises(CapacityError):
            check_scan_budget(default_grid_resolution(K), K)

    def test_admits_what_the_retired_work_budget_admitted(self):
        # the rule with a second, work budget: points x 3**K coordinates <= 1e7
        # and points x 3**K x (2**K - 1) masks <= 1e9; the first alone decides
        def two_budget_rule(n, K):
            coords = comb(n + 3**K - 1, 3**K - 1) * 3**K
            return coords <= 10**7 and coords * (2**K - 1) <= 10**9

        largest = []
        for K in range(1, 9):
            n_max = 0
            while two_budget_rule(n_max + 1, K):
                n_max += 1
                check_scan_budget(n_max, K)
            with pytest.raises(CapacityError, match="output budget"):
                check_scan_budget(n_max + 1, K)
            largest.append(n_max)
        assert largest == [2580, 17, 5, 3, 2, 1, 1, 0]

    def test_output_is_points_coordinates(self, monkeypatch):
        # K = 2, n = 2: 45 points of 9 coordinates
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 45 * 9)
        check_scan_budget(2, 2)
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 45 * 9 - 1)
        with pytest.raises(CapacityError, match="output budget"):
            check_scan_budget(2, 2)

    def test_k1_csv_over_output_budget(self):
        # C(25002, 2) = 3.1e8 points x 3 coordinates
        check_scan_budget(default_grid_resolution(1), 1)
        with pytest.raises(CapacityError, match="output budget"):
            check_scan_budget(25_000, 1)

    def test_huge_lattice_rejected_without_full_count(self):
        # C(10**9 + 177146, 177146) has ~660k digits; the check stops early
        with pytest.raises(CapacityError):
            check_scan_budget(10**9, 11)
        with pytest.raises(CapacityError):
            check_scan_budget(1, 60)
        # nor is 3**K formed: from K = 15 one point alone is over budget
        with pytest.raises(CapacityError, match="output budget"):
            check_scan_budget(1, 10**9)

    def test_lattice_bounds_itself(self, monkeypatch):
        # K = 8, n = 1: 6,561 points of 6,561 coordinates
        def no_block(*args):
            raise AssertionError("a lattice block was built before the budget check")

        monkeypatch.setattr(simplex_module, "_composition_blocks", no_block)
        with pytest.raises(CapacityError, match="output budget"):
            next(classify_lattice(2, 8, 1))


class TestVertexBudget:
    def test_k6_fits_k7_rejected(self):
        for K in range(1, 7):
            check_vertex_budget(K)
        for K in (7, 8, 60, 10**9):
            with pytest.raises(CapacityError, match="output budget"):
                check_vertex_budget(K)

    def test_size_is_vertices_times_coordinates(self, monkeypatch):
        # K = 2: 16 vertices of 9 coordinates
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 16 * 9)
        check_vertex_budget(2)
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 16 * 9 - 1)
        with pytest.raises(CapacityError):
            check_vertex_budget(2)

    def test_hull_vertices_bound_themselves(self, monkeypatch):
        # K = 8: 65,536 vertices of 6,561 coordinates, about 3.4 GB of floats
        def no_build(*args):
            raise AssertionError("a hull vertex was built before the budget check")

        monkeypatch.setattr(simplex_module, "_vertex_table", no_build)
        with pytest.raises(CapacityError, match="output budget"):
            hull_vertices(2, 8)


class TestFidelityVectorType:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FidelityVector(2, 2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"expected 3\*\*1000000000 coordinates"):
            FidelityVector(2, 10**9, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
            FidelityVector(2, 2, np.full((3, 3), 1.0 / 9.0))

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2"])
    @pytest.mark.parametrize(
        "field, rule", [("d", "local dimension"), ("K", "pair count")]
    )
    def test_non_integer_d_and_K_rejected(self, field, rule, bad):
        # 2.5 would give ppt verdicts for a dimension that does not exist
        args = {"d": 2, "K": 1, "pi": [1.0, 0.0, 0.0]} | {field: bad}
        with pytest.raises(ValueError) as exc:
            FidelityVector(**args)
        assert (exc.type, str(exc.value)) == (ValueError, f"{rule} must be an integer, got {bad!r}")

    @pytest.mark.parametrize(
        "field, rule", [("d", "local dimension"), ("K", "pair count")]
    )
    def test_bool_d_and_K_rejected(self, field, rule):
        # True is an int: the CLI would write "K": true, which its reader rejects
        args = {"d": 2, "K": 1, "pi": [1.0, 0.0, 0.0]} | {field: True}
        with pytest.raises(ValueError) as exc:
            FidelityVector(**args)
        assert (exc.type, str(exc.value)) == (ValueError, f"{rule} must be an integer, got True")

    def test_numpy_integer_d_and_K_accepted(self):
        f = FidelityVector(np.int64(3), np.int32(1), [1.0, 0.0, 0.0])
        assert ppt_check(f, (1,)).is_ppt

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            FidelityVector(2, 1, [bad, 0.0, 1.0])

    def test_is_state_boundaries(self):
        assert FidelityVector(2, 1, [1.0, 0.0, 0.0]).is_state(tol=0.0)
        assert not FidelityVector(2, 1, [1.1, 0.0, -0.1]).is_state()
        assert not FidelityVector(2, 1, [0.5, 0.3, 0.1]).is_state()
