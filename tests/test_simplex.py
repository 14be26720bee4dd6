"""Tests for the fidelity-coordinate calculus."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
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
    build_bipartite,
    c_matrix,
    check_scan_budget,
    classify_lattice,
    coordinate_bounds,
    default_grid_resolution,
    grid_points,
    hull_vertices,
    identity,
    intersection_point,
    kron,
    mask_digits,
    mask_rank,
    min_eigenvalue,
    multi_index_rank,
    multipartite_trace,
    pair_vertex_coords,
    partial_transpose,
    ppt_all,
    ppt_check,
    ppt_inequalities,
    product_state_fidelities,
    projector_family,
    pt_map,
    pt_map_rows,
    pure_state_projector,
    random_unit_vector,
    reconstruct,
    reduce_mixed,
    reduce_pair,
    sep_bound_check,
    simplex_grid,
    twirl_coords,
)
from orthosym import simplex as simplex_module


def random_state_vector(d, K, seed):
    rng = np.random.default_rng(seed)
    return FidelityVector(d, K, rng.dirichlet(np.ones(3**K)))


def wishart_state(d, K, seed):
    n = d ** (2 * K)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return ComplexOperator(mat / np.trace(mat).real, (d,) * (2 * K))


def single_point_pt_map(pi, c, mask):
    """pt_map as one tensordot per masked digit of a single 3**K vector."""
    tensor = pi.reshape((3,) * len(mask))
    for axis, bit in enumerate(mask):
        if bit:
            tensor = np.moveaxis(np.tensordot(tensor, c, axes=([axis], [0])), -1, axis)
    return tensor.reshape(-1)


def exact_c(d):
    rows = [
        [d - 2, d, 2],
        [d + 2, d, -2],
        [(d - 1) * (d + 2), -d * (d - 1), 2],
    ]
    return np.array([[Fraction(x, 2 * d) for x in row] for row in rows], dtype=float)


class TestCMatrix:
    def test_d2_values(self):
        expected = np.array([[0, 0.5, 0.5], [1, 0.5, -0.5], [1, -0.5, 0.5]])
        assert np.array_equal(c_matrix(2).entries, expected)
        assert np.abs(c_matrix(2).entries - exact_c(2)).max() == 0.0

    def test_d3_values(self):
        expected = np.array([[1, 3, 2], [5, 3, -2], [10, -6, 2]]) / 6.0
        assert np.abs(c_matrix(3).entries - expected).max() <= 1e-16
        assert np.abs(c_matrix(3).entries - exact_c(3)).max() <= 1e-16

    @pytest.mark.parametrize("d", range(2, 11))
    def test_rows_sum_to_one(self, d):
        assert np.abs(c_matrix(d).entries.sum(axis=1) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("d", range(2, 11))
    def test_squares_to_identity(self, d):
        c = c_matrix(d).entries
        assert np.abs(c @ c - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("d", range(2, 11))
    def test_not_stochastic(self, d):
        assert c_matrix(d).entries.min() < 0.0

    def test_rejects_d1(self):
        with pytest.raises(DomainError):
            c_matrix(1)

    def test_cached_per_d(self):
        assert c_matrix(3) is c_matrix(3)
        assert not c_matrix(3).entries.flags.writeable


class TestPtMap:
    def test_zero_mask_is_identity(self):
        f = random_state_vector(3, 2, 4)
        out = pt_map(f, (0, 0))
        assert np.array_equal(out.pi, f.pi)

    def test_entangled_vertex_d2(self):
        # the third row of the d=2 transposition matrix
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        out = pt_map(f, (1,))
        assert np.array_equal(out.pi, np.array([1.0, -0.5, 0.5]))
        assert not out.is_state()

    def test_entangled_vertex_matches_dense_expansion(self):
        # expand the dense transposed state in the normalized projector
        # family by trace inner products
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        transposed = partial_transpose(reconstruct(f), (1,))
        basis = build_bipartite(2)
        dense = [
            np.einsum("ij,ji->", transposed.matrix, basis.pi(k).matrix).real
            for k in range(3)
        ]
        assert np.abs(np.array(dense) - pt_map(f, (1,)).pi).max() <= 1e-14

    def test_matches_matrix_oracle_for_each_mask(self):
        f = random_state_vector(2, 2, 9)
        c = c_matrix(2).entries
        p = f.pi.reshape(3, 3)
        oracles = {
            (0, 1): p @ c,
            (1, 0): c.T @ p,
            (1, 1): c.T @ p @ c,
        }
        for mask, expected in oracles.items():
            got = pt_map(f, mask).pi.reshape(3, 3)
            assert np.abs(got - expected).max() <= 1e-14

    def test_uniform_k2_sum_preserved(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        out = pt_map(f, (0, 1))
        assert out.total() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(0, 2**31),
        st.integers(0, 2**31),
    )
    def test_sum_preservation_and_involution(self, d, K, seed, mask_seed):
        f = random_state_vector(d, K, seed)
        mask = tuple(np.random.default_rng(mask_seed).integers(0, 2, K))
        out = pt_map(f, mask)
        assert out.total() == pytest.approx(1.0, abs=1e-12)
        back = pt_map(out, mask)
        assert np.abs(back.pi - f.pi).max() <= 1e-12

    def test_mask_length_mismatch(self):
        f = random_state_vector(2, 2, 0)
        with pytest.raises(IndexError):
            pt_map(f, (1,))


class TestPPTCheck:
    def test_entangled_vertex_not_ppt(self):
        f = FidelityVector(2, 1, [0.0, 0.0, 1.0])
        verdict = ppt_check(f, (1,))
        assert not verdict.is_ppt
        assert verdict.violations == (((1,), -0.5),)

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
            dense = partial_transpose(rho, bob_subsystems(mask, 2))
            assert min_eigenvalue(dense) >= -1e-12

    def test_rejects_non_state(self):
        f = FidelityVector(2, 1, [0.9, 0.4, -0.3])
        with pytest.raises(DomainError):
            ppt_check(f, (1,))

    def test_ppt_all_enumeration(self):
        f = random_state_vector(2, 2, 1)
        verdicts = ppt_all(f)
        assert list(verdicts) == [(0, 1), (1, 0), (1, 1)]
        single = ppt_all(random_state_vector(2, 1, 2))
        assert list(single) == [(1,)]

    def test_uniform_k2_d2_all_ppt(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        assert all(v.is_ppt for v in ppt_all(f).values())


class TestMaskHelpers:
    def test_rank_roundtrip(self):
        assert mask_rank((0, 1)) == 1
        assert mask_rank((1, 0)) == 2
        assert mask_digits(3, 2) == (1, 1)
        assert all_masks(1) == [(1,)]

    def test_bob_subsystems(self):
        assert bob_subsystems((0, 1), 2) == (3,)
        assert bob_subsystems((1, 1), 2) == (2, 3)
        assert bob_subsystems((1,), 1) == (1,)


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
        p01 = pt_map(f, (0, 1)).pi.reshape(3, 3)
        p10 = pt_map(f, (1, 0)).pi.reshape(3, 3)
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
        f = product_state_fidelities([e1], [e1])
        assert np.abs(f.pi - np.array([0.5, 0.0, 0.5])).max() <= 1e-15

    def test_orthogonal_real_vectors(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        f = product_state_fidelities([e1], [e2])
        assert np.abs(f.pi - np.array([0.5, 0.5, 0.0])).max() <= 1e-15

    def test_complex_pair_d2(self):
        e1 = np.array([1.0, 0.0])
        phi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        f = product_state_fidelities([e1], [phi])
        assert np.abs(f.pi - np.array([0.5, 0.25, 0.25])).max() <= 1e-15

    def test_matches_dense_twirl(self):
        d, K = 2, 2
        psis = [random_unit_vector(d, "complex", s) for s in (1, 2)]
        phis = [random_unit_vector(d, "complex", s) for s in (3, 4)]
        f = product_state_fidelities(psis, phis)
        sigma = pure_state_projector(psis[0])
        for v in psis[1:] + phis:
            sigma = kron(sigma, pure_state_projector(v))
        dense = twirl_coords(sigma, d, K)
        assert np.abs(f.pi - dense.pi).max() <= 1e-12

    def test_rejects_bad_norm(self):
        with pytest.raises(DomainError):
            product_state_fidelities([np.array([1.0, 1.0])], [np.array([1.0, 0.0])])

    def test_rejects_mismatched_pairs(self):
        e1 = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            product_state_fidelities([e1, e1], [e1])

    @given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**31))
    def test_always_passes_bounds(self, d, K, seed):
        children = iter(np.random.SeedSequence(seed).spawn(2 * K))
        psis = [random_unit_vector(d, "complex", next(children)) for _ in range(K)]
        phis = [random_unit_vector(d, "complex", next(children)) for _ in range(K)]
        f = product_state_fidelities(psis, phis)
        assert f.is_state(tol=1e-12)
        assert sep_bound_check(f).passes


class TestSepBounds:
    def test_entangled_vertex_fails(self):
        result = sep_bound_check(FidelityVector(2, 1, [0.0, 0.0, 1.0]))
        assert not result.passes
        assert result.violated == ((2,),)
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

    def test_bounds_cached_and_read_only(self):
        bounds = coordinate_bounds(3, 2)
        assert coordinate_bounds(3, 2) is bounds
        with pytest.raises(ValueError):
            bounds[0] = 2.0


class TestTwirlAndReconstruct:
    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_tensor_cached_per_d(self, d):
        pair = simplex_module._pair_projectors(d)
        assert simplex_module._pair_projectors(d) is pair
        assert not pair.flags.writeable
        assert pair.shape == (3,) + (d,) * 4

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
        basis = build_bipartite(2)
        f = FidelityVector(2, 1, np.full(3, 1.0 / 3.0))
        rho = reconstruct(f)
        expected = (
            basis.Pi0.matrix / 2.0 + basis.Pi1.matrix + basis.Pi2.matrix
        ) / 3.0
        assert np.abs(rho.matrix - expected).max() <= 1e-15
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)

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
            twirl_coords(identity((2, 2)), 2, 1)  # trace 4
        bad = ComplexOperator(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
        with pytest.raises(DomainError):
            twirl_coords(bad, 2, 1)
        with pytest.raises(DomainError):
            twirl_coords(ComplexOperator(np.eye(4) / 4.0, (2, 2)), 2, 2)

    @given(st.sampled_from([2, 3]), st.integers(1, 2), st.integers(0, 2**31))
    def test_matches_projector_family_oracle(self, d, K, seed):
        rho = wishart_state(d, K, seed)
        family = projector_family(d, K)
        oracle = np.array([np.einsum("ij,ji->", rho.matrix, p.matrix).real for p in family])
        f = twirl_coords(rho, d, K)
        assert np.abs(f.pi - oracle).max() <= 1e-12
        traces = [multipartite_trace(d, a) for a in all_multi_indices(K)]
        mixture = sum(w / t * p.matrix for w, t, p in zip(f.pi, traces, family))
        assert np.abs(reconstruct(f).matrix - mixture).max() <= 1e-12

    def test_twirl_check_order(self, monkeypatch):
        nan_state = np.eye(16) / 16.0
        nan_state[3, 5] = np.nan
        rho = ComplexOperator(nan_state, (2,) * 4)
        with pytest.raises(DomainError, match="non-finite"):
            twirl_coords(rho, 2, 2)
        monkeypatch.setattr(simplex_module, "MAX_DIM", 8)
        with pytest.raises(CapacityError):
            twirl_coords(rho, 2, 2)  # the cap comes before the entries are read
        with pytest.raises(DomainError, match="dimension"):
            twirl_coords(rho, 2, 1)  # and a dimension mismatch before the cap

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
        f = FidelityVector(2, 2, np.eye(9)[multi_index_rank((0, 2))])
        out = reduce_pair(f, 0)
        assert np.array_equal(out.pi, np.array([0.0, 0.0, 1.0]))

    def test_dense_oracle_agreement(self):
        from orthosym import partial_trace

        for seed in range(10):
            f = random_state_vector(2, 2, seed + 100)
            rho = reconstruct(f)
            for pair in range(2):
                got = reduce_pair(f, pair)
                dense = twirl_coords(partial_trace(rho, (pair, 2 + pair)), 2, 1)
                assert np.abs(got.pi - dense.pi).max() <= 1e-12

    def test_rejects_single_pair(self):
        with pytest.raises(DomainError):
            reduce_pair(FidelityVector(2, 1, [1.0, 0.0, 0.0]), 0)

    def test_rejects_bad_pair_index(self):
        f = FidelityVector(2, 2, np.full(9, 1.0 / 9.0))
        with pytest.raises(IndexError):
            reduce_pair(f, 2)


class TestVertices:
    def test_werner_zero_d2(self):
        assert np.abs(
            pair_vertex_coords(2, "werner", 0) - np.array([2 / 3, 0.0, 1 / 3])
        ).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_trivial_vertices(self, d):
        assert np.array_equal(pair_vertex_coords(d, "werner", 1), [0.0, 1.0, 0.0])
        assert np.array_equal(pair_vertex_coords(d, "isotropic", 1), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_vertices_match_dense_twirl(self, d):
        basis = build_bipartite(d)
        dense = {
            ("werner", 0): basis.Q0,
            ("werner", 1): basis.Q1,
            ("isotropic", 0): basis.P0,
            ("isotropic", 1): basis.P1,
        }
        for (family, index), op in dense.items():
            rho = ComplexOperator(op.matrix / op.trace().real, (d, d))
            got = pair_vertex_coords(d, family, index)
            expected = twirl_coords(rho, d, 1)
            assert np.abs(got - expected.pi).max() <= 1e-12

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            pair_vertex_coords(2, "ghz", 0)

    def test_hull_vertex_count_and_products(self):
        vertices = hull_vertices(2, 2)
        assert len(vertices) == 16
        labels, f = vertices[0]
        assert labels == ("Q0", "Q0")
        single = pair_vertex_coords(2, "werner", 0)
        assert np.abs(f.pi - np.kron(single, single)).max() <= 1e-15
        for _, vec in vertices:
            assert vec.is_state(tol=1e-12)


class TestIntersectionPoint:
    def test_parameter_values(self):
        ip2 = intersection_point(2)
        assert ip2.q == float(Fraction(1, 3))
        assert ip2.p == float(Fraction(2, 9))
        ip3 = intersection_point(3)
        assert ip3.q == float(Fraction(5, 12))
        assert ip3.p == float(Fraction(7, 72))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_parameters_in_separable_range(self, d):
        ip = intersection_point(d)
        assert ip.q < 0.5
        assert ip.p < 1.0 / d

    @pytest.mark.parametrize("d", [2, 3])
    def test_coords_match_dense_twirl_of_werner_mixture(self, d):
        ip = intersection_point(d)
        basis = build_bipartite(d)
        q0 = basis.Q0.matrix / basis.Q0.trace().real
        q1 = basis.Q1.matrix / basis.Q1.trace().real
        rho = ComplexOperator((1 - ip.q) * q0 + ip.q * q1, (d, d))
        assert np.abs(ip.coords - twirl_coords(rho, d, 1).pi).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_true_crossing_is_maximally_mixed(self, d):
        # solving the two-line system directly lands on the maximally mixed
        # state, at parameters (d-1)/(2d) and 1/d^2
        w0 = pair_vertex_coords(d, "werner", 0)
        w1 = pair_vertex_coords(d, "werner", 1)
        i0 = pair_vertex_coords(d, "isotropic", 0)
        i1 = pair_vertex_coords(d, "isotropic", 1)
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

    def test_default_resolution_limits(self):
        for K in (1, 2, 3):
            n = default_grid_resolution(K)
            m = 3**K
            assert comb(n + m - 1, m - 1) <= 100_000
            assert comb(n + m, m - 1) > 100_000


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
            single = np.array([single_point_pt_map(p, c.entries, mask) for p in rows])
            assert np.array_equal(batched, single)
            wrapped = [pt_map(FidelityVector(d, K, p), mask).pi for p in rows]
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
        pi = np.concatenate([b[0] for b in blocks])
        ppt = np.concatenate([b[1] for b in blocks])
        bound_ok = np.concatenate([b[2] for b in blocks])
        points = list(grid_points(d, K, n))
        assert np.array_equal(pi, np.array([f.pi for f in points]))
        for j, mask in enumerate(masks):
            single = np.array([single_point_pt_map(f.pi, c.entries, mask) for f in points])
            assert np.array_equal(pt_map_rows(pi, c, mask), single)
            assert ppt[:, j].tolist() == [ppt_check(f, mask, tol).is_ppt for f in points]
        assert bound_ok.tolist() == [sep_bound_check(f).passes for f in points]

    def test_blocks_bounded_by_coordinate_count(self, monkeypatch):
        monkeypatch.setattr(simplex_module, "SCAN_BLOCK_COORDS", 20)
        sizes = [len(pi) for pi, _, _ in classify_lattice(2, 2, 3, PSD_TOL)]
        assert sizes == [2] * 82 + [1]  # 165 points, two 9-coordinate rows per block
        monkeypatch.setattr(simplex_module, "SCAN_BLOCK_COORDS", 5)
        assert {len(pi) for pi, _, _ in classify_lattice(2, 2, 1, PSD_TOL)} == {1}

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_one_contraction_per_mask_bitwise_equal(self, monkeypatch, K):
        outputs = []
        apply_c = simplex_module._apply_c

        def recording(tensor, c, axis):
            outputs.append(apply_c(tensor, c, axis))
            return outputs[-1]

        monkeypatch.setattr(simplex_module, "_apply_c", recording)
        monkeypatch.setattr(simplex_module, "SCAN_BLOCK_COORDS", 3**K * 7)
        blocks = []
        for pi, _, _ in classify_lattice(3, K, 2, PSD_TOL):
            blocks.append((pi, outputs[:]))
            outputs.clear()
        monkeypatch.setattr(simplex_module, "_apply_c", apply_c)
        c = c_matrix(3)
        for pi, transformed in blocks:
            assert len(transformed) == 2**K - 1
            for r, t in enumerate(transformed, start=1):
                expected = pt_map_rows(pi, c, mask_digits(r, K))
                assert np.array_equal(t.reshape(pi.shape), expected)

    def test_mask_errors(self):
        rows = np.full((2, 9), 1.0 / 9.0)
        with pytest.raises(IndexError):
            pt_map_rows(rows, c_matrix(2), (1,))
        with pytest.raises(ValueError):
            pt_map_rows(rows, c_matrix(2), (1, 2))

    def test_lattice_rejects_d1(self):
        with pytest.raises(ValueError):
            next(classify_lattice(1, 1, 2))


class TestScanBudget:
    def test_default_grids_up_to_k7_fit(self):
        for K in range(1, 8):
            check_scan_budget(default_grid_resolution(K), K)

    @pytest.mark.parametrize("K", [8, 9, 10, 11])
    def test_default_grids_from_k8_rejected(self, K):
        with pytest.raises(CapacityError):
            check_scan_budget(default_grid_resolution(K), K)

    def test_cost_is_points_coordinates_masks(self, monkeypatch):
        # K = 2, n = 2: C(10, 8) = 45 points, 9 coordinates, 3 masks
        monkeypatch.setattr(simplex_module, "SCAN_BUDGET", 45 * 9 * 3)
        check_scan_budget(2, 2)
        monkeypatch.setattr(simplex_module, "SCAN_BUDGET", 45 * 9 * 3 - 1)
        with pytest.raises(CapacityError):
            check_scan_budget(2, 2)

    def test_output_is_points_coordinates(self, monkeypatch):
        # K = 2, n = 2: 45 points of 9 coordinates
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 45 * 9)
        check_scan_budget(2, 2)
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 45 * 9 - 1)
        with pytest.raises(CapacityError, match="output budget"):
            check_scan_budget(2, 2)

    def test_k1_csv_over_output_budget(self):
        # C(25002, 2) = 3.1e8 points x 3 coordinates: ~9.4e8 < SCAN_BUDGET work
        check_scan_budget(default_grid_resolution(1), 1)
        with pytest.raises(CapacityError, match="output budget"):
            check_scan_budget(25_000, 1)

    def test_huge_lattice_rejected_without_full_count(self):
        # C(10**9 + 177146, 177146) has ~660k digits; the check stops early
        with pytest.raises(CapacityError):
            check_scan_budget(10**9, 11)
        with pytest.raises(CapacityError):
            check_scan_budget(1, 60)


class TestFidelityVectorType:
    def test_json_roundtrip(self):
        f = random_state_vector(3, 2, 5)
        back = FidelityVector.from_json(f.to_json())
        assert back.d == 3 and back.K == 2
        assert np.array_equal(back.pi, f.pi)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FidelityVector(2, 2, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            FidelityVector(2, 1, [bad, 0.0, 1.0])

    def test_is_state_boundaries(self):
        assert FidelityVector(2, 1, [1.0, 0.0, 0.0]).is_state(tol=0.0)
        assert not FidelityVector(2, 1, [1.1, 0.0, -0.1]).is_state()
        assert not FidelityVector(2, 1, [0.5, 0.3, 0.1]).is_state()

    def test_coordinate_lookup(self):
        f = random_state_vector(2, 2, 6)
        assert f.coordinate((1, 2)) == f.pi[5]


class TestReduceMixed:
    def test_composition_of_natural_reductions(self):
        f = random_state_vector(2, 3, 55)
        out = reduce_mixed(f, 0, 2)
        manual = f.pi.reshape(3, 3, 3).sum(axis=2).sum(axis=0)
        assert np.abs(out.pi - manual).max() <= 1e-15
        assert out.K == 1
        swapped = reduce_mixed(f, 2, 0)
        assert np.array_equal(out.pi, swapped.pi)

    def test_dense_oracle_agreement(self):
        from orthosym import partial_trace

        f = random_state_vector(2, 3, 99)
        rho = reconstruct(f)
        # discard both full pairs 0 and 2 densely, then re-extract
        dense = twirl_coords(partial_trace(rho, (0, 3, 2, 5)), 2, 1)
        assert np.abs(reduce_mixed(f, 0, 2).pi - dense.pi).max() <= 1e-12

    def test_rejects_equal_pairs(self):
        with pytest.raises(ValueError):
            reduce_mixed(random_state_vector(2, 3, 0), 1, 1)

    def test_k2_collapses_to_domain_error(self):
        with pytest.raises(DomainError):
            reduce_mixed(random_state_vector(2, 2, 0), 0, 1)
