"""Tests for the bipartite and multipartite projector families."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthosym import (
    CapacityError,
    DomainError,
    all_multi_indices,
    bipartite_traces,
    build_bipartite,
    build_multipartite,
    check_family_budget,
    flip,
    multi_index_digits,
    multi_index_rank,
    multipartite_trace,
    projector_family,
    random_orthogonal,
    random_unit_vector,
)
from orthosym import projectors as projectors_module

from oracles import doubled_tensor, random_unitary


class TestFlip:
    def test_d2_permutation_matrix(self):
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(flip(2).matrix, expected)

    def test_swaps_product_vectors(self):
        psi = random_unit_vector(3, "complex", 1)
        phi = random_unit_vector(3, "complex", 2)
        swapped = flip(3).matrix @ np.kron(psi, phi)
        assert np.abs(swapped - np.kron(phi, psi)).max() <= 1e-15

    def test_trace_counts_diagonal_pairs(self):
        # Tr F = number of (i, j) pairs with <ij|ji> = 1, i.e. i == j
        assert flip(3).trace() == pytest.approx(3.0, abs=0)

    def test_squares_to_identity(self):
        f = flip(4).matrix
        assert np.array_equal(f @ f, np.eye(16))

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            flip(1)
        with pytest.raises(DomainError):
            build_bipartite(1)


class TestBipartiteBasis:
    def test_traces_d2(self):
        b = build_bipartite(2)
        got = [op.trace().real for op in (b.Q0, b.Q1, b.P1, b.Pi0, b.Pi1, b.Pi2)]
        assert got == [3, 1, 1, 2, 1, 1]
        assert bipartite_traces(2) == (2, 1, 1)

    def test_traces_d3(self):
        b = build_bipartite(3)
        got = [b.pi(k).trace().real for k in range(3)]
        assert got == pytest.approx([5, 3, 1], abs=1e-13)
        assert sum(got) == 9
        assert bipartite_traces(3) == (5, 3, 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_resolutions_of_identity(self, d):
        b = build_bipartite(d)
        eye = np.eye(d * d)
        assert np.array_equal(b.Q0.matrix + b.Q1.matrix, eye)
        assert np.array_equal(b.P0.matrix + b.P1.matrix, eye)
        assert np.abs(b.Pi0.matrix + b.Pi1.matrix + b.Pi2.matrix - eye).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthogonal_idempotent_family(self, d):
        b = build_bipartite(d)
        pis = [b.pi(k).matrix for k in range(3)]
        for i in range(3):
            for j in range(3):
                product = pis[i] @ pis[j]
                target = pis[j] if i == j else 0.0
                assert np.abs(product - target).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_entangled_projector_below_symmetric(self, d):
        # Q0 P+ = P+ makes Pi0 = Q0 - P+ a genuine projector
        b = build_bipartite(d)
        assert np.abs(b.Q0.matrix @ b.P1.matrix - b.P1.matrix).max() <= 1e-13

    def test_entangled_projector_rank_one(self):
        b = build_bipartite(3)
        eigs = np.sort(np.linalg.eigvalsh(b.Pi2.matrix))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(eigs[:-1]).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_four_generators_coplanar(self, d):
        b = build_bipartite(d)
        # linear dependence at machine precision: both sums equal the identity
        dependence = b.Q0.matrix + b.Q1.matrix - b.P0.matrix - b.P1.matrix
        assert np.abs(dependence).max() <= 1e-15
        ops = [b.Q0, b.Q1, b.P0, b.P1]
        tildes = [o.matrix / o.trace().real for o in ops]
        gram = np.array(
            [[np.einsum("ij,ji->", x, y).real for y in tildes] for x in tildes]
        )
        assert abs(np.linalg.det(gram)) <= 1e-12


class TestMultiIndex:
    def test_rank_order_matches_base3(self):
        idx = all_multi_indices(2)
        assert idx[0] == (0, 0)
        assert idx[1] == (0, 1)
        assert idx[5] == (1, 2)
        assert len(idx) == 9
        for rank, digits in enumerate(idx):
            assert multi_index_rank(digits) == rank

    @pytest.mark.parametrize("digits", [(1.0, 2), (np.int64(1), 2), (True, 2)])
    def test_integral_digits_give_an_int(self, digits):
        rank = multi_index_rank(digits)
        assert rank == 5 and type(rank) is int

    @given(st.integers(1, 6), st.data())
    def test_rank_digit_bijection(self, K, data):
        rank = data.draw(st.integers(0, 3**K - 1))
        digits = multi_index_digits(rank, K)
        assert len(digits) == K
        assert multi_index_rank(digits) == rank

    def test_invalid_digits_rejected(self):
        with pytest.raises(ValueError):
            multi_index_rank((0, 3))
        with pytest.raises(ValueError, match="trinary"):
            multi_index_rank((2.7, 0))
        with pytest.raises(ValueError):
            multi_index_digits(9, 2)


class TestMultipartite:
    def test_completeness_d2_K2(self):
        total = sum(projector_family(2, 2))
        assert np.abs(total - np.eye(16)).max() <= 1e-15

    def test_trace_factorizes(self):
        assert multipartite_trace(2, (0, 2)) == 2
        for alpha in all_multi_indices(2):
            dense = build_multipartite(2, 2, alpha).trace().real
            assert dense == pytest.approx(multipartite_trace(2, alpha), abs=1e-12)

    def test_pairwise_orthogonality_d2_K2(self):
        family = projector_family(2, 2)
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                if i != j:
                    assert np.abs(a @ b).max() <= 1e-13

    def test_idempotence_d2_K2(self):
        for p in projector_family(2, 2):
            assert np.abs(p @ p - p).max() <= 1e-12

    def test_invariance_under_orthogonal_rotations_d3(self):
        family = projector_family(3, 1)
        worst = 0.0
        for seed in range(100):
            big = doubled_tensor([random_orthogonal(3, seed)]).matrix
            for p in family:
                worst = max(worst, np.abs(big @ p - p @ big).max())
        assert worst <= 1e-10

    def test_member_commutes_with_doubled_rotation(self):
        # Pi0 on pair (A1, B1) and Pi1 on pair (A2, B2), in grouped order, must
        # commute with O1 (x) O2 (x) O1 (x) O2 for every pair of rotations
        d = 2
        op = build_multipartite(d, 2, (0, 1)).matrix
        worst = 0.0
        for seed in range(50):
            o1 = random_orthogonal(d, 2 * seed)
            o2 = random_orthogonal(d, 2 * seed + 1)
            big = doubled_tensor([o1, o2]).matrix
            worst = max(worst, np.abs(big @ op - op @ big).max())
        assert worst <= 1e-10

    def test_unitary_rotations_separate_the_family(self):
        # under complex U (x) U the antisymmetric member still commutes, but
        # the entangled-projector member must visibly fail for some seed
        b = build_bipartite(2)
        worst_pi2 = 0.0
        for seed in range(100):
            u = random_unitary(2, seed)
            big = doubled_tensor([u]).matrix
            comm_pi1 = np.abs(big @ b.Pi1.matrix - b.Pi1.matrix @ big).max()
            assert comm_pi1 <= 1e-12
            worst_pi2 = max(
                worst_pi2, np.abs(big @ b.Pi2.matrix - b.Pi2.matrix @ big).max()
            )
        assert worst_pi2 > 1e-3

    def test_capacity_limits(self):
        with pytest.raises(CapacityError):
            build_multipartite(3, 4, (0, 0, 0, 0))
        op = build_multipartite(2, 3, (0, 1, 2))
        assert op.dim == 64
        assert op.shape == (2,) * 6

    def test_family_budget_admits_the_verified_sizes(self):
        check_family_budget(3, 3, copies=2)  # verify --d 3 --K 3: 0.46 GB
        check_family_budget(2, 4, copies=2)
        for d, K in ((2, 1), (2, 2), (3, 1)):  # the default verify battery
            check_family_budget(d, K, copies=2)

    @pytest.mark.parametrize("d, K", [(2, 5), (2, 6), (4, 3), (2, 10**6)])
    def test_over_budget_family_rejected_before_any_build(self, monkeypatch, d, K):
        def no_build(*args):
            raise AssertionError("a dense projector was built before the budget check")

        monkeypatch.setattr(projectors_module, "_family_rows", no_build)
        with pytest.raises(CapacityError, match="budget"):
            projector_family(d, K)

    def test_family_bytes_are_count_times_dim_squared_times_16(self, monkeypatch):
        # d=2, K=2: 9 projectors of 16 x 16 complex128 entries
        monkeypatch.setattr(projectors_module, "FAMILY_BYTES", 9 * 256 * 16)
        check_family_budget(2, 2)
        with pytest.raises(CapacityError):
            check_family_budget(2, 2, copies=2)
        monkeypatch.setattr(projectors_module, "FAMILY_BYTES", 9 * 256 * 16 - 1)
        with pytest.raises(CapacityError):
            check_family_budget(2, 2)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            build_multipartite(2, 2, (0,))
        with pytest.raises(ValueError):
            build_multipartite(2, 2, (0, 3))

    @pytest.mark.parametrize("alpha", [(2.7,), (0.5,), (1.9,), (-1,), (2.0000001,)])
    def test_fractional_digits_rejected(self, alpha):
        # int() would take 2.7 to 2 and build Pi2, or give its trace
        with pytest.raises(ValueError, match="trinary"):
            build_multipartite(2, 1, alpha)
        with pytest.raises(ValueError, match="expected K=2"):
            build_multipartite(2, 2, alpha)  # the length is checked before the digits
        with pytest.raises(ValueError, match="trinary"):
            multipartite_trace(3, alpha)

    def test_integral_digits_of_any_type_accepted(self):
        want = build_multipartite(2, 2, (1, 2)).matrix
        for alpha in [(1.0, 2.0), (np.int64(1), np.float64(2.0)), (True, 2)]:
            assert np.array_equal(build_multipartite(2, 2, alpha).matrix, want)
            assert multipartite_trace(3, alpha) == multipartite_trace(3, (1, 2)) == 3

    def test_two_pair_member_matches_manual_construction(self):
        # grouped-order projector must equal the manual tensor with row legs
        # (A1 A2 B1 B2): t1 carries (A1 B1 | A1' B1'), t2 carries (A2 B2 | ...)
        d = 2
        b = build_bipartite(d)
        got = build_multipartite(d, 2, (1, 2))
        t1 = b.pi(1).matrix.reshape(d, d, d, d)
        t2 = b.pi(2).matrix.reshape(d, d, d, d)
        grouped = np.einsum("ijkl,mnop->imjnkolp", t1, t2)
        expected = grouped.reshape(16, 16)
        assert np.abs(got.matrix - expected).max() <= 1e-14

    @pytest.mark.parametrize("d, K", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_member_equals_kron_chain_oracle(self, d, K):
        # np.kron of the factors in pair order (A1 B1 A2 B2 ...), then the legs
        # moved to grouped order (A1..AK B1..BK), for rows and columns alike
        b = build_bipartite(d)
        grouped = [*range(0, 2 * K, 2), *range(1, 2 * K, 2)]
        axes = grouped + [2 * K + leg for leg in grouped]
        for alpha in all_multi_indices(K):
            chain = b.pi(alpha[0]).matrix
            for g in alpha[1:]:
                chain = np.kron(chain, b.pi(g).matrix)
            want = chain.reshape((d,) * (4 * K)).transpose(axes).reshape(d ** (2 * K), -1)
            got = build_multipartite(d, K, alpha)
            assert got.shape == (d,) * (2 * K)
            assert got.matrix.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("d, K", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_family_is_one_read_only_stack_of_the_members(self, d, K):
        family = projector_family(d, K)
        dim = d ** (2 * K)
        assert family.shape == (3**K, dim, dim) and family.dtype == np.complex128
        assert not family.flags.writeable
        with pytest.raises(ValueError):
            family[0, 0, 0] = 1.0
        for rank, p in enumerate(family):
            member = build_multipartite(d, K, multi_index_digits(rank, K)).matrix
            assert p.tobytes() == member.tobytes()

    def test_family_build_constructs_the_pair_basis_once(self, monkeypatch):
        calls = []

        def counted(d):
            calls.append(d)
            return build_bipartite(d)

        monkeypatch.setattr(projectors_module, "build_bipartite", counted)
        projector_family(2, 3)
        assert calls == [2]
