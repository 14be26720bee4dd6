"""Contract tests for the dense linear-algebra layer."""

from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosym import (
    PSD_TOL,
    CapacityError,
    ComplexOperator,
    DomainError,
    identity,
    is_psd,
    is_psd_rows,
    kron,
    kron_rows,
    min_eigenvalue,
    min_eigenvalue_rows,
    partial_trace,
    partial_trace_rows,
    partial_transpose,
    partial_transpose_rows,
    random_orthogonal,
    random_unit_vector,
)
from orthosym import dense as dense_module
from orthosym.projectors import (
    bipartite_traces,
    build_bipartite,
    build_multipartite,
    flip,
    maximally_entangled,
)

from oracles import pure_state_projector, random_unitary


def swap_oracle(d):
    """Independent swap construction via explicit basis outer products."""
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            ket = np.zeros(d * d)
            bra = np.zeros(d * d)
            ket[i * d + j] = 1.0
            bra[j * d + i] = 1.0
            m += np.outer(ket, bra)
    return m


def random_operator(dim, shape, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        g = (g + g.conj().T) / 2.0
    return ComplexOperator(g, shape)


class TestKron:
    def test_identity_case(self):
        out = kron(identity((2,)), identity((2,)))
        assert np.array_equal(out.matrix, np.eye(4))
        assert out.shape == (2, 2)

    def test_diagonal_projectors(self):
        a = ComplexOperator(np.diag([1.0, 0.0]), (2,))
        b = ComplexOperator(np.diag([0.0, 1.0]), (2,))
        assert np.array_equal(kron(a, b).matrix, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_flip_tensor_flip_trace(self):
        # the swap on d=2 has trace d = 2 (one unit per i == j), so the
        # product operator must have trace 4
        f = flip(2)
        per_factor = sum(1 for i in range(2) for j in range(2) if i == j)
        assert per_factor == 2
        out = kron(f, f)
        assert out.trace() == pytest.approx(4.0, abs=0)
        assert out.shape == (2, 2, 2, 2)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            kron(identity((64,)), identity((65,)))

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_equals_np_kron_bitwise(self, m, n):
        a = random_operator(m, (m,), 10 * m + n)
        b = random_operator(n, (n,), 100 + 10 * m + n)
        out = kron(a, b)
        assert out.shape == (m, n)
        assert out.matrix.tobytes() == np.kron(a.matrix, b.matrix).tobytes()


class TestKronRows:
    @given(
        factors=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()), min_size=2, max_size=4
        ),
        t=st.sampled_from([1, 3]),
        single=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_np_kron_member_by_member(self, factors, t, single, seed):
        rng = np.random.default_rng(seed)
        stacks = []
        for i, (m, n, is_complex) in enumerate(factors):
            size = (1 if i == single % len(factors) else t, m, n)
            x = rng.standard_normal(size)
            if is_complex:
                x = x + 1j * rng.standard_normal(size)
            # signed zeros, so that bitwise equality also covers their signs
            x[rng.random(size) < 0.2] = -0.0
            stacks.append(x)
        got = kron_rows(*stacks)
        want = []
        for k in range(t):
            member = stacks[0][min(k, len(stacks[0]) - 1)]
            for x in stacks[1:]:
                member = np.kron(member, x[min(k, len(x) - 1)])
            want.append(member)
        want = np.array(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPartialTranspose:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_flip_maps_to_entangled_projector(self, d):
        # transposing the second factor of the swap gives exactly d * P+
        pt = partial_transpose(flip(d), {1})
        assert np.array_equal(pt.matrix, d * maximally_entangled(d).matrix)

    def test_identity_invariant(self):
        eye = identity((2, 3))
        assert np.array_equal(partial_transpose(eye, {1}).matrix, eye.matrix)

    def test_matches_swap_oracle(self):
        d = 3
        pt = partial_transpose(ComplexOperator(swap_oracle(d), (d, d)), {1})
        expected = np.zeros((9, 9))
        for i in range(d):
            for j in range(d):
                expected[i * d + i, j * d + j] = 1.0
        assert np.array_equal(pt.matrix, expected)

    @given(st.integers(0, 2**31), st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (3, 2)]))
    def test_involution_and_trace(self, seed, shape):
        dim = int(np.prod(shape))
        op = random_operator(dim, shape, seed, hermitian=True)
        subs = {0} if len(shape) < 3 else {0, 2}
        once = partial_transpose(op, subs)
        twice = partial_transpose(once, subs)
        assert np.array_equal(twice.matrix, op.matrix)
        assert abs(once.trace() - op.trace()) <= 1e-14

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            partial_transpose(identity((2, 2)), {2})
        with pytest.raises(IndexError):
            partial_transpose(identity((2, 2)), [0, 0])


class TestPartialTrace:
    @pytest.mark.parametrize("d", [2, 3])
    def test_entangled_marginal_is_maximally_mixed(self, d):
        out = partial_trace(maximally_entangled(d), {1})
        assert np.allclose(out.matrix, np.eye(d) / d, atol=1e-15)
        assert out.shape == (d,)

    def test_product_factorization(self):
        a = random_operator(3, (3,), 7)
        b = random_operator(4, (4,), 8)
        out = partial_trace(kron(a, b), {1})
        assert np.abs(out.matrix - a.matrix * b.trace()).max() <= 1e-13

    def test_trace_all_subsystems(self):
        op = random_operator(6, (2, 3), 11)
        out = partial_trace(op, {0, 1})
        assert out.shape == (1,)
        assert out.matrix.shape == (1, 1)
        assert abs(out.matrix[0, 0] - op.trace()) <= 1e-13

    def test_preserves_trace(self):
        op = random_operator(8, (2, 2, 2), 3)
        assert abs(partial_trace(op, {1}).trace() - op.trace()) <= 1e-13

    def test_pair_projector_reduces_to_factor(self):
        # tracing the first pair of a two-pair projector leaves the second
        # factor scaled by the first factor's trace
        d = 2
        traces = bipartite_traces(d)
        basis = build_bipartite(d)
        for a1 in range(3):
            for a2 in range(3):
                big = build_multipartite(d, 2, (a1, a2))
                out = partial_trace(big, {0, 2})
                expected = traces[a1] * basis.pi(a2).matrix
                assert np.abs(out.matrix - expected).max() <= 1e-12


def transpose_oracle(m, shape, subs):
    """Partial transpose of one matrix, entry by entry over the multi-indices."""
    out = np.empty_like(m)
    for i in product(*map(range, shape)):
        for j in product(*map(range, shape)):
            i2 = tuple(j[k] if k in subs else i[k] for k in range(len(shape)))
            j2 = tuple(i[k] if k in subs else j[k] for k in range(len(shape)))
            row, col = np.ravel_multi_index(i2, shape), np.ravel_multi_index(j2, shape)
            out[row, col] = m[np.ravel_multi_index(i, shape), np.ravel_multi_index(j, shape)]
    return out


def trace_oracle(m, shape, subs):
    """Partial trace of one matrix, each entry an explicit sum over the traced indices."""
    kept = [k for k in range(len(shape)) if k not in subs]
    kept_shape = tuple(shape[k] for k in kept)
    dim = prod(kept_shape)
    out = np.zeros((dim, dim), dtype=m.dtype)

    def rank(part, traced):
        full = dict(zip(kept, part)) | dict(zip(subs, traced))
        return np.ravel_multi_index(tuple(full[k] for k in range(len(shape))), shape)

    for a in product(*map(range, kept_shape)):
        for b in product(*map(range, kept_shape)):
            for t in product(*(range(shape[k]) for k in subs)):
                row = np.ravel_multi_index(a, kept_shape) if kept else 0
                col = np.ravel_multi_index(b, kept_shape) if kept else 0
                out[row, col] += m[rank(a, t), rank(b, t)]
    return out


@st.composite
def gaussian_integer_stacks(draw):
    """A (T, D, D) stack of Gaussian integers on 1-4 factors of dimension 1-3,
    and a subset of the factors; every sum of its entries is exact."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    subs = sorted(draw(st.sets(st.integers(0, len(shape) - 1))))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (t, prod(shape), prod(shape))
    stack = rng.integers(-9, 10, size) + 1j * rng.integers(-9, 10, size)
    return stack, shape, subs


class TestLegRows:
    KERNELS = [(partial_transpose_rows, transpose_oracle), (partial_trace_rows, trace_oracle)]

    @settings(max_examples=40, deadline=None)
    @given(gaussian_integer_stacks())
    def test_rows_equal_the_index_oracle_and_a_stack_of_one(self, case):
        stack, shape, subs = case
        for kernel, oracle in self.KERNELS:
            got = kernel(stack, shape, subs)
            want = np.array([oracle(m, shape, subs) for m in stack])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            for t in range(len(stack)):
                assert got[t].tobytes() == kernel(stack[t : t + 1], shape, subs)[0].tobytes()

    @given(gaussian_integer_stacks())
    def test_scalar_forms_wrap_a_stack_of_one(self, case):
        stack, shape, subs = case
        op = ComplexOperator(stack[0], shape)
        kept = tuple(s for k, s in enumerate(shape) if k not in subs) or (1,)
        for scalar, kernel, out_shape in [
            (partial_transpose, partial_transpose_rows, shape),
            (partial_trace, partial_trace_rows, kept),
        ]:
            out = scalar(op, subs)
            assert out.shape == out_shape
            assert out.matrix.tobytes() == kernel(stack, shape, subs)[0].tobytes()

    @pytest.mark.parametrize("kernel", [partial_transpose_rows, partial_trace_rows])
    @pytest.mark.parametrize("subs", [[0, 0], [2], [-1], [1, 3]])
    def test_bad_subsystems_raise_index_error(self, kernel, subs):
        stack = np.zeros((2, 6, 6), dtype=np.complex128)
        with pytest.raises(IndexError):
            kernel(stack, (2, 3), subs)
        scalar = partial_transpose if kernel is partial_transpose_rows else partial_trace
        with pytest.raises(IndexError):
            scalar(ComplexOperator(stack[0], (2, 3)), subs)

    @pytest.mark.parametrize(
        "kernel, subs, trailing",
        [
            (partial_transpose_rows, (1,), (6, 6)),
            (partial_trace_rows, (1,), (2, 2)),
            (partial_trace_rows, (0, 1), (1, 1)),
        ],
    )
    def test_zero_rows(self, kernel, subs, trailing):
        out = kernel(np.empty((0, 6, 6), dtype=np.complex128), (2, 3), subs)
        assert out.shape == (0,) + trailing


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(identity((4,))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_projector_difference(self, d):
        basis = build_bipartite(d)
        op = ComplexOperator(basis.Pi0.matrix - basis.Pi1.matrix, (d, d))
        assert min_eigenvalue(op) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_transposed_entangled_projector(self, d):
        # the transposed rank-1 entangled projector is the swap over d, with
        # spectrum +/- 1/d
        op = partial_transpose(maximally_entangled(d), {1})
        assert min_eigenvalue(op) == pytest.approx(-1.0 / d, abs=1e-10)

    def test_rejects_non_hermitian(self):
        bad = ComplexOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        with pytest.raises(DomainError):
            min_eigenvalue(bad)

    def test_unitary_invariance(self):
        x = random_operator(6, (6,), 21, hermitian=True)
        for seed in range(5):
            u = random_unitary(6, seed).matrix
            rotated = ComplexOperator(u @ x.matrix @ u.conj().T, (6,))
            assert abs(min_eigenvalue(rotated) - min_eigenvalue(x)) <= 1e-9

    def test_is_psd(self):
        assert is_psd(identity((3,)))
        assert not is_psd(partial_transpose(maximally_entangled(2), {1}))


#: Factors f placing the smallest eigenvalue at -f * PSD_TOL.
LAMBDA_FACTORS = (0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0)


def state_with_lambda_min(unitary, factor, seed):
    """Hermitian unit-trace matrix with smallest eigenvalue -factor * PSD_TOL."""
    dim = unitary.shape[0]
    rest = np.random.default_rng(seed).uniform(0.1, 1.0, dim - 1)
    lam = np.concatenate([[-factor * PSD_TOL], rest * (1.0 + factor * PSD_TOL) / rest.sum()])
    m = (unitary * lam) @ unitary.conj().T
    return ComplexOperator((m + m.conj().T) / 2.0, (dim,))


def assert_psd_verdicts(op, factor, tols=(0.0, PSD_TOL)):
    lam = min_eigenvalue(op)
    verdicts = {tol: is_psd(op, tol) for tol in tols}
    assert verdicts == {tol: lam >= -tol for tol in verdicts}
    # well away from the boundary the verdict is known in advance
    assert verdicts[PSD_TOL] == (factor <= 1.0)


class TestIsPsdCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        K=st.sampled_from([1, 2]),
        factor=st.sampled_from(LAMBDA_FACTORS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigenvalue_verdict(self, d, K, factor, seed):
        u = random_unitary(d ** (2 * K), seed).matrix
        assert_psd_verdicts(state_with_lambda_min(u, factor, seed), factor)

    @pytest.fixture(scope="class")
    def unitary_729(self):
        return random_orthogonal(729, 729).matrix

    @pytest.mark.parametrize("factor", LAMBDA_FACTORS)
    def test_matches_eigenvalue_verdict_dim_729(self, unitary_729, factor):
        # the twirl input size; tol 0 never tries the certificate, see below
        op = state_with_lambda_min(unitary_729, factor, 7)
        assert_psd_verdicts(op, factor, tols=(PSD_TOL,))

    def test_certificate_skips_eigvalsh(self, monkeypatch):
        op = state_with_lambda_min(random_unitary(16, 3).matrix, 0.5, 3)

        def no_eigvalsh(stack):
            raise AssertionError("eigvalsh reached on a certified matrix")

        monkeypatch.setattr(dense_module, "min_eigenvalue_rows", no_eigvalsh)
        assert is_psd(op, PSD_TOL)

    @pytest.mark.parametrize(
        "tol, scale",
        [(0.0, 1.0), (PSD_TOL, 1e7)],
        ids=["tol-zero", "shift-under-rounding-bound"],
    )
    def test_falls_back_to_eigvalsh(self, monkeypatch, tol, scale):
        # at dim 16 the rounding bound 256 * eps * 1e7 = 5.7e-7 exceeds the shift
        op = ComplexOperator(scale * np.eye(16), (16,))
        calls = []
        monkeypatch.setattr(
            dense_module,
            "min_eigenvalue_rows",
            lambda stack: calls.append(stack) or np.full(len(stack), scale),
        )
        assert is_psd(op, tol)
        assert len(calls) == 1 and np.array_equal(calls[0], op.matrix[None])

    def test_non_hermitian_raises_the_eigenvalue_error(self):
        bad = ComplexOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
        with pytest.raises(DomainError) as from_eig:
            min_eigenvalue(bad)
        for tol in (0.0, PSD_TOL):
            with pytest.raises(DomainError) as from_psd:
                is_psd(bad, tol)
            assert str(from_psd.value) == str(from_eig.value)


class TestStackedGate:
    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.sampled_from([4, 16]),
        factors=st.lists(st.sampled_from(LAMBDA_FACTORS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_scalar_verdicts(self, dim, factors, seed):
        u = random_unitary(dim, seed).matrix
        ops = [state_with_lambda_min(u, f, seed + i) for i, f in enumerate(factors)]
        stack = np.array([op.matrix for op in ops])
        for tol in (0.0, PSD_TOL):
            assert is_psd_rows(stack, tol).tolist() == [is_psd(op, tol) for op in ops]
        eig = min_eigenvalue_rows(stack)
        assert np.array_equal(eig, [min_eigenvalue(op) for op in ops])

    @pytest.mark.parametrize("factors", [(0.0, 0.9, 0.3), (0.0, 0.9, 2.0)])
    def test_one_failed_certificate_gives_eigvalsh_verdicts(self, monkeypatch, factors):
        u = random_unitary(16, 5).matrix
        stack = np.array([state_with_lambda_min(u, f, 5).matrix for f in factors])
        # shifted by tol / 2, only the member at -0.9 tol (and one at -2 tol) has no
        # Cholesky factor
        for m, f in zip(stack, factors):
            shifted = (m + m.conj().T) / 2.0 + PSD_TOL / 2 * np.eye(16)
            if f < 0.5:
                np.linalg.cholesky(shifted)
            else:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(shifted)
        calls = []
        eigvalsh = dense_module.min_eigenvalue_rows
        monkeypatch.setattr(
            dense_module, "min_eigenvalue_rows", lambda s: calls.append(s) or eigvalsh(s)
        )
        verdicts = is_psd_rows(stack, PSD_TOL)
        assert len(calls) == 1
        assert verdicts.tolist() == (eigvalsh(stack) >= -PSD_TOL).tolist()
        assert verdicts.tolist() == [f <= 1.0 for f in factors]

    def test_non_hermitian_member_raises_the_eigenvalue_error(self):
        stack = np.array([np.eye(2) / 2.0, [[0.5, 1.0], [0.0, 0.5]], np.eye(2) / 2.0])
        with pytest.raises(DomainError) as from_eig:
            min_eigenvalue(ComplexOperator(stack[1], (2,)))
        for call in (min_eigenvalue_rows, is_psd_rows):
            with pytest.raises(DomainError) as from_rows:
                call(stack)
            assert str(from_rows.value) == str(from_eig.value)


class TestRandomSampling:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_orthogonal_properties(self, d):
        o = random_orthogonal(d, 42).matrix
        assert np.abs(o.imag).max() == 0.0
        assert np.abs(o.T @ o - np.eye(d)).max() <= 1e-12
        assert abs(abs(np.linalg.det(o.real)) - 1.0) <= 1e-10

    def test_orthogonal_deterministic(self):
        a = random_orthogonal(3, 7).matrix
        b = random_orthogonal(3, 7).matrix
        c = random_orthogonal(3, 8).matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_orthogonal_d1_is_sign(self):
        vals = {float(random_orthogonal(1, s).matrix.real[0, 0]) for s in range(20)}
        assert vals <= {-1.0, 1.0}
        assert len(vals) == 2

    def test_unitary_properties(self):
        u = random_unitary(4, 3).matrix
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_unit_vector_norm(self, field):
        v = random_unit_vector(7, field, 5)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(v.conj()) - 1.0) <= 1e-14
        if field == "real":
            assert not np.iscomplexobj(v)

    def test_unit_vector_d1_real(self):
        assert float(abs(random_unit_vector(1, "real", 0)[0])) == pytest.approx(1.0)

    def test_unit_vector_deterministic(self):
        assert np.array_equal(
            random_unit_vector(4, "complex", 9), random_unit_vector(4, "complex", 9)
        )


class TestOperatorType:
    def test_shape_product_must_match(self):
        with pytest.raises(ValueError):
            ComplexOperator(np.eye(4), (2, 3))
        with pytest.raises(ValueError):
            ComplexOperator(np.ones((2, 3)), (6,))

    def test_matrix_is_read_only(self):
        op = identity((2,))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_json_roundtrip(self):
        op = random_operator(6, (2, 3), 13)
        back = ComplexOperator.from_json(op.to_json())
        assert np.array_equal(back.matrix, op.matrix)
        assert back.shape == op.shape

    def test_from_json_keeps_each_part_bit_for_bit(self):
        # re + 1j * im would turn these -0.0 parts into 0.0, and the infinite
        # imaginary part into a NaN real part
        re, im = [-0.0, 0.5, -0.0, 1.0], [-0.0, -0.0, 0.25, float("inf")]
        m = ComplexOperator.from_json({"dim": 2, "shape": [2], "re": re, "im": im}).matrix
        assert m.real.tobytes() == np.array(re).tobytes()
        assert m.imag.tobytes() == np.array(im).tobytes()

    def test_pure_state_projector(self):
        v = random_unit_vector(3, "complex", 2)
        p = pure_state_projector(v)
        assert p.trace() == pytest.approx(1.0, abs=1e-14)
        assert np.abs(p.matrix @ p.matrix - p.matrix).max() <= 1e-14
