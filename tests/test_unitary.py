from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repvar.presentation import ConjugacyClassSpec
from repvar.unitary import (
    BranchCutError,
    _basis_terms,
    ad_basis,
    ad_matrix,
    adjoint_action,
    charpoly_coefficients,
    charpoly_stack,
    class_distance,
    class_of,
    class_residual,
    diagonal_model,
    exponential,
    haar_from_rng,
    haar_sample,
    haar_stack,
    inner_product,
    is_skew_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    principal_log,
    random_skew,
    shown,
    skew_basis,
    unvec_skew,
    vec_skew,
)

from oracles import (einsum_ad_basis, einsum_ad_matrix, einsum_unvec_skew, einsum_vec_skew,
                     newton_charpoly, newton_charpoly_directions, schur_log)


def test_exponential_zero_is_identity():
    assert np.allclose(exponential(np.zeros((3, 3))), np.eye(3))


def test_exponential_scalar():
    x = np.array([[0.5j * np.pi]])
    assert np.allclose(exponential(x), np.array([[1j]]))


def test_exponential_log_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        x = random_skew(rng, n)
        nrm = np.linalg.norm(x)
        if nrm > 2.0:
            x *= 2.0 / nrm
        # eigenangle magnitudes are below pi at this scale
        g = exponential(x)
        assert np.linalg.norm(principal_log(g) - x) <= 1e-9


def test_exponential_unitarity_margin():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g = exponential(random_skew(rng, n))
        assert np.linalg.norm(g.conj().T @ g - np.eye(n)) <= 1e-12


def test_principal_log_identity_and_diagonal():
    assert np.allclose(principal_log(np.eye(2)), 0)
    g = np.diag([np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    x = principal_log(g)
    assert np.allclose(sorted(np.linalg.eigvalsh(-1j * x)), [-2 * np.pi / 3, 2 * np.pi / 3])
    assert np.allclose(exponential(x), g)


def test_principal_log_branch_cut():
    with pytest.raises(BranchCutError):
        principal_log(np.array([[-1.0 + 0j]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, 5]),
       st.sampled_from(["haar", "near_identity", "repeated", "near_cut"]),
       st.integers(0, 2 ** 32 - 1))
def test_principal_log_matches_schur_oracle(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "haar":
        g = haar_from_rng(rng, n)
    elif kind == "near_identity":
        g = exponential(random_skew(rng, n, 10.0 ** rng.uniform(-8, -1)))
    else:
        angles = rng.uniform(-np.pi, np.pi, n)
        if kind == "repeated":  # twice at N = 2, 3; three times at N = 5
            angles[1:max(2, n // 2 + 1)] = angles[0]
        else:  # on the cut, or clear of unitary.ANGLE_TOL (1e-8) on either side
            angles[0] = np.pi - rng.choice([0.0, 0.5, 2.0, 100.0]) * 1e-8
        u = haar_from_rng(rng, n)
        g = (u * np.exp(1j * angles)) @ u.conj().T
    try:
        want = schur_log(g)
    except BranchCutError:
        with pytest.raises(BranchCutError):
            principal_log(g)
        return
    # g's entries carry absolute rounding, which fixes its log to absolute
    # precision only: relative to |log g| where that is above 1
    assert np.linalg.norm(principal_log(g) - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def test_adjoint_identity():
    x = random_skew(np.random.default_rng(0), 2)
    assert np.allclose(adjoint_action(np.eye(2), x), x)


def test_adjoint_preserves_inner_product():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g = haar_from_rng(rng, n)
        x, y = random_skew(rng, n), random_skew(rng, n)
        lhs = inner_product(adjoint_action(g, x), adjoint_action(g, y))
        assert abs(lhs - inner_product(x, y)) <= 1e-10


def test_adjoint_homomorphism():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        g, h = haar_from_rng(rng, n), haar_from_rng(rng, n)
        x = random_skew(rng, n)
        lhs = adjoint_action(g @ h, x)
        rhs = adjoint_action(g, adjoint_action(h, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_inner_product_examples():
    assert inner_product(np.array([[1j]]), np.array([[1j]])) == pytest.approx(1.0)
    x = np.diag([1j, -1j])
    y = np.diag([1j, 1j])
    assert inner_product(x, y) == pytest.approx(0.0)


def test_inner_product_positive_definite_on_u2():
    rng = np.random.default_rng(14)
    mats = [random_skew(rng, 2) for _ in range(4)]
    gram = np.array([[inner_product(a, b) for b in mats] for a in mats])
    assert np.all(np.linalg.eigvalsh(gram) > 0)


def test_skew_basis_orthonormal():
    for n in (1, 2, 3):
        basis = skew_basis(n)
        assert basis.shape == (n * n, n, n)
        for a in range(n * n):
            assert is_skew_hermitian(basis[a])
            for b in range(n * n):
                assert inner_product(basis[a], basis[b]) == pytest.approx(float(a == b), abs=1e-12)


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3):
        x = random_skew(rng, n)
        assert np.allclose(unvec_skew(vec_skew(x), n), x)
        v = rng.standard_normal(n * n)
        assert np.allclose(vec_skew(unvec_skew(v, n)), v)
        # a stack is converted matrix by matrix, with the same arithmetic
        xs = np.array([random_skew(rng, n) for _ in range(3)])
        vs = rng.standard_normal((3, n * n))
        assert np.array_equal(vec_skew(xs), np.array([vec_skew(m) for m in xs]))
        assert np.array_equal(unvec_skew(vs, n), np.array([unvec_skew(w, n) for w in vs]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unvec_skew_is_bitwise_the_einsum(n):
    # one real gemm against the interleaved basis, against the einsum on the
    # complex basis: every part of an entry has one nonzero term, so both
    # agree bitwise, zero signs included, for one vector, empty stacks and
    # stacks with leading axes
    rng = np.random.default_rng(n)
    for shape in [(), (0,), (1,), (7,), (3, 4), (2, 0), (5, 1, 3)]:
        v = rng.standard_normal(shape + (n * n,))
        v[..., ::3] = 0.0
        got, want = unvec_skew(v, n), einsum_unvec_skew(v, n)
        assert got.shape == want.shape == shape + (n, n)
        assert got.tobytes() == want.tobytes()


def test_skew_basis_matrices_have_two_pure_entries():
    # the premise of the sparse basis kernels: at most two nonzero entries
    # per basis matrix, each purely real or purely imaginary, and the term
    # table lists exactly those entries (a diagonal direction's second slot
    # repeats its position with the value 0)
    for n in range(1, 9):
        basis = skew_basis(n)
        for m in basis:
            nonzero = m[m != 0]
            assert 1 <= len(nonzero) <= 2
            assert np.all((nonzero.real == 0) | (nonzero.imag == 0))
        rows, cols, vals = _basis_terms(n)
        assert rows.shape == cols.shape == vals.shape == (2 * n * n,)
        rebuilt = np.zeros_like(basis)
        for s, (r, c, v) in enumerate(zip(rows, cols, vals)):
            rebuilt[s % (n * n), r, c] += v
        assert rebuilt.tobytes() == basis.tobytes()


def _kernel_inputs(rng, shape):
    """Complex arrays of the given shape (..., n, n) that stress rounding
    and zero signs: Gaussian entries, exact and signed zeros mixed in,
    small integers, subnormals and identities."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zeros = z.copy()
    zeros[rng.random(shape) < 0.4] = 0.0
    zeros.real[rng.random(shape) < 0.3] = -0.0
    zeros.imag[rng.random(shape) < 0.3] = -0.0
    ints = np.round(2 * z)
    ints.real[ints.real == 0] = -0.0
    eye = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
    return [z, zeros, ints, z * 1e-310, zeros * 5e-324, eye, -eye]


@pytest.mark.parametrize("n", range(1, 9))
def test_vec_skew_is_bitwise_the_einsum(n):
    # two gathered products per coordinate, summed from +0.0, against the
    # einsum over the dense basis: one matrix and stacks with leading axes
    rng = np.random.default_rng(60 + n)
    for shape in [(), (0,), (3,), (2, 3)]:
        for x in _kernel_inputs(rng, shape + (n, n)):
            got, want = vec_skew(x), einsum_vec_skew(x)
            assert got.shape == want.shape == shape + (n * n,)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_ad_basis_and_ad_matrix_are_bitwise_the_einsums(n):
    # the sparse conjugation of every basis matrix against the three-operand
    # einsum, and ad_matrix against the two-einsum form, on unitaries and on
    # non-unitary inputs; ad_matrix of a stack is the stack of ad_matrix
    rng = np.random.default_rng(70 + n)
    haar = np.array([haar_from_rng(rng, n) for _ in range(3)])
    for p in [haar, np.eye(n, dtype=complex)[None]] + _kernel_inputs(rng, (3, n, n)):
        got = ad_basis(p)
        assert got.shape == (len(p), n * n, n, n)
        assert got.tobytes() == einsum_ad_basis(p).tobytes()
        for g in p:
            assert ad_matrix(g).tobytes() == einsum_ad_matrix(g).tobytes()
        stacked = ad_matrix(p[None])
        assert stacked.shape == (1, len(p), n * n, n * n)
        assert stacked.tobytes() == np.array([[einsum_ad_matrix(g) for g in p]]).tobytes()
    assert ad_basis(np.zeros((0, n, n), dtype=complex)).shape == (0, n * n, n, n)


def test_ad_matrix_is_orthogonal():
    rng = np.random.default_rng(16)
    g = haar_from_rng(rng, 3)
    a = ad_matrix(g)
    assert np.allclose(a.T @ a, np.eye(9), atol=1e-12)
    x = random_skew(rng, 3)
    assert np.allclose(a @ vec_skew(x), vec_skew(adjoint_action(g, x)))


def test_class_of_examples():
    assert class_of(np.eye(2)).angles == (0.0, 0.0)
    g = np.diag([np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    spec = class_of(g)
    assert np.allclose(spec.as_floats(), (1 / 3, 2 / 3))


def test_class_of_conjugation_invariant():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g, h = haar_from_rng(rng, n), haar_from_rng(rng, n)
        d = class_distance(class_of(h @ g @ h.conj().T), class_of(g))
        assert d <= 1e-9


def test_class_residual_examples():
    spec = ConjugacyClassSpec([0.2, 0.7])
    assert class_residual(diagonal_model(spec), spec) == pytest.approx(0.0, abs=1e-14)
    # N=1: characteristic polynomial gap between 1 and -1 is 2
    assert class_residual(np.array([[1.0 + 0j]]), ConjugacyClassSpec([0.5])) == pytest.approx(2.0)


def test_charpoly_directions_match_finite_differences():
    rng = np.random.default_rng(22)
    eps = 1e-7
    for n in (1, 2, 3):
        g = haar_from_rng(rng, n)
        dgs = np.stack([
            random_skew(rng, n, 0.5) @ g for _ in range(5)
        ])
        (c,), (dc,) = charpoly_stack(g[None], dgs[None])
        assert np.allclose(c, charpoly_coefficients(g))
        for a in range(5):
            fd = (charpoly_coefficients(g + eps * dgs[a]) - c) / eps
            assert np.linalg.norm(fd - dc[a]) <= 1e-5


def test_charpoly_coefficients_match_directions_bitwise():
    # the coefficient-only path makes the scalar operations of the
    # directional one, and of the written-out recursion, in the same order:
    # bitwise the same coefficients, on regular classes and on a class with
    # a repeated eigenvalue
    mats = [haar_sample(n, seed) for n in range(1, 7) for seed in range(4)]
    mats.append(diagonal_model(ConjugacyClassSpec([Fraction(1, 5), Fraction(2, 5),
                                                   Fraction(-3, 5)])))
    for g in mats:
        c = charpoly_coefficients(g)
        want = charpoly_stack(g[None], np.zeros((1, 0) + g.shape, dtype=complex))[0][0]
        assert c.shape == want.shape and c.dtype == want.dtype
        assert c.tobytes() == want.tobytes() == newton_charpoly(g).tobytes()
        assert np.max(np.abs(c - np.poly(np.linalg.eigvals(g))[1:])) <= 1e-12


def test_charpoly_stack_rows_are_bitwise_the_per_matrix_recursion():
    # random stacks of 1-9 unitaries at N = 1..5, with 1-59 directions each:
    # every row of the stacked coefficients and derivatives is bitwise the
    # one-matrix recursion (its own "ij,aji->a" einsum per power and its own
    # scalar Newton recursion), and class_residual, which reads one row, is
    # bitwise the norm of the oracle's gap.  The stacked einsum and the
    # Newton recursion on arrays are not bitwise; the kernel's docstring
    # keeps the counts that showed it
    assert "pij,paji->pa" in charpoly_stack.__doc__ and "(P,) arrays" in charpoly_stack.__doc__
    rng = np.random.default_rng(34)
    for n in range(1, 6):
        for size in (1, 9, *rng.integers(1, 10, size=6)):
            m = int(rng.integers(1, 60))
            gs = np.array([haar_from_rng(rng, n) for _ in range(size)])
            dgs = np.array([[random_skew(rng, n) @ g for _ in range(m)] for g in gs])
            c, dc = charpoly_stack(gs, dgs)
            assert c.shape == (size, n) and dc.shape == (size, m, n)
            assert charpoly_stack(gs).tobytes() == c.tobytes()
            for g, dg, row, drow in zip(gs, dgs, c, dc):
                want, dwant = newton_charpoly_directions(g, dg)
                assert row.tobytes() == want.tobytes() == newton_charpoly(g).tobytes()
                assert drow.tobytes() == dwant.tobytes()
            spec = ConjugacyClassSpec([Fraction(int(k), 12) for k in rng.integers(0, 12, n)])
            gap = newton_charpoly(gs[0]) - newton_charpoly(diagonal_model(spec))
            assert class_residual(gs[0], spec) == float(np.linalg.norm(gap))
    c, dc = charpoly_stack(np.zeros((0, 3, 3), complex), np.zeros((0, 7, 3, 3), complex))
    assert c.shape == (0, 3) and dc.shape == (0, 7, 3)


def test_class_residual_conjugation_invariant():
    rng = np.random.default_rng(18)
    spec = ConjugacyClassSpec([0.1, 0.4, 0.8])
    g = haar_from_rng(rng, 3)
    base = class_residual(g, spec)
    for _ in range(50):
        h = haar_from_rng(rng, 3)
        assert abs(class_residual(h @ g @ h.conj().T, spec) - base) <= 1e-10


def test_haar_determinism_and_unitarity():
    assert np.array_equal(haar_sample(2, 42), haar_sample(2, 42))
    assert not np.array_equal(haar_sample(2, 42), haar_sample(2, 43))
    rng = np.random.default_rng(19)
    for _ in range(1000):
        assert is_unitary(haar_from_rng(rng, 2))


def test_haar_stack_is_bitwise_one_draw_and_qr_per_sample():
    # find draws the Haar factors of all its generators in one stack:
    # sample i is bitwise the i-th of consecutive one-matrix draws (real
    # part, imaginary part, one QR, the R-diagonal phases), and the
    # generator is left in the same state
    def one_sample(rng, n):
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    for n in range(1, 6):
        for count in (0, 1, 4, 9):
            loop, stacked = np.random.default_rng(n), np.random.default_rng(n)
            want = np.array([one_sample(loop, n) for _ in range(count)], dtype=complex)
            got = haar_stack(stacked, count, n)
            assert got.tobytes() == want.reshape(count, n, n).tobytes()
            assert loop.standard_normal() == stacked.standard_normal()
        rng = np.random.default_rng(n)
        assert haar_from_rng(rng, n).tobytes() == one_sample(np.random.default_rng(n), n).tobytes()


def test_haar_mean_is_zero():
    rng = np.random.default_rng(20)
    total = np.zeros((2, 2), dtype=complex)
    for _ in range(10_000):
        total += haar_from_rng(rng, 2)
    assert np.max(np.abs(total / 10_000)) <= 0.05


def test_centralizer_complement_dimensions():
    # complement of Im(Id - Ad g): N for a regular class, N^2 for a scalar class
    for n in (2, 3):
        spec = ConjugacyClassSpec([(k + 1) / 7 for k in range(n)])
        a = ad_matrix(diagonal_model(spec))
        s = np.linalg.svd(np.eye(n * n) - a, compute_uv=False)
        assert int(np.sum(s < 1e-10)) == n
        scalar = ConjugacyClassSpec([0.3] * n)
        a = ad_matrix(diagonal_model(scalar))
        s = np.linalg.svd(np.eye(n * n) - a, compute_uv=False)
        assert int(np.sum(s < 1e-10)) == n * n


def test_matrix_json_round_trip():
    rng = np.random.default_rng(21)
    g = haar_from_rng(rng, 3)
    assert np.array_equal(matrix_from_json(matrix_to_json(g)), g)
    with pytest.raises(ValueError):
        matrix_from_json([[{"re": 1.0}]])


def test_matrix_entry_parts_are_json_numbers():
    # an integer within the float range is a number; a boolean and an
    # integer past the float range are not
    assert np.array_equal(matrix_from_json([[{"re": 1, "im": -2}]]), [[1 - 2j]])
    for part in (True, 10 ** 400):
        for entry in ({"re": part, "im": 0.0}, {"re": 0.0, "im": part}):
            with pytest.raises(ValueError, match="must be a number"):
                matrix_from_json([[entry]])


def test_rejected_values_are_shown_short():
    # a repr of at most 40 characters as it is; past that an integer's digit
    # count, and any other value's first 40 characters
    for value in (True, 2.7, "2", None, 10 ** 39, -10 ** 38):
        assert shown(value) == repr(value)
    assert shown(10 ** 400) == "<401-digit integer>"
    assert shown(-10 ** 40) == "<41-digit integer>"
    assert shown("x" * 100) == repr("x" * 100)[:40] + "..."
    assert shown([0.5] * 1000) == repr([0.5] * 1000)[:40] + "..."
