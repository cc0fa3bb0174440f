import numpy as np
import pytest

from repvar.presentation import ConjugacyClassSpec
from repvar.unitary import (
    BranchCutError,
    ad_matrix,
    adjoint_action,
    class_distance,
    class_of,
    class_residual,
    diagonal_model,
    exponential,
    haar_from_rng,
    haar_sample,
    inner_product,
    is_skew_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    principal_log,
    random_skew,
    skew_basis,
    unvec_skew,
    vec_skew,
)


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
    from repvar.unitary import charpoly_coefficients, charpoly_directions

    rng = np.random.default_rng(22)
    eps = 1e-7
    for n in (1, 2, 3):
        g = haar_from_rng(rng, n)
        dgs = np.stack([
            random_skew(rng, n, 0.5) @ g for _ in range(5)
        ])
        c, dc = charpoly_directions(g, dgs)
        assert np.allclose(c, charpoly_coefficients(g))
        for a in range(5):
            fd = (charpoly_coefficients(g + eps * dgs[a]) - c) / eps
            assert np.linalg.norm(fd - dc[a]) <= 1e-5


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
