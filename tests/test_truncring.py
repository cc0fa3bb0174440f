import numpy as np

from repvar.truncring import (
    MatrixJet,
    exp_series,
    log_series,
    unitary_generator_jet,
    word_jet,
)
from repvar.unitary import haar_from_rng, random_skew


def random_jet(rng, n, order):
    return MatrixJet(rng.standard_normal((order + 1, n, n))
                     + 1j * rng.standard_normal((order + 1, n, n)))


def test_scalar_ring_laws():
    # 1 x 1 matrix jets are the commutative ring C[t]/(t^(k+1))
    rng = np.random.default_rng(40)
    for _ in range(50):
        k = int(rng.integers(0, 7))
        a, b, c = (random_jet(rng, 1, k) for _ in range(3))
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13
        assert np.max(np.abs((a @ b).coeffs - (b @ a).coeffs)) <= 1e-13


def test_scalar_truncation():
    a = MatrixJet.from_series([np.ones((1, 1))], 1, 1)   # t
    b = a @ a                                              # t^2 truncated at order 1
    assert np.array_equal(b.coeffs.ravel(), [0.0, 0.0])


def test_matrix_ring_associativity():
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = int(rng.integers(0, 7))
        n = int(rng.integers(1, 4))
        a, b, c = (random_jet(rng, n, k) for _ in range(3))
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        scale = max(1.0, np.max(np.abs(lhs.coeffs)))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale <= 1e-13


def test_unitarity_over_the_ring():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        base = haar_from_rng(rng, n)
        jets = [random_skew(rng, n, 0.5) for _ in range(4)]
        j = unitary_generator_jet(base, jets, 4)
        prod = j.dagger() @ j
        expected = MatrixJet.identity(n, 4)
        assert np.max(np.abs(prod.coeffs - expected.coeffs)) <= 1e-12


def test_exp_log_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        s = random_jet(rng, n, k)
        s.coeffs[0] = 0.0
        back = log_series(exp_series(s))
        assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-10


def test_word_jet_constant_when_jets_vanish():
    rng = np.random.default_rng(44)
    n = 2
    mats = [haar_from_rng(rng, n) for _ in range(2)]
    jets = [unitary_generator_jet(m, [], 3) for m in mats]
    word = ((0, 1), (1, -1), (0, -1), (1, 1))
    w = word_jet(jets, word, 3, n)
    value = mats[0] @ mats[1].conj().T @ mats[0].conj().T @ mats[1]
    assert np.allclose(w.coeff(0), value)
    assert np.max(np.abs(w.coeffs[1:])) == 0.0
