import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from repvar.truncring import (
    IncrementalExp,
    MatrixJet,
    exp_series,
    log_series,
    product_coefficient,
    unitary_generator_jet,
    word_jet,
)
from repvar.unitary import haar_from_rng, random_skew

from oracles import PerDegreeExp, cauchy_product, exp_weights, log_weights, power_series

# Kernel properties against the naive ring oracle.  Each entry must agree
# within KERNEL_RTOL of the same computation on absolute values, which
# bounds the rounding of any summation order.
KERNEL_RTOL = 1e-12
kernel_cases = settings(max_examples=40, deadline=None, derandomize=True)
orders = st.integers(0, 30)
ranks = st.integers(1, 5)
seeds = st.integers(0, 2 ** 32 - 1)
scales = st.sampled_from([1e-3, 1.0, 3.0])


def random_jet(rng, n, order, scale=1.0):
    shape = (order + 1, n, n)
    return MatrixJet(scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


def nilpotent_jet(seed, n, order, scale):
    """Random jet with zero constant term."""
    s = random_jet(np.random.default_rng(seed), n, order, scale)
    s.coeffs[0] = 0.0
    return s


def assert_within(got, want, bound):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= KERNEL_RTOL * np.abs(bound))


@kernel_cases
@given(orders, ranks, seeds, scales)
def test_product_matches_cauchy_oracle(order, n, seed, scale):
    rng = np.random.default_rng(seed)
    a, b = (random_jet(rng, n, order, scale) for _ in range(2))
    assert_within((a @ b).coeffs, cauchy_product(a.coeffs, b.coeffs),
                  cauchy_product(np.abs(a.coeffs), np.abs(b.coeffs)))


@kernel_cases
@given(orders, ranks, seeds, scales)
def test_exp_matches_power_series_oracle(order, n, seed, scale):
    s = nilpotent_jet(seed, n, order, scale)
    weights = exp_weights(order)
    assert_within(exp_series(s).coeffs, power_series(s.coeffs, weights),
                  power_series(np.abs(s.coeffs), weights))


@kernel_cases
@given(orders, ranks, seeds, scales)
def test_log_matches_power_series_oracle(order, n, seed, scale):
    m = nilpotent_jet(seed, n, order, scale)
    weights = log_weights(order)
    j = m + MatrixJet.identity(n, order)
    assert_within(log_series(j).coeffs, power_series(m.coeffs, weights),
                  power_series(np.abs(m.coeffs), np.abs(weights)))


@kernel_cases
@given(st.integers(0, 15), ranks, seeds)
def test_product_truncates_the_full_product(order, n, seed):
    # degrees above the order are dropped, never folded back into lower ones
    rng = np.random.default_rng(seed)
    a, b = (random_jet(rng, n, order) for _ in range(2))
    pad = np.zeros((order, n, n))
    full = MatrixJet(np.concatenate([a.coeffs, pad])) @ MatrixJet(np.concatenate([b.coeffs, pad]))
    assert_within((a @ b).coeffs, full.coeffs[:order + 1],
                  cauchy_product(np.abs(a.coeffs), np.abs(b.coeffs)))


def test_order_zero_ring_is_the_matrix_ring():
    rng = np.random.default_rng(45)
    for n in range(1, 6):
        a, b = (random_jet(rng, n, 0) for _ in range(2))
        assert np.array_equal((a @ b).coeffs, (a.coeff(0) @ b.coeff(0))[None])
        assert np.array_equal(exp_series(MatrixJet(np.zeros((1, n, n)))).coeffs,
                              np.eye(n)[None])
        bases = np.array([haar_from_rng(rng, n) for _ in range(3)])
        assert np.array_equal(IncrementalExp(bases, 0).jets(np.zeros((3, 0, n, n))),
                              bases[:, None])
        assert np.array_equal(log_series(MatrixJet.identity(n, 0)).coeffs,
                              np.zeros((1, n, n)))


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
    a = MatrixJet(np.array([0.0, 1.0]).reshape(2, 1, 1))  # t
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
    # the log inverts the exponential kernel degree by degree, so it undoes it
    # to rounding at high order too
    for n in (1, 2, 3):
        for _ in range(4):
            s = nilpotent_jet(int(rng.integers(2 ** 32)), n, 30, 0.4)
            back = log_series(exp_series(s))
            assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-13 * np.max(np.abs(s.coeffs))


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


@kernel_cases
@given(st.integers(1, 12), ranks, seeds, st.sampled_from([1e-3, 0.5, 2.0]), st.integers(1, 3),
       st.integers(1, 3))
def test_incremental_exp_matches_stacked_generator_jets(order, n, seed, scale, count, samples):
    # calls of every degree up to the cache order, each after an edit of one
    # random degree, of the whole stack or of one series of one sample, and of
    # every entry or of one: the cached powers must follow the series exactly,
    # as a fresh state (the exponential test_exp_matches_power_series_oracle
    # checks), and low must be the lowest degree edited since a call last
    # read it, or the first degree the state never formed if that is lower
    rng = np.random.default_rng(seed)
    bases = np.array([haar_from_rng(rng, n) for _ in range(count)])
    batch = samples * count
    series = scale * (rng.standard_normal((batch, order, n, n))
                      + 1j * rng.standard_normal((batch, order, n, n)))
    state = IncrementalExp(bases, order, samples)
    unread = set(range(1, order + 1))  # the state starts from zero series
    formed = 0
    for _ in range(3 * order):
        m = int(rng.integers(1, order + 1))
        d = int(rng.integers(0, order))
        rows = slice(None) if rng.random() < 0.5 else int(rng.integers(batch))
        entry = (slice(None),) * 2 if rng.random() < 0.5 else tuple(rng.integers(n, size=2))
        series[(rows, d) + entry] += scale * rng.standard_normal(series[(rows, d) + entry].shape)
        unread.add(d + 1)
        got = state.jets(series[:, :m])
        first = min((e for e in unread if e <= m), default=m + 1)
        assert state.low == min(first, formed + 1)
        unread -= set(range(1, m + 1))
        formed = max(min(formed, first - 1), m)
        want = IncrementalExp(bases, m, samples).jets(series[:, :m])
        bound = np.abs(IncrementalExp(np.abs(bases), m, samples).jets(np.abs(series[:, :m])))
        assert_within(got, want, bound)
    with pytest.raises(ValueError):
        state.jets(np.zeros((batch, order + 1, n, n)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("samples", [1, 3, 17, 64])
def test_stacked_exponential_is_bitwise_per_sample(n, samples):
    # one exponential over samples x series, whose E_d @ base is one gemm
    # per series with the samples as rows, against one exponential per
    # sample, driven as a lift drives it: every call adds a degree, and the
    # last degree or the last two are edited.  Bitwise at every degree of
    # every call, at cache orders 0..8, and the same low.  The gemms have
    # samples * n rows, 1 to 192, so both the BLAS's main kernel and its
    # tail rows are reached
    rng = np.random.default_rng(n)
    count = 3
    bases = np.array([haar_from_rng(rng, n) for _ in range(count)])
    for order in range(9):
        stacked = IncrementalExp(bases, order, samples)
        singles = [IncrementalExp(bases, order) for _ in range(samples)]
        series = np.zeros((samples, count, order, n, n), dtype=complex)
        for m in range(order + 1):
            got = stacked.jets(series[:, :, :m].reshape(samples * count, m, n, n))
            got = got.reshape(samples, count, m + 1, n, n)
            for s, single in enumerate(singles):
                assert got[s].tobytes() == single.jets(series[s, :, :m]).tobytes()
                assert stacked.low == single.low
            for d in range(max(m - 1, 1), min(m + 1, order) + 1):
                if d == m + 1 or rng.random() < 0.5:
                    series[:, :, d - 1] += rng.standard_normal((samples, count, n, n)) \
                        + 1j * rng.standard_normal((samples, count, n, n))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("samples", [1, 2, 17, 64])
def test_one_store_per_call_is_bitwise_the_per_degree_store(n, samples):
    # the store of degrees lo..m in one gemm per series, the rows of every
    # degree merged, against one gemm per series and degree d, driven as a
    # lift drives it: every call adds a degree, and between calls the
    # last degree, the last two or the one before the last (the cone-kernel
    # rescue's edit) change, in every sample or in some.  Bitwise at every
    # degree of every call, at cache orders 0, 1, 2 and 30, and the same low
    rng = np.random.default_rng(20 + n)
    count = 3
    bases = np.array([haar_from_rng(rng, n) for _ in range(count)])
    batch = samples * count
    for order in (0, 1, 2, 30):
        ours, oracle = IncrementalExp(bases, order, samples), PerDegreeExp(bases, order, samples)
        series = np.zeros((batch, order, n, n), dtype=complex)
        for m in range(order + 1):
            got, want = ours.jets(series[:, :m]), oracle.jets(series[:, :m])
            assert got.tobytes() == want.tobytes()
            assert ours.low == oracle.low
            if m == order:
                break
            # series[:, d] is degree d + 1; degree m + 1 is new to the next call
            edited = ([m - 1], [m - 2, m - 1], [m - 2])[int(rng.integers(3))] if m > 1 else [0]
            if rng.random() < 0.25:
                edited.append(m)
            rows = slice(None) if rng.random() < 0.5 else rng.random(batch) < 0.5
            for d in edited:
                series[rows, d] += rng.standard_normal(series[rows, d].shape) \
                    + 1j * rng.standard_normal(series[rows, d].shape)


@kernel_cases
@given(orders, ranks, seeds, scales)
def test_product_coefficient_is_a_coefficient_of_the_product(order, n, seed, scale):
    rng = np.random.default_rng(seed)
    a, b = (random_jet(rng, n, order, scale) for _ in range(2))
    full = (a @ b).coeffs
    bound = cauchy_product(np.abs(a.coeffs), np.abs(b.coeffs))
    for m in range(order + 1):
        assert_within(product_coefficient(a.coeffs, b.coeffs, m), full[m], bound[m])
