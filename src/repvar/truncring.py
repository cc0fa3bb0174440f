"""Exact arithmetic over the truncated polynomial rings R[t]/(t^(k+1)).

Coefficients are complex matrices, 1 x 1 ones giving the scalar ring
C[t]/(t^(k+1)); multiplication is the Cauchy convolution with degrees above
the truncation order discarded.  Left multiplication by a jet is a block
lower-triangular Toeplitz matrix acting on the stacked coefficients, so a
product is one dense matrix product (gemm).  Exponential and logarithm
series are finite sums here because their arguments have zero constant
term (resp. constant term one).

:class:`IncrementalExp` is the one series kernel: exp(S) @ base for a stack
of series that grows or changes degree by degree, as in a lift.  It caches
the coefficients of the powers and re-forms only from the lowest degree
that changed; :func:`unitary_generator_jet` and :func:`exp_series` are one
call of a fresh one, and :func:`log_series` is its inverse, solved for one
degree per call.  :func:`product_coefficient` forms one coefficient of a
product alone.

A jet may carry leading stack axes, coefficients (..., k+1, n, n): products
and coefficients then act row by row, so :func:`word_jet` evaluates a word
for a whole stack of samples at once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np


class MatrixJet:
    """Matrix with entries in R[t]/(t^(k+1)), stored as coefficients (k+1, n, n),
    or (..., k+1, n, n) for a stack of them."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def constant(cls, mat: np.ndarray, order: int) -> "MatrixJet":
        n = mat.shape[0]
        c = np.zeros((order + 1, n, n), dtype=complex)
        c[0] = mat
        return cls(c)

    @classmethod
    def identity(cls, n: int, order: int) -> "MatrixJet":
        return cls.constant(np.eye(n, dtype=complex), order)

    @property
    def order(self) -> int:
        return self.coeffs.shape[-3] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def coeff(self, m: int) -> np.ndarray:
        return self.coeffs[..., m, :, :]

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(self.coeffs - other.coeffs)

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        # one gather of the Toeplitz matrices of left multiplication by every
        # jet of the stack, then one (batched) gemm
        shape = self.coeffs.shape
        k1, n = shape[-3], shape[-2]
        flat = np.concatenate([self.coeffs.ravel(), _ZERO])
        toeplitz = flat[_toeplitz_index(shape[:-3], k1, n)]
        out = toeplitz @ other.coeffs.reshape(other.coeffs.shape[:-3] + (k1 * n, -1))
        return MatrixJet(out.reshape(out.shape[:-2] + (k1, n, -1)))

    def dagger(self) -> "MatrixJet":
        """Coefficient-wise conjugate transpose; the ring inverse of a unitary jet."""
        return MatrixJet(self.coeffs.swapaxes(-1, -2).conj())

    def __repr__(self) -> str:
        return f"MatrixJet(order={self.order}, n={self.n})"


_ZERO = np.zeros(1, dtype=complex)  # appended to flattened coefficients


@lru_cache(maxsize=128)
def _toeplitz_index(lead: tuple, k1: int, n: int) -> np.ndarray:
    """Position of entry (p n + i, q n + j) of the Toeplitz matrix of each jet
    of a stack of shape lead in the flattened coefficients of the stack:
    entry (i, j) of that jet's a_(p-q), or the appended zero."""
    rows = math.prod(lead)
    r, p, i, q, j = np.ogrid[:rows, :k1, :n, :k1, :n]
    lag = p - q
    index = np.where(lag >= 0, ((r * k1 + lag) * n + i) * n + j, rows * k1 * n * n)
    index = index.reshape(lead + (k1 * n, k1 * n))
    index.setflags(write=False)  # shared by every caller
    return index


def exp_series(s: MatrixJet) -> MatrixJet:
    """exp of a jet with zero constant term: the finite sum of s^j / j!."""
    if np.any(s.coeffs[0] != 0):
        raise ValueError("exp_series needs a jet with zero constant term")
    return unitary_generator_jet(np.eye(s.n), s.coeffs[1:], s.order)


def log_series(j: MatrixJet) -> MatrixJet:
    """log of a jet with constant term the identity: the S with exp(S) = j,
    solved degree by degree on one :class:`IncrementalExp`.  S_m enters
    coefficient m of exp(S) only as itself (its j = 1 term), so with S_m
    still zero that coefficient is E_m(S_1..S_(m-1)) and S_m = j_m - E_m."""
    n, k = j.n, j.order
    if np.linalg.norm(j.coeffs[0] - np.eye(n)) > 1e-8:
        raise ValueError("log_series needs a jet with identity constant term")
    state = IncrementalExp(np.eye(n)[None], k)
    series = np.zeros((1, k + 1, n, n), dtype=complex)  # degree 0 stays zero
    for m in range(1, k + 1):
        series[0, m] = j.coeffs[m] - state.jets(series[:, 1:m + 1])[0, m]
    return MatrixJet(series[0])


def unitary_generator_jet(base: np.ndarray, jets, order: int) -> MatrixJet:
    """exp(sum_m t^m X_m) @ base as a matrix jet, from jets X_1.. (those past
    the order are dropped, missing ones are zero); unitary over the ring when
    the X_m are skew-Hermitian and the base is unitary."""
    base = np.asarray(base, dtype=complex)
    n = base.shape[-1]
    jets = np.asarray(jets, dtype=complex).reshape(-1, n, n)[:order]
    series = np.zeros((1, order, n, n), dtype=complex)
    series[0, :len(jets)] = jets
    return MatrixJet(IncrementalExp(base[None], order).jets(series)[0])


class IncrementalExp:
    """exp(S) @ base for a stack of series S = sum_(d >= 1) t^d S_d, one base
    per series, kept across calls whose series share their low degrees.

    For j >= 2 the degree-d coefficient of S^j involves S_1..S_(d-1) only:
    (S^j)_d = sum_(q=1..d-1) S_(d-q) (S^(j-1))_q.  The power coefficients
    (S^j)_d of every formed degree are cached, so forming degree d is one
    gemm per series for all j = 2..d, and E_d = sum_j (S^j)_d / j!.  A call
    re-forms from the lowest degree whose series changed: there only E_d
    (its powers do not involve S_d), the powers from the next degree on.
    The cache holds (batch, order + 1, n, max(order, 1) + 1, n) coefficients.
    """

    def __init__(self, bases: np.ndarray, order: int):
        self.bases = np.asarray(bases, dtype=complex)
        batch, n = self.bases.shape[0], self.bases.shape[-1]
        # powers[:, d, :, j, :] = (S^j)_d; j = 1 holds the series as last seen,
        # so it is there at order 0 too
        self.powers = np.zeros((batch, order + 1, n, max(order, 1) + 1, n), dtype=complex)
        self.coeffs = np.zeros((batch, order + 1, n, n), dtype=complex)
        self.coeffs[:, 0] = self.bases
        self.weights = np.array([1.0 / math.factorial(j) for j in range(order + 1)])
        self.formed = 0  # degrees 1..formed agree with the stored series

    def jets(self, series: np.ndarray) -> np.ndarray:
        """Coefficients 0..m of exp(S) @ base for series (batch, m, n, n)
        holding S_1..S_m; a view into the cache, valid until the next call."""
        batch, m, n = series.shape[:3]
        if m >= self.coeffs.shape[1]:
            raise ValueError(f"series of degree {m} past the cache order {self.coeffs.shape[1] - 1}")
        stored = self.powers[:, 1:m + 1, :, 1, :]
        changed = np.any(series != stored, axis=(0, 2, 3))
        first = int(np.argmax(changed)) + 1 if changed.any() else m + 1
        stored[...] = series
        if first <= min(self.formed, m):
            self._store(first)  # the powers of the first changed degree do not involve it
        for d in range(min(self.formed, first) + 1, m + 1):
            # (S^j)_d for j = 2..d: S_(d-q) against (S^(j-1))_q, q = 1..d-1;
            # the right factor is a strided view, so this is one gemm per series
            left = self.powers[:, d - 1:0:-1, :, 1, :].transpose(0, 2, 1, 3).reshape(
                batch, n, (d - 1) * n)
            right = self.powers[:, 1:d, :, 1:d, :].reshape(batch, (d - 1) * n, (d - 1) * n)
            self.powers[:, d, :, 2:d + 1, :] = (left @ right).reshape(batch, n, d - 1, n)
            self._store(d)
        self.formed = max(min(self.formed, first - 1), m)
        return self.coeffs[:, :m + 1]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the series at the given stack rows (indices or a mask)."""
        self.bases, self.powers, self.coeffs = self.bases[rows], self.powers[rows], self.coeffs[rows]

    def _store(self, d: int) -> None:
        """Jet coefficient d: E_d = sum_j (S^j)_d / j!, times the base."""
        e = self.powers[:, d, :, 1:d + 1, :].swapaxes(-1, -2) @ self.weights[1:d + 1]
        self.coeffs[:, d] = e @ self.bases


def product_coefficient(a: MatrixJet, b: MatrixJet, m: int) -> np.ndarray:
    """Coefficient m of the product a @ b alone: sum_p a_p b_(m-p), one
    contraction of a's coefficients 0..m against b's m..0 (per stack row)."""
    left = a.coeffs.swapaxes(-3, -2)[..., :m + 1, :]
    right = b.coeffs[..., m::-1, :, :]
    return left.reshape(left.shape[:-3] + (left.shape[-3], -1)) \
        @ right.reshape(right.shape[:-3] + (-1, right.shape[-1]))


def word_jet(generator_jets: Sequence[MatrixJet], word, order: int, n: int) -> MatrixJet:
    """Evaluate a word in jets of the generators, from its first letter on;
    inverses via dagger.  The empty word is the identity jet."""
    out = None
    for gen, sign in word:
        j = generator_jets[gen] if sign > 0 else generator_jets[gen].dagger()
        out = j if out is None else out @ j
    return MatrixJet.identity(n, order) if out is None else out
