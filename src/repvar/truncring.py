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
that changed, and reports that degree, so a caller that keeps products of
the coefficients forms only their block rows from there on
(:func:`repvar.cohomology.order_defect`; a block row of the Toeplitz
product over all block columns is the same sum as in the full product).
:func:`unitary_generator_jet` and :func:`exp_series` are one call of a
fresh one, and :func:`log_series` is its inverse, solved for one degree per
call.  :func:`product_coefficient` forms one coefficient of a product alone,
from coefficient arrays that may carry leading stack axes.

A :class:`MatrixJet` is one jet.  Stacks of samples live in
:class:`repvar.cohomology.DefectState`, as coefficient arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np


class MatrixJet:
    """Matrix with entries in R[t]/(t^(k+1)), stored as coefficients (k+1, n, n)."""

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
        return self.coeffs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def coeff(self, m: int) -> np.ndarray:
        return self.coeffs[m]

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(self.coeffs - other.coeffs)

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        # one gather of the Toeplitz matrix of left multiplication by the jet,
        # from its coefficients led by one zero, then one gemm
        k1, n = self.coeffs.shape[:2]
        led = np.zeros(1 + k1 * n * n, dtype=complex)
        led[1:] = self.coeffs.ravel()
        out = np.take(led, toeplitz_rows(0, k1 - 1, n)) @ other.coeffs.reshape(k1 * n, -1)
        return MatrixJet(out.reshape(k1, n, -1))

    def dagger(self) -> "MatrixJet":
        """Coefficient-wise conjugate transpose; the ring inverse of a unitary jet."""
        return MatrixJet(self.coeffs.swapaxes(1, 2).conj())

    def __repr__(self) -> str:
        return f"MatrixJet(order={self.order}, n={self.n})"


@lru_cache(maxsize=256)
def toeplitz_rows(lo: int, m: int, n: int) -> np.ndarray:
    """Position, in a jet's coefficients 0..m (n x n each) flattened and led
    by one zero, of entry (p n + i, q n + j) of the Toeplitz matrix of left
    multiplication by the jet, for block rows p = lo..m and block columns
    q = 0..m: entry (i, j) of coefficient p - q, or the leading zero."""
    p, i, q, j = np.ogrid[lo:m + 1, :n, :m + 1, :n]
    index = np.where(p >= q, 1 + ((p - q) * n + i) * n + j, 0)
    index = index.reshape((m + 1 - lo) * n, (m + 1) * n)
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
    """exp(S) @ base for a stack of series S = sum_(d >= 1) t^d S_d, kept
    across calls whose series share their low degrees.  The stack holds
    ``samples`` blocks of one series per base, sample-major: series i takes
    base i % len(bases), and the bases are the caller's array, not a copy.

    For j >= 2 the degree-d coefficient of S^j involves S_1..S_(d-1) only:
    (S^j)_d = sum_(q=1..d-1) S_(d-q) (S^(j-1))_q.  The power coefficients
    (S^j)_d of every formed degree are cached, so forming degree d is one
    gemm per series for all j = 2..d, and E_d = sum_j (S^j)_d / j!.  A call
    re-forms from the lowest degree whose series changed, found by comparing
    all m degrees with the stored series (a per-call flag array, one flag
    per entry): there only E_d (its powers do not involve S_d), the powers
    from the next degree on.  ``low`` is the lowest degree the last call
    re-formed (m + 1 when it re-formed none), so a caller that keeps
    products of the coefficients re-forms them from there.  The call stores
    E_low..E_m at once: one sum per degree, then one gemm per series with
    the rows of every sample and degree (the ``cohomology.rowwise`` merge
    rule).  The cache holds
    (batch, order + 1, n, max(order, 1) + 1, n) coefficients.
    """

    def __init__(self, bases: np.ndarray, order: int, samples: int = 1):
        self.bases = np.asarray(bases, dtype=complex)
        count, n = self.bases.shape[0], self.bases.shape[-1]
        batch = samples * count
        # powers[:, d, :, j, :] = (S^j)_d; j = 1 holds the series as last seen,
        # so it is there at order 0 too
        self.powers = np.zeros((batch, order + 1, n, max(order, 1) + 1, n), dtype=complex)
        self.coeffs = np.zeros((batch, order + 1, n, n), dtype=complex)
        self.coeffs[:, 0] = np.tile(self.bases, (samples, 1, 1))
        self.weights = np.array([1.0 / math.factorial(j) for j in range(order + 1)])
        self.formed = 0  # degrees 1..formed agree with the stored series
        self.low = 0  # the bases, degree 0, are formed here

    def jets(self, series: np.ndarray) -> np.ndarray:
        """Coefficients 0..m of exp(S) @ base for series (batch, m, n, n)
        holding S_1..S_m; a view into the cache, valid until the next call."""
        batch, m, n = series.shape[:3]
        if m >= self.coeffs.shape[1]:
            raise ValueError(f"series of degree {m} past the cache order {self.coeffs.shape[1] - 1}")
        stored = self.powers[:, 1:m + 1, :, 1, :]
        # degree-major flags, so the first one set lies in the lowest changed degree
        flags = np.empty((m, batch, n, n), dtype=bool)
        np.not_equal(series.swapaxes(0, 1), stored.swapaxes(0, 1), out=flags)
        at = int(flags.reshape(-1).argmax()) if flags.size else 0
        first = at // flags[0].size + 1 if flags.size and flags.flat[at] else m + 1
        stored[...] = series
        self.low = min(first, self.formed + 1)
        for d in range(min(self.formed, first) + 1, m + 1):
            # (S^j)_d for j = 2..d: S_(d-q) against (S^(j-1))_q, q = 1..d-1;
            # the right factor is a strided view, so this is one gemm per series
            left = self.powers[:, d - 1:0:-1, :, 1, :].transpose(0, 2, 1, 3).reshape(
                batch, n, (d - 1) * n)
            right = self.powers[:, 1:d, :, 1:d, :].reshape(batch, (d - 1) * n, (d - 1) * n)
            self.powers[:, d, :, 2:d + 1, :] = (left @ right).reshape(batch, n, d - 1, n)
        if self.low <= m:
            self._store(self.low, m)
        self.formed = max(min(self.formed, first - 1), m)
        return self.coeffs[:, :m + 1]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the samples at the given rows (indices or a mask)."""
        count = len(self.bases)
        self.powers, self.coeffs = (
            a.reshape(-1, count, *a.shape[1:])[rows].reshape(-1, *a.shape[1:])
            for a in (self.powers, self.coeffs))

    def _store(self, lo: int, m: int) -> None:
        """Jet coefficients lo..m: E_d = sum_(j=1..d) (S^j)_d / j!, one sum
        per degree, times the base.  A series' base is the right factor of
        every sample's E_lo..E_m, so they are stacked along the rows of one
        gemm per series."""
        count, n, span = self.bases.shape[0], self.bases.shape[-1], m + 1 - lo
        e = np.empty((len(self.powers), span, n, n), dtype=complex)
        for d in range(lo, m + 1):
            e[:, d - lo] = self.powers[:, d, :, 1:d + 1, :].swapaxes(-1, -2) @ self.weights[1:d + 1]
        e = e.reshape(-1, count, span * n, n).swapaxes(0, 1).reshape(count, -1, n)
        self.coeffs[:, lo:m + 1] = (e @ self.bases).reshape(count, -1, span, n, n).swapaxes(
            0, 1).reshape(-1, span, n, n)


def product_coefficient(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Coefficient m of the product of two jets alone, from their
    coefficients (..., k+1, n, n): sum_p a_p b_(m-p), one contraction of a's
    coefficients 0..m against b's m..0 (per stack row)."""
    left = a.swapaxes(-3, -2)[..., :m + 1, :]
    right = b[..., m::-1, :, :]
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
