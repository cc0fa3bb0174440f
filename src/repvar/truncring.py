"""Exact arithmetic over the truncated polynomial rings R[t]/(t^(k+1)).

Coefficients are complex matrices, 1 x 1 ones giving the scalar ring
C[t]/(t^(k+1)); multiplication is the Cauchy convolution with degrees above
the truncation order discarded.  Left multiplication by a jet is a block
lower-triangular Toeplitz matrix acting on the stacked coefficients, so a
product is one dense matrix product (gemm).  Exponential and logarithm
series are finite sums here because their arguments have zero constant
term (resp. constant term one); both run Horner's rule on the stacked
coefficients against one Toeplitz matrix.
"""

from __future__ import annotations

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

    @classmethod
    def from_series(cls, mats: Sequence[np.ndarray | None], order: int, n: int,
                    start: int = 1) -> "MatrixJet":
        """Jet with coefficient mats[i] at degree start + i (None means zero)."""
        c = np.zeros((order + 1, n, n), dtype=complex)
        for i, m in enumerate(mats):
            d = start + i
            if d <= order and m is not None:
                c[d] = m
        return cls(c)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def coeff(self, m: int) -> np.ndarray:
        return self.coeffs[m]

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(self.coeffs - other.coeffs)

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        stacked = other.coeffs.reshape(-1, other.n)
        return MatrixJet((_toeplitz(self) @ stacked).reshape(other.coeffs.shape))

    def dagger(self) -> "MatrixJet":
        """Coefficient-wise conjugate transpose; the ring inverse of a unitary jet."""
        return MatrixJet(np.conj(np.swapaxes(self.coeffs, 1, 2)))

    def __repr__(self) -> str:
        return f"MatrixJet(order={self.order}, n={self.n})"


def _toeplitz(a: MatrixJet) -> np.ndarray:
    """The ((k+1)n, (k+1)n) matrix of left multiplication by a on coefficients
    stacked by degree: block (p, q) is a_(p-q), and zero for negative lags."""
    k1, n = a.coeffs.shape[:2]
    padded = np.concatenate([np.zeros((k1 - 1, n, n), dtype=complex), a.coeffs])
    lag = np.subtract.outer(np.arange(k1), np.arange(k1)) + (k1 - 1)
    return padded[lag].transpose(0, 2, 1, 3).reshape(k1 * n, k1 * n)


def exp_series(s: MatrixJet) -> MatrixJet:
    """exp of a jet with zero constant term: finite sum of s^j / j!, by Horner's
    rule out = 1 + s out / j for j = k..1."""
    if np.any(s.coeffs[0] != 0):
        raise ValueError("exp_series needs a jet with zero constant term")
    t = _toeplitz(s)
    unit = MatrixJet.identity(s.n, s.order).coeffs.reshape(-1, s.n)
    out = unit
    for j in range(s.order, 0, -1):
        out = unit + (t @ out) / j
    return MatrixJet(out.reshape(s.coeffs.shape))


def log_series(j: MatrixJet) -> MatrixJet:
    """log of a jet with constant term the identity: finite alternating sum of
    (-1)^(d+1) m^d / d in m = j - 1, by Horner's rule from d = k down."""
    n, k = j.n, j.order
    if np.linalg.norm(j.coeffs[0] - np.eye(n)) > 1e-8:
        raise ValueError("log_series needs a jet with identity constant term")
    m = j - MatrixJet.identity(n, k)
    m.coeffs[0] = 0.0
    t = _toeplitz(m)
    unit = MatrixJet.identity(n, k).coeffs.reshape(-1, n)
    out = np.zeros_like(unit)
    for d in range(k, 0, -1):
        out = t @ (((-1.0) ** (d + 1) / d) * unit + out)
    return MatrixJet(out.reshape(j.coeffs.shape))


def unitary_generator_jet(base: np.ndarray, jets: Sequence[np.ndarray], order: int) -> MatrixJet:
    """exp(sum_m t^m X_m) @ base as a matrix jet; unitary over the ring when the
    X_m are skew-Hermitian and the base is unitary."""
    n = base.shape[0]
    s = MatrixJet.from_series(list(jets), order, n, start=1)
    # the constant jet has only a degree-0 coefficient, so the product is a
    # coefficient-wise right multiplication
    return MatrixJet(exp_series(s).coeffs @ base)


def word_jet(generator_jets: Sequence[MatrixJet], word, order: int, n: int) -> MatrixJet:
    """Evaluate a word in jets of the generators; inverses via dagger."""
    out = MatrixJet.identity(n, order)
    for gen, sign in word:
        j = generator_jets[gen]
        out = out @ (j if sign > 0 else j.dagger())
    return out
