"""Exact arithmetic over the truncated polynomial rings R[t]/(t^(k+1)).

Coefficients are complex matrices, 1 x 1 ones giving the scalar ring
C[t]/(t^(k+1)); multiplication is the Cauchy convolution with degrees above
the truncation order discarded.  Exponential and logarithm series are
finite sums here because their arguments have zero constant term (resp.
constant term one).
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
        k = self.order
        out = np.zeros_like(self.coeffs)
        for m in range(k + 1):
            for p in range(m + 1):
                out[m] += self.coeffs[p] @ other.coeffs[m - p]
        return MatrixJet(out)

    def dagger(self) -> "MatrixJet":
        """Coefficient-wise conjugate transpose; the ring inverse of a unitary jet."""
        return MatrixJet(np.conj(np.swapaxes(self.coeffs, 1, 2)))

    def scale(self, c: complex) -> "MatrixJet":
        return MatrixJet(c * self.coeffs)

    def __repr__(self) -> str:
        return f"MatrixJet(order={self.order}, n={self.n})"


def exp_series(s: MatrixJet) -> MatrixJet:
    """exp of a jet with zero constant term: finite sum of s^j / j!."""
    if np.any(s.coeffs[0] != 0):
        raise ValueError("exp_series needs a jet with zero constant term")
    out = MatrixJet.identity(s.n, s.order)
    term = MatrixJet.identity(s.n, s.order)
    for j in range(1, s.order + 1):
        term = (term @ s).scale(1.0 / j)
        out = out + term
    return out


def log_series(j: MatrixJet) -> MatrixJet:
    """log of a jet with constant term the identity: finite alternating sum."""
    n = j.n
    if np.linalg.norm(j.coeffs[0] - np.eye(n)) > 1e-8:
        raise ValueError("log_series needs a jet with identity constant term")
    m = j - MatrixJet.identity(n, j.order)
    m.coeffs[0] = 0.0
    out = MatrixJet(np.zeros_like(j.coeffs))
    power = MatrixJet.identity(n, j.order)
    for d in range(1, j.order + 1):
        power = power @ m
        out = out + power.scale((-1.0) ** (d + 1) / d)
    return out


def unitary_generator_jet(base: np.ndarray, jets: Sequence[np.ndarray], order: int) -> MatrixJet:
    """exp(sum_m t^m X_m) @ base as a matrix jet; unitary over the ring when the
    X_m are skew-Hermitian and the base is unitary."""
    n = base.shape[0]
    s = MatrixJet.from_series(list(jets), order, n, start=1)
    return exp_series(s) @ MatrixJet.constant(base, order)


def word_jet(generator_jets: Sequence[MatrixJet], word, order: int, n: int) -> MatrixJet:
    """Evaluate a word in jets of the generators; inverses via dagger."""
    out = MatrixJet.identity(n, order)
    for gen, sign in word:
        j = generator_jets[gen]
        out = out @ (j if sign > 0 else j.dagger())
    return out
