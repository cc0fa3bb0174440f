"""Numerics on the compact group U(N) and its Lie algebra of skew-Hermitian matrices.

Conventions used throughout:

* the invariant form is B(X, Y) = -tr(XY), positive definite on
  skew-Hermitian matrices;
* real coordinates on the algebra come from the B-orthonormal basis of
  :func:`skew_basis`, so B equals the Euclidean inner product of
  coordinate vectors;
* conjugacy classes are named by eigenvalue angles in turns, so the
  eigenvalues of a class member are exp(2*pi*i*angle).
"""

from __future__ import annotations

import numpy as np

from .presentation import ConjugacyClassSpec

UNITARITY_TOL = 1e-10
SKEW_TOL = 1e-12

_BASIS_CACHE: dict[int, np.ndarray] = {}
_CLASS_COEFFICIENTS: dict[ConjugacyClassSpec, np.ndarray] = {}
# numpy scalars, not 0-d arrays: the same values, but scalar arithmetic skips
# the ufunc dispatch that an operation on a 0-d array goes through
_ONE = np.complex128(1)
_ZERO = np.complex128(0)


class BranchCutError(ValueError):
    """An eigenvalue sits on the logarithm branch cut at -1."""


def skew_basis(n: int) -> np.ndarray:
    """B-orthonormal real basis of the skew-Hermitian n x n matrices, shape (n^2, n, n).

    Diagonal directions i*e_kk come first, then for each pair j < k the
    real and imaginary off-diagonal directions.
    """
    if n not in _BASIS_CACHE:
        mats = []
        for k in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[k, k] = 1j
            mats.append(m)
        s = 1.0 / np.sqrt(2.0)
        for j in range(n):
            for k in range(j + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = s
                m[k, j] = -s
                mats.append(m)
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = 1j * s
                m[k, j] = 1j * s
                mats.append(m)
        basis = np.array(mats)
        basis.setflags(write=False)
        _BASIS_CACHE[n] = basis
    return _BASIS_CACHE[n]


def vec_skew(x: np.ndarray) -> np.ndarray:
    """Real B-coordinates of a skew-Hermitian matrix, or of each matrix of a
    stack (..., n, n)."""
    basis = skew_basis(x.shape[-1])
    return -np.einsum("aij,...ji->...a", basis, x).real


def unvec_skew(v: np.ndarray, n: int) -> np.ndarray:
    """Skew-Hermitian matrix with the given real B-coordinates; a stack of
    coordinate vectors (..., n^2) gives a stack of matrices."""
    return np.einsum("...a,aij->...ij", np.asarray(v, dtype=float), skew_basis(n))


def project_skew(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - m.conj().swapaxes(-1, -2))


def is_unitary(g: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    n = g.shape[0]
    return bool(np.linalg.norm(g.conj().T @ g - np.eye(n)) <= tol)


def is_skew_hermitian(x: np.ndarray, tol: float = SKEW_TOL) -> bool:
    return bool(np.linalg.norm(x + x.conj().T) <= tol)


def exponential(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a skew-Hermitian matrix, or of each matrix of a
    stack (..., n, n); exactly unitary up to rounding."""
    w, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def principal_log(g: np.ndarray, angle_tol: float = 1e-8) -> np.ndarray:
    """Skew-Hermitian logarithm of a unitary g with eigenvalue angles in (-pi, pi).

    Raises :class:`BranchCutError` when an eigenvalue of ``g`` lies within
    ``angle_tol`` (radians) of -1.  Rotated so that -1 sits mid-way across the
    widest gap of the eigen-angles, g has the Hermitian Cayley transform
    i(I - r)(I + r)^(-1); ``eigh`` of it gives orthonormal eigenvectors
    (repeated eigenvalues included) and the angles through 2 arctan(lambda).
    """
    theta = np.sort(np.angle(np.linalg.eigvals(g)))
    if np.any(np.pi - np.abs(theta) < angle_tol):
        raise BranchCutError("eigenvalue at or near -1; principal log undefined")
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    mid = theta[np.argmax(gaps)] + 0.5 * gaps.max()  # the Cayley pole r = -1 goes here
    r = np.exp(1j * (np.pi - mid)) * np.asarray(g)
    eye = np.eye(len(r))
    lam, v = np.linalg.eigh(1j * np.linalg.solve(eye + r, eye - r))
    angles = np.mod(mid + 2.0 * np.arctan(lam), 2.0 * np.pi) - np.pi
    return project_skew((v * (1j * angles)) @ v.conj().T)


def adjoint_action(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g x g^{-1} for unitary g."""
    return g @ x @ g.conj().T


def inner_product(x: np.ndarray, y: np.ndarray) -> float:
    """The invariant form B(X, Y) = -tr(XY); positive definite on skew-Hermitians."""
    return float(-np.trace(x @ y).real)


def ad_matrix(g: np.ndarray) -> np.ndarray:
    """Real matrix of X -> g X g^{-1} in the coordinates of :func:`skew_basis`."""
    basis = skew_basis(g.shape[0])
    conj = np.einsum("ij,ajk,lk->ail", g, basis, g.conj())
    return -np.einsum("mij,aji->ma", basis, conj).real


def class_of(g: np.ndarray) -> ConjugacyClassSpec:
    """Conjugacy class of a unitary matrix: sorted eigenvalue angles in turns."""
    eigs = np.linalg.eigvals(g)
    angles = (np.angle(eigs) / (2.0 * np.pi)) % 1.0
    return ConjugacyClassSpec(sorted(float(a) for a in angles))


def diagonal_model(spec: ConjugacyClassSpec) -> np.ndarray:
    """The diagonal representative of a conjugacy class spec."""
    return np.diag(np.exp(2j * np.pi * np.array(spec.as_floats())))


def charpoly_coefficients(g: np.ndarray) -> np.ndarray:
    """Coefficients (c_1 .. c_N) of det(tI - g) = t^N + c_1 t^{N-1} + ... + c_N.

    Computed from traces of powers via Newton's identities, which keeps the
    map smooth in ``g`` (unlike eigenvalue sorting).
    """
    e = _newton_elementary([pk.trace() for pk in _powers(g)])
    return np.array([(-1) ** k * e[k] for k in range(1, len(e))])


def _powers(g: np.ndarray) -> list:
    """g^0 .. g^N, each the previous times g."""
    powers = [np.eye(g.shape[0], dtype=complex)]
    for _ in range(g.shape[0]):
        powers.append(powers[-1] @ g)
    return powers


def _newton_elementary(p: list) -> list:
    """Elementary symmetric functions e_0 .. e_N of the eigenvalues from the
    power traces p_0 .. p_N: k e_k = sum_j (-1)^(j-1) e_(k-j) p_j."""
    e = [_ONE]
    for k in range(1, len(p)):
        acc = _ZERO
        for j in range(1, k + 1):
            acc = acc + (-1) ** (j - 1) * e[k - j] * p[j]
        e.append(acc / k)
    return e


def charpoly_directions(g: np.ndarray, dgs: np.ndarray):
    """Characteristic polynomial coefficients and their derivatives along a
    batch of directions (dgs has shape (M, n, n)).

    Returns (c, dc) with c of shape (n,) and dc of shape (M, n); Newton's
    identities are differentiated through dp_k = k tr(g^{k-1} dg).  c is
    bitwise :func:`charpoly_coefficients` of g.
    """
    n = g.shape[0]
    m = dgs.shape[0]
    powers = _powers(g)
    p = [pk.trace() for pk in powers]
    e = _newton_elementary(p)
    dp = [np.zeros(m, dtype=complex)]
    for k in range(1, n + 1):
        dp.append(k * np.einsum("ij,aji->a", powers[k - 1], dgs))
    de = [np.zeros(m, dtype=complex)]
    for k in range(1, n + 1):
        dacc = np.zeros(m, dtype=complex)
        for j in range(1, k + 1):
            dacc = dacc + (-1) ** (j - 1) * (de[k - j] * p[j] + e[k - j] * dp[j])
        de.append(dacc / k)
    c = np.array([(-1) ** k * e[k] for k in range(1, n + 1)])
    dc = np.stack([(-1) ** k * de[k] for k in range(1, n + 1)], axis=1)
    return c, dc


def class_gap(g: np.ndarray, spec: ConjugacyClassSpec) -> np.ndarray:
    """Characteristic polynomial coefficients of g minus those of the class's
    diagonal model: zero on the class, smooth in g.  The model's coefficients
    are computed once per spec."""
    target = _CLASS_COEFFICIENTS.get(spec)
    if target is None:
        target = _CLASS_COEFFICIENTS[spec] = charpoly_coefficients(diagonal_model(spec))
    return charpoly_coefficients(g) - target


def class_residual(g: np.ndarray, spec: ConjugacyClassSpec) -> float:
    """Distance of g from the class: the Euclidean norm of :func:`class_gap`."""
    if spec.rank != g.shape[0]:
        raise ValueError(f"class has {spec.rank} angles, matrix is {g.shape[0]} x {g.shape[0]}")
    return float(np.linalg.norm(class_gap(g, spec)))


def class_distance(a: ConjugacyClassSpec, b: ConjugacyClassSpec) -> float:
    """Max circular angle distance under the best cyclic matching of the multisets."""
    if a.rank != b.rank:
        raise ValueError("class specs of different rank")
    xs = np.array(a.as_floats())
    ys = np.array(b.as_floats())
    n = a.rank
    best = np.inf
    for shift in range(n):
        d = np.abs(xs - np.roll(ys, shift)) % 1.0
        d = np.minimum(d, 1.0 - d)
        best = min(best, float(d.max()))
    return best


def haar_sample(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in the seed."""
    return haar_from_rng(np.random.default_rng(np.random.SeedSequence(seed)), n)


def haar_from_rng(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar sample from an existing generator: QR of a complex Gaussian matrix
    with the R-diagonal phases absorbed into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_skew(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Gaussian skew-Hermitian matrix with B-norm scale * chi(n^2)-distributed."""
    return unvec_skew(scale * rng.standard_normal(n * n), n)


def matrix_to_json(m: np.ndarray) -> list:
    """Matrix as rows of {"re": float, "im": float} entries."""
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(data) -> np.ndarray:
    try:
        m = np.array([[entry["re"] + 1j * entry["im"] for entry in row] for row in data])
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix JSON has non-finite entries")
    return m
