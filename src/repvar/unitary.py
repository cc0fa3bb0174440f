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

import math
from functools import cache

import numpy as np

from .presentation import ConjugacyClassSpec

UNITARITY_TOL = 1e-10
SKEW_TOL = 1e-12
ANGLE_TOL = 1e-8  # radians: how close to -1 principal_log lets an eigenvalue come

# numpy scalars, not 0-d arrays: the same values, but scalar arithmetic skips
# the ufunc dispatch that an operation on a 0-d array goes through
_ONE = np.complex128(1)
_ZERO = np.complex128(0)


class BranchCutError(ValueError):
    """An eigenvalue sits on the logarithm branch cut at -1."""


def check_tolerance(tolerance: float) -> None:
    """Reject a tolerance that is not a finite number > 0: against NaN every
    comparison is false, so no defect would ever count as too large."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")


@cache
def skew_basis(n: int) -> np.ndarray:
    """B-orthonormal real basis of the skew-Hermitian n x n matrices, shape
    (n^2, n, n), read-only.

    Diagonal directions i*e_kk come first, then for each pair j < k the
    real and imaginary off-diagonal directions.
    """
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
    return basis


@cache
def _basis_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the :func:`skew_basis` matrices as (rows, cols,
    vals), slot-major over 2 n^2: slot 0 of every basis matrix, then slot 1.
    An off-diagonal direction has two nonzero entries; a diagonal one has
    one, and its slot 1 repeats that position with the value 0.  Every
    value is purely real or purely imaginary, so one of the two real
    products in each part of a complex product with it is an exact zero,
    and the product rounds alike fused or unfused.  Read-only."""
    flat = skew_basis(n).reshape(n * n, n * n)
    slots = np.zeros((2, n * n), dtype=np.intp)
    vals = np.zeros((2, n * n), dtype=complex)
    for a, m in enumerate(flat):
        nonzero = np.flatnonzero(m)
        slots[:, a] = nonzero[0], nonzero[-1]
        vals[:len(nonzero), a] = m[nonzero]
    rows, cols = np.divmod(slots.ravel(), n)
    terms = (rows, cols, vals.ravel())
    for t in terms:
        t.setflags(write=False)
    return terms


def vec_skew(x: np.ndarray) -> np.ndarray:
    """Real B-coordinates of a skew-Hermitian matrix, or of each matrix of a
    stack (..., n, n).  Coordinate a is -Re tr(B_a x), read off the two
    entries of x that meet the nonzero entries of B_a: the sum starts from
    +0.0 and adds the two products, which are bitwise the nonzero terms of
    the dense einsum "aij,...ji->...a" (a sum that also starts from +0.0,
    and whose other terms are zeros), so the result is too, signed zeros
    included."""
    n = x.shape[-1]
    rows, cols, vals = _basis_terms(n)
    terms = (x[..., cols, rows] * vals).real.reshape(x.shape[:-2] + (2, n * n))
    return -np.add.reduce(terms, axis=-2, initial=0.0)


def unvec_skew(v: np.ndarray, n: int) -> np.ndarray:
    """Skew-Hermitian matrix with the given real B-coordinates; a stack of
    coordinate vectors (..., n^2) gives a stack of matrices.  One real gemm
    of all vectors against the basis with its entries' real and imaginary
    parts interleaved: every part of an entry has one nonzero basis term, so
    no summation order can move its rounding."""
    real = skew_basis(n).reshape(n * n, n * n).view(float)  # a view of the cached basis
    v = np.asarray(v, dtype=float)
    return (v.reshape(-1, n * n) @ real).view(complex).reshape(v.shape[:-1] + (n, n))


def project_skew(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - m.conj().swapaxes(-1, -2))


def is_unitary(g: np.ndarray) -> bool:
    n = g.shape[0]
    return bool(np.linalg.norm(g.conj().T @ g - np.eye(n)) <= UNITARITY_TOL)


def is_skew_hermitian(x: np.ndarray, tol: float = SKEW_TOL) -> bool:
    return bool(np.linalg.norm(x + x.conj().T) <= tol)


def exponential(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a skew-Hermitian matrix, or of each matrix of a
    stack (..., n, n); exactly unitary up to rounding."""
    w, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def principal_log(g: np.ndarray) -> np.ndarray:
    """Skew-Hermitian logarithm of a unitary g with eigenvalue angles in (-pi, pi).

    Raises :class:`BranchCutError` when an eigenvalue of ``g`` lies within
    ``ANGLE_TOL`` (radians) of -1.  Rotated so that -1 sits mid-way across the
    widest gap of the eigen-angles, g has the Hermitian Cayley transform
    i(I - r)(I + r)^(-1); ``eigh`` of it gives orthonormal eigenvectors
    (repeated eigenvalues included) and the angles through 2 arctan(lambda).
    """
    theta = np.sort(np.angle(np.linalg.eigvals(g)))
    if np.any(np.pi - np.abs(theta) < ANGLE_TOL):
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


def ad_basis(p: np.ndarray) -> np.ndarray:
    """g B_a g^H for every matrix g of the stack p (t, n, n) and every basis
    matrix B_a of :func:`skew_basis`, shape (t, n^2, n, n).

    Each B_a has two entries (j, k) in :func:`_basis_terms`, and g B_a g^H
    is the sum over them of (column j of g times the value) times (column k
    of conj(g)) as an outer product.  The outer product is an einsum: its
    unfused complex multiply is the one of the dense three-operand einsum
    "tij,ajk,tlk->tail" (numpy's array multiply may fuse it), and it adds
    each product into a zeroed output, as the dense einsum adds its terms,
    so no term is -0 and the sum of the two slots carries the dense
    einsum's zero signs too: every entry is bitwise the dense einsum's."""
    t, n = p.shape[0], p.shape[-1]
    rows, cols, vals = _basis_terms(n)
    left = (p[:, :, rows] * vals).swapaxes(1, 2)
    right = p.conj()[:, :, cols].swapaxes(1, 2)
    terms = np.einsum("tsi,tsl->tsil", left, right).reshape(t, 2, n * n, n, n)
    return terms[:, 0] + terms[:, 1]


def ad_matrix(g: np.ndarray) -> np.ndarray:
    """Real matrix of X -> g X g^{-1} in the coordinates of :func:`skew_basis`;
    a stack of matrices (..., n, n) gives a stack (..., n^2, n^2).  Column a
    is vec_skew(g B_a g^H)."""
    n = g.shape[-1]
    coords = vec_skew(ad_basis(g.reshape(-1, n, n)))
    return coords.swapaxes(-1, -2).reshape(g.shape[:-2] + (n * n, n * n))


def class_of(g: np.ndarray) -> ConjugacyClassSpec:
    """Conjugacy class of a unitary matrix: sorted eigenvalue angles in turns."""
    eigs = np.linalg.eigvals(g)
    angles = (np.angle(eigs) / (2.0 * np.pi)) % 1.0
    return ConjugacyClassSpec(sorted(float(a) for a in angles))


def diagonal_model(spec: ConjugacyClassSpec) -> np.ndarray:
    """The diagonal representative of a conjugacy class spec."""
    return np.diag(np.exp(2j * np.pi * np.array(spec.as_floats())))


def charpoly_stack(gs: np.ndarray, dgs: np.ndarray | None = None):
    """Coefficients (c_1 .. c_N) of det(tI - g) = t^N + c_1 t^{N-1} + ... + c_N
    for every matrix g of the stack gs (P, N, N), shape (P, N); with dgs
    (P, M, N, N), a stack of M directions per matrix, also their derivatives
    (P, M, N), returned as (c, dc).

    Computed from traces of powers via Newton's identities, which keeps the
    map smooth in g (unlike eigenvalue sorting), and differentiated through
    dp_k = k tr(g^{k-1} dg).  Row i of every output is bitwise the output
    of the one-element stack gs[i:i + 1] (and dgs[i:i + 1]): the powers are
    stacked matmuls, the traces one ``np.trace`` over the stack and the
    derivative recursion runs on (P, M) arrays with (P, 1) columns of each
    matrix's scalars, and all three make each element's operations of the
    one-matrix forms.  Two stacked forms do not, and are not used: one
    "pij,paji->pa" einsum for the trace derivatives differed in some bit
    from one "ij,aji->a" einsum per matrix on 435 of 600 random stacks
    (N = 1..5, P = 1..9, M = 1..59, numpy 2.4), and the Newton recursion on
    (P,) arrays differed from the scalar one on 370 of them; so each matrix
    keeps its own einsums and its own scalar :func:`_newton_elementary`.
    """
    count, n = gs.shape[0], gs.shape[-1]
    if count == 0:  # no recursion to run: skip its O(N^2) array operations
        c = np.zeros((0, n), dtype=complex)
        return c if dgs is None else (c, np.zeros((0, dgs.shape[1], n), dtype=complex))
    powers = [np.broadcast_to(np.eye(n, dtype=complex), gs.shape)]
    for _ in range(n):
        powers.append(powers[-1] @ gs)
    p = np.trace(np.array(powers[1:]), axis1=-2, axis2=-1)  # (N, P): p_k of each matrix
    e = [_newton_elementary(pi) for pi in p.T]
    c = np.array([[(-1) ** k * ei[k] for k in range(1, n + 1)] for ei in e],
                 dtype=complex).reshape(count, n)
    if dgs is None:
        return c
    m = dgs.shape[1]
    e = np.array(e, dtype=complex).reshape(count, n + 1)
    dp = [None]
    for k in range(1, n + 1):
        traces = [np.einsum("ij,aji->a", pk, dg) for pk, dg in zip(powers[k - 1], dgs)]
        dp.append(k * np.array(traces, dtype=complex).reshape(count, m))
    de = [np.zeros((count, m), dtype=complex)]
    for k in range(1, n + 1):
        dacc = np.zeros((count, m), dtype=complex)
        for j in range(1, k + 1):
            dacc = dacc + (-1) ** (j - 1) * (de[k - j] * p[j - 1, :, None]
                                             + e[:, k - j, None] * dp[j])
        de.append(dacc / k)
    dc = np.stack([(-1) ** k * de[k] for k in range(1, n + 1)], axis=-1)
    return c, dc


def _newton_elementary(p) -> list:
    """Elementary symmetric functions e_0 .. e_N of the eigenvalues from the
    power traces p_1 .. p_N: k e_k = sum_j (-1)^(j-1) e_(k-j) p_j."""
    e = [_ONE]
    for k in range(1, len(p) + 1):
        acc = _ZERO
        for j in range(1, k + 1):
            acc = acc + (-1) ** (j - 1) * e[k - j] * p[j - 1]
        e.append(acc / k)
    return e


def charpoly_coefficients(g: np.ndarray) -> np.ndarray:
    """:func:`charpoly_stack` of the one matrix g: (c_1 .. c_N)."""
    return charpoly_stack(g[None])[0]


def class_coefficients(specs, rank: int) -> np.ndarray:
    """Characteristic polynomial coefficients of the diagonal models of the
    class specs, shape (len(specs), rank): the targets of the class gaps."""
    return np.array([_class_target(spec) for spec in specs], dtype=complex).reshape(-1, rank)


@cache
def _class_target(spec: ConjugacyClassSpec) -> np.ndarray:
    """One spec's row of :func:`class_coefficients`, once per process."""
    return charpoly_coefficients(diagonal_model(spec))


def class_residual(g: np.ndarray, spec: ConjugacyClassSpec) -> float:
    """Distance of g from the class: the Euclidean norm of the difference of
    the characteristic polynomial coefficients of g and of the class's
    diagonal model, zero on the class and smooth in g."""
    if spec.rank != g.shape[0]:
        raise ValueError(f"class has {spec.rank} angles, matrix is {g.shape[0]} x {g.shape[0]}")
    gap = charpoly_coefficients(g) - class_coefficients([spec], spec.rank)[0]
    return float(np.linalg.norm(gap))


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
    """Haar sample from an existing generator: :func:`haar_stack` of one."""
    return haar_stack(rng, 1, n)[0]


def haar_stack(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count Haar samples (count, n, n) from an existing generator: QR of
    complex Gaussian matrices with the R-diagonal phases absorbed into Q.
    Sample i draws its real, then its imaginary part after sample i - 1,
    and the stacked QR factors each matrix alone, so sample i is bitwise
    the i-th of count one-sample calls."""
    z = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_skew(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Gaussian skew-Hermitian matrix with B-norm scale * chi(n^2)-distributed."""
    return unvec_skew(scale * rng.standard_normal(n * n), n)


def matrix_to_json(m: np.ndarray) -> list:
    """Matrix as rows of {"re": float, "im": float} entries."""
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(m, dtype=complex)]


def shown(value) -> str:
    """A rejected value as an error message shows it, so that the message stays
    one short line: its repr up to 40 characters, past that an integer's digit
    count or the repr's first 40 characters."""
    text = repr(value)
    if len(text) > 40:  # a boolean's repr is short: an int here is an integer
        text = (f"<{len(text.lstrip('-'))}-digit integer>" if isinstance(value, int)
                else text[:40] + "...")
    return text


def json_number(value, what: str, kind: type = float):
    """A value read from JSON as a number of the kind: int takes integers,
    float integers and floats.  A boolean is no number, and an integer past
    the float range is no float; either raises ValueError naming ``what``."""
    try:
        if isinstance(value, (int, kind)) and not isinstance(value, bool):
            return kind(value)
    except OverflowError:
        pass
    raise ValueError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                     f"got {shown(value)}")


def matrix_from_json(data) -> np.ndarray:
    """The matrix of rows of {"re", "im"} entries, each part a
    :func:`json_number`; malformed data raises ValueError."""
    try:
        m = np.array([[json_number(entry["re"], "matrix entry 're'")
                       + 1j * json_number(entry["im"], "matrix entry 'im'")
                       for entry in row] for row in data])
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix JSON has non-finite entries")
    return m
