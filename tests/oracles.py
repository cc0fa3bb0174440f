"""Independent oracles for the test suite.

These deliberately avoid the transport/complex machinery under test: the
dimension oracle differentiates the nonlinear constraint map by finite
differences, the irreducibility oracle spans the image algebra with
random words, the ring oracle multiplies truncated jets by the naive
Cauchy double loop over degrees, the order-2 defect oracle evaluates the
relator and conjugated-peripheral words in degree-2 jet arithmetic
instead of the closed-form cup product, the word-direction oracle forms
one Fox term of a word at a time (the per-term loop that the batched
repspace._word_directions replaced), the quadratic-map oracle evaluates
Q of one coefficient row at a time (the per-sample path that the stacked
QuadraticMap replaced), the eager pairing oracle builds every pairing
class at once (the dict that the lazily built pairing entries replaced),
the Newton oracle writes out the characteristic polynomial recursion on
0-d arrays (the scalar operations the library must keep, in their
order), the basis oracle unstacks one h1 basis column at a time (the
per-column loop that the one batched unstacking replaced), and the
logarithm oracle reads the angles off a Schur form (scipy, which only
the test extra installs).  The cone sampler is no oracle: it draws
inputs, directions with Q = 0, from the pairing form the library
computes.
"""

from math import factorial

import numpy as np
import scipy.linalg

from repvar.cohomology import (DefectState, ObstructionClass, QuadraticMap, obstruction_classes,
                               order_defect)
from repvar.repspace import Representation, _residual_vector, evaluate_word, word_transport_terms
from repvar.unitary import BranchCutError, exponential, project_skew, skew_basis, vec_skew


def random_word(rng, n_gens, max_length=20):
    length = int(rng.integers(0, max_length + 1))
    return tuple(
        (int(rng.integers(0, n_gens)), int(1 - 2 * rng.integers(0, 2)))
        for _ in range(length)
    )


def fd_constraint_rank(rep, eps=1e-6, threshold=1e-5):
    """Rank of the finite-difference Jacobian of the constraint map."""
    n = rep.rank
    q = n * n
    base = _residual_vector(rep)
    basis = skew_basis(n)
    cols = []
    for i in range(len(rep.matrices)):
        for a in range(q):
            mats = list(rep.matrices)
            mats[i] = exponential(eps * basis[a]) @ mats[i]
            pert = Representation(rep.presentation, mats, rep.tolerance)
            cols.append((_residual_vector(pert) - base) / eps)
    if not cols:
        return 0
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(s > threshold))


def word_directions_per_term(rep, word, w_val):
    """dW/d(coordinates) for the word value W = w_val, (n_gen * N^2, N, N),
    with two einsums per Fox term."""
    n = rep.rank
    q = n * n
    basis = skew_basis(n)
    out = np.zeros((len(rep.presentation.generators) * q, n, n), dtype=complex)
    for gen, sign, prefix in word_transport_terms(rep.matrices, word):
        moved = np.einsum("ij,ajk,lk->ail", prefix, basis, prefix.conj())
        out[gen * q:(gen + 1) * q] += sign * np.einsum("aij,jk->aik", moved, w_val)
    return out


def fd_orbit_rank(rep, eps=1e-6, threshold=1e-5):
    """Rank of the finite-difference Jacobian of the conjugation orbit map."""
    n = rep.rank
    q = n * n
    basis = skew_basis(n)
    cols = []
    for a in range(q):
        g = exponential(eps * basis[a])
        gh = g.conj().T
        diff = np.concatenate([
            ((g @ m @ gh - m) / eps).view(float).ravel() for m in rep.matrices
        ])
        cols.append(diff)
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(s > threshold))


def fd_h1_par(rep, eps=1e-6, threshold=1e-5):
    """Parabolic H^1 dimension from finite differences alone."""
    n_params = len(rep.matrices) * rep.rank ** 2
    z1 = n_params - fd_constraint_rank(rep, eps, threshold)
    return z1 - fd_orbit_rank(rep, eps, threshold)


def image_algebra_rank(rep, rng, n_words=80, max_length=12, rtol=1e-8):
    """Complex dimension of the span of the image; N^2 means irreducible."""
    rows = [np.eye(rep.rank, dtype=complex).ravel()]
    for m in rep.matrices:
        rows.append(m.ravel())
    for _ in range(n_words):
        w = random_word(rng, len(rep.matrices), max_length)
        rows.append(evaluate_word(rep, w).ravel())
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(s > rtol * s[0]))


def schur_log(g, angle_tol=1e-8):
    """Principal log of a unitary g from its complex Schur form g = Z T Z^H:
    T is diagonal for a normal matrix, so log g = Z diag(i angle(T_jj)) Z^H.
    Raises BranchCutError on the rule of unitary.principal_log."""
    t, z = scipy.linalg.schur(np.asarray(g, dtype=complex), output="complex")
    theta = np.angle(np.diagonal(t))
    if np.any(np.pi - np.abs(theta) < angle_tol):
        raise BranchCutError("eigenvalue at or near -1; principal log undefined")
    return project_skew((z * (1j * theta)) @ z.conj().T)


# -- the truncated ring R[t]/(t^(k+1)) on coefficient stacks (k+1, n, n) -----


def cauchy_product(a, b):
    """Truncated product: coefficient m is the sum over p <= m of a_p b_(m-p)."""
    out = np.zeros(a.shape, dtype=complex)
    for m in range(a.shape[0]):
        for p in range(m + 1):
            out[m] += a[p] @ b[m - p]
    return out


def power_series(s, weights):
    """sum_d weights[d] s^d, d = 0..k, with powers taken by cauchy_product."""
    k1, n = s.shape[:2]
    power = np.zeros(s.shape, dtype=complex)
    power[0] = np.eye(n)
    out = weights[0] * power
    for d in range(1, k1):
        power = cauchy_product(power, s)
        out = out + weights[d] * power
    return out


def exp_weights(order):
    return [1.0 / factorial(d) for d in range(order + 1)]


def log_weights(order):
    """log(1 + m) = sum_(d >= 1) (-1)^(d+1) m^d / d."""
    return [0.0] + [(-1.0) ** (d + 1) / d for d in range(1, order + 1)]


def oracle_defect_profile(cc, gen_jets, conj_jets, order):
    """Norms of the order-m relator and conjugated-peripheral defects for
    m = 1..order, read off one evaluation at the full order: coefficient m of
    a truncated product depends on coefficients up to m only."""
    rep = cc.rep
    n = rep.rank

    def exp_of(parts, base):
        s = np.zeros((order + 1, n, n), dtype=complex)
        for d, x in enumerate(parts[:order], start=1):
            s[d] = x
        return power_series(s, exp_weights(order)) @ base

    def dagger(a):
        return np.conj(np.swapaxes(a, 1, 2))

    def word(w):
        out = exp_of([], np.eye(n))
        for gen, sign in w:
            out = cauchy_product(out, gens[gen] if sign > 0 else dagger(gens[gen]))
        return out

    gens = [exp_of(list(jets), mat) for jets, mat in zip(gen_jets, rep.matrices)]
    conj = [exp_of(list(jets), np.eye(n)) for jets in conj_jets]
    values = [(word(r), evaluate_word(rep, r)) for r in rep.presentation.relators]
    for i, p in enumerate(rep.presentation.peripherals):
        e = conj[cc.group_of[i]]
        values.append((cauchy_product(cauchy_product(dagger(e), word(p.word)), e),
                       cc.periph_values[i]))
    return [
        float(np.linalg.norm(np.concatenate([
            vec_skew(project_skew(jet[m] @ base.conj().T)) for jet, base in values])))
        for m in range(1, order + 1)
    ]


def jet_order2_defect(cc, umats, xi):
    """Raw order-2 defect of X_1 = u with conjugator parts xi and vanishing
    second-order corrections, by degree-2 jet arithmetic."""
    n, count = cc.rep.rank, len(cc.jet_bases)
    stack = np.zeros((1, count, 2, n, n), dtype=complex)  # X_2 = 0 and zeta_2 = 0
    stack[0, :, 0] = np.concatenate([np.reshape(umats, (-1, n, n)), np.reshape(xi, (-1, n, n))])
    return order_defect(cc, DefectState(cc, 1, 2), stack, 2)[0]


def cone_direction(pairing, rng, steps=60):
    """A unit c with Q(c) = c^T D c = 0, D the pairing form (one coordinate
    vector per pair of basis cocycles), by Gauss-Newton from a random unit
    start; Q is homogeneous, so renormalizing after each step stays on the
    cone.  Returns c and |Q(c)|."""
    h = max(j for _, j in pairing.entries) + 1
    form = np.zeros((h, h, len(pairing.entries[0, 0].coordinates)))
    for (i, j), entry in pairing.entries.items():
        form[i, j] = form[j, i] = entry.coordinates
    c = rng.standard_normal(h)
    c /= np.linalg.norm(c)
    for _ in range(steps):
        half_jac = np.tensordot(c, form, 1)  # Q(c) = c @ half_jac
        q = c @ half_jac
        if np.linalg.norm(q) <= 1e-15:
            break
        c = c - np.linalg.lstsq(2.0 * half_jac.T, q, rcond=None)[0]
        c /= np.linalg.norm(c)
    return c, float(np.linalg.norm(c @ np.tensordot(c, form, 1)))


def sample_q(qmap, c):
    """Q of one coefficient row c (h,) of a QuadraticMap, formed for this
    row alone."""
    cc = qmap.cc
    raw = c @ np.tensordot(c, qmap.form, 1)
    projected = cc.project_peripheral(np.column_stack([raw]))
    coords = cc.obstruction_quotient.T @ (cc.pt_basis.T @ projected)
    return ObstructionClass(coordinates=coords[:, 0],
                            norm=float(np.linalg.norm(coords, axis=0)[0]), cone=cc,
                            defect=projected[:, 0])


def eager_pairing_entries(cc, basis):
    """The pairing entries as a dict (i, j) -> ObstructionClass in sorted key
    order, every class built at once: one obstruction_classes call on the
    pair blocks of the cup form, diagonal pairs first."""
    h = len(basis)
    form = QuadraticMap(cc, [list(v) for v in basis.vectors]).form
    keys = [(i, i) for i in range(h)] + [(i, j) for i in range(h) for j in range(i + 1, h)]
    rows, cols = np.array(keys, dtype=int).reshape(-1, 2).T
    classes = obstruction_classes(cc, form[rows, cols].T[None])[0]
    return dict(sorted(zip(keys, classes)))


def per_column_basis_vectors(cc, basis):
    """The generator parts of the h1 basis, unstacked one matrix column at a
    time."""
    return tuple(tuple(cc.unstack_gen(basis.matrix[:, j])) for j in range(len(basis)))


def newton_charpoly(g):
    """Coefficients c_1 .. c_N of det(tI - g) by Newton's identities on the
    traces of g^0 .. g^N, each power the previous times g."""
    n = len(g)
    power = np.eye(n, dtype=complex)
    p = [np.trace(power)]
    for _ in range(n):
        power = power @ g
        p.append(np.trace(power))
    e = [np.ones((), dtype=complex)]
    for k in range(1, n + 1):
        acc = np.zeros((), dtype=complex)
        for j in range(1, k + 1):
            s = (-1) ** (j - 1)
            acc = acc + s * e[k - j] * p[j]
        e.append(acc / k)
    return np.array([(-1) ** k * e[k] for k in range(1, n + 1)])
