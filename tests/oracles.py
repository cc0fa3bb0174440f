"""Independent oracles for the test suite.

These deliberately avoid the transport/complex machinery under test: the
dimension oracle differentiates the nonlinear constraint map by finite
differences, the irreducibility oracle spans the image algebra with random
words, the ring oracle multiplies truncated jets by the naive Cauchy
double loop over degrees, and the order-2 defect oracle evaluates the
relator and conjugated-peripheral words in degree-2 jet arithmetic instead
of the closed-form cup product.  The cone sampler is no oracle: it draws
inputs, directions with Q = 0, from the pairing form the library computes.
"""

from math import factorial

import numpy as np

from repvar.cohomology import order_defect
from repvar.repspace import Representation, _residual_vector, evaluate_word
from repvar.unitary import exponential, project_skew, skew_basis, vec_skew


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
    return order_defect(cc, [[u] for u in umats], [[x] for x in xi], 2)


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
