"""Independent oracles for the test suite.

These deliberately avoid the transport/complex machinery under test: the
dimension oracle differentiates the nonlinear constraint map by finite
differences, the irreducibility oracle spans the image algebra with
random words, the ring oracle multiplies truncated jets by the naive
Cauchy double loop over degrees, the order-2 defect oracle evaluates the
relator and conjugated-peripheral words in degree-2 jet arithmetic
instead of the closed-form cup product, the word-direction oracle forms
one Fox term of one word at a time (the per-term loop that the batched
repspace._word_directions over all words replaced), the per-word
transport walks one word and makes one ad_matrix call on its prefixes (the
walk per word that the one word chain of a complex replaced), the dense basis
oracles contract against every entry of the skew basis with einsums (the
vec_skew, ad_matrix and unstack_target einsums, and the three-operand
conjugation of every basis matrix, that the sparse basis kernels of
repvar.unitary replaced), the quadratic-map oracle evaluates
Q of one coefficient row at a time, classing its one raw defect (the
per-sample path that the stacked cohomology.q_norms replaced), the eager
pairing oracle builds every pairing class at once (the dict that the
lazily built pairing entries replaced),
the Newton oracle writes out the characteristic polynomial recursion on
0-d arrays (the scalar operations the library must keep, in their
order), the Newton directions oracle differentiates it for one matrix
with one einsum per power (the per-peripheral path that the stacked
unitary.charpoly_stack replaced), the basis oracle unstacks one h1 basis column at a time (the
per-column loop that the one batched unstacking replaced), the einsum
unstacking forms skew matrices from coordinates against the complex basis
(the einsum that the one real gemm replaced), the per-degree exponential
stores each coefficient it re-forms by its own sum over j <= d and its own
gemm per series (the loop that the one store over degrees lo..m of
IncrementalExp replaced), the per-cocycle cup form
conjugates every Fox term and xi one cocycle at a time (the per-item
products that the stacked right conjugation replaced), the whole cup
form forms each word's pair products by one gemm over all vectors and one
full transposed copy, and symmetrizes all pairs in one sum (the full-size
temporaries that the row-blocked pair products replaced), the list-based
kernel cup form builds one (u, xi) pair of matrix lists per unit and kernel
cochain, converts each column chunk of them to arrays and keeps the cross
block of the whole cup form over the chunk (the round trip that the one
unstacking of all units and kernel columns replaced, and the full chunk
forms that the cross-block writes replaced), the SVD
dimension oracle factors d0 on the cone, d0 on the generators stacked over
one identity per simultaneity group, and every other differential by its
own SVD (the factorization whose rank the closed form of h_dims replaced), and
the logarithm oracle reads the angles off a Schur form (scipy, which only
the test extra installs).  The cone sampler is no oracle: it draws
inputs, directions with Q = 0, from the pairing form the library
computes.  Nor is the direct-sum builder: it makes inputs, reducible
points whose dimensions have closed forms, from the points `find` returns.
"""

from math import factorial

import numpy as np
import scipy.linalg

from repvar.cohomology import (DefectState, Dims, _conjugate, cocycle_form, obstruction_classes,
                               order_defect)
from repvar.presentation import parse_presentation
from repvar.repspace import (Representation, _rank_cut, _residual_blocks, _residual_vector,
                             commutant_dimension, evaluate_word, find_representation,
                             word_transport_terms)
from repvar.truncring import IncrementalExp
from repvar.unitary import (BranchCutError, ad_matrix, exponential, project_skew, skew_basis,
                            unvec_skew, vec_skew)


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
    base = _residual_vector(_residual_blocks(rep))
    basis = skew_basis(n)
    cols = []
    for i in range(len(rep.matrices)):
        for a in range(q):
            mats = list(rep.matrices)
            mats[i] = exponential(eps * basis[a]) @ mats[i]
            pert = Representation(rep.presentation, mats, rep.tolerance)
            cols.append((_residual_vector(_residual_blocks(pert)) - base) / eps)
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
    _, prefixes = word_transport_terms(rep.matrices, word, rep.rank)
    for (gen, sign), prefix in zip(word, prefixes):
        moved = np.einsum("ij,ajk,lk->ail", prefix, basis, prefix.conj())
        out[gen * q:(gen + 1) * q] += sign * np.einsum("aij,jk->aik", moved, w_val)
    return out


def per_word_transport_matrix(rep, word):
    """Real matrix (N^2, n_gen * N^2) of one word's transport in
    B-coordinates: one walk of the word, one ad_matrix call on the stack of
    its prefixes, the terms added into their generator blocks in word
    order."""
    n = rep.rank
    q = n * n
    out = np.zeros((q, len(rep.presentation.generators) * q))
    _, prefixes = word_transport_terms(rep.matrices, word, rep.rank)
    for (gen, sign), ad in zip(word, ad_matrix(prefixes)):
        out[:, gen * q:(gen + 1) * q] += sign * ad
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


class PerDegreeExp(IncrementalExp):
    """IncrementalExp whose store forms one coefficient at a time:
    E_d = sum_(j=1..d) (S^j)_d / j!, then one gemm per series against its
    base, for each degree d = lo..m."""

    def _store(self, lo, m):
        count, n = self.bases.shape[0], self.bases.shape[-1]
        for d in range(lo, m + 1):
            e = self.powers[:, d, :, 1:d + 1, :].swapaxes(-1, -2) @ self.weights[1:d + 1]
            e = e.reshape(-1, count, n, n).swapaxes(0, 1).reshape(count, -1, n)
            self.coeffs[:, d] = (e @ self.bases).reshape(count, -1, n, n).swapaxes(
                0, 1).reshape(-1, n, n)


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


def genus2_surface(n):
    """The closed genus-2 surface group, presented at rank n."""
    return parse_presentation(f"group genus2_u{n}\nrank {n}\ngenerators a b c d\n"
                              "relator a b a' b' c d c' d'\n")


def genus2_direct_sum(blocks):
    """The block-diagonal sum of genus-2 `find` points, one block per
    (rank, seed) pair, the seeds distinct.  Each block must be irreducible
    (commutant 1).  For k pairwise non-isomorphic blocks of total rank N the
    sum has c0 = o2 = k and h1_par = 2 N^2 + 2k."""
    seeds = [seed for _, seed in blocks]
    assert len(set(seeds)) == len(seeds), f"seeds {seeds} repeat"
    reps = [find_representation(genus2_surface(n), seed=seed) for n, seed in blocks]
    for (n, seed), rep in zip(blocks, reps):
        assert commutant_dimension(rep) == 1, f"the U({n}) block at seed {seed} is reducible"
    mats = [scipy.linalg.block_diag(*parts) for parts in zip(*(rep.matrices for rep in reps))]
    return Representation(genus2_surface(sum(n for n, _ in blocks)), mats,
                          max(rep.tolerance for rep in reps))


def sample_q(cc, form, c):
    """Q of one coefficient row c (h,) over the cocycles whose
    cohomology.cocycle_form is form, formed for this row alone: its raw
    defect, then the class of that one defect."""
    raw = c @ np.tensordot(c, form, 1)
    return obstruction_classes(cc, raw[:, None])[0]


def eager_pairing_entries(cc, basis):
    """The pairing entries as a dict (i, j) -> ObstructionClass in sorted key
    order, every class built at once: one obstruction_classes call on the
    pair blocks of the cup form, diagonal pairs first."""
    h = len(basis)
    form = cocycle_form(cc, [list(v) for v in basis.vectors])
    keys = [(i, i) for i in range(h)] + [(i, j) for i in range(h) for j in range(i + 1, h)]
    rows, cols = np.array(keys, dtype=int).reshape(-1, 2).T
    classes = obstruction_classes(cc, form[rows, cols].T)
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


def newton_charpoly_directions(g, dgs):
    """Coefficients c_1 .. c_N of det(tI - g) and their derivatives along
    the directions dgs (M, N, N), (c, dc) of shapes (N,) and (M, N), for the
    one matrix g: Newton's identities on the traces of its powers, each
    power the previous times g, differentiated through dp_k = k tr(g^(k-1)
    dg) with one "ij,aji->a" einsum per power."""
    n, m = len(g), len(dgs)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ g)
    p = [np.trace(power) for power in powers]
    e = [np.ones((), dtype=complex)]
    for k in range(1, n + 1):
        acc = np.zeros((), dtype=complex)
        for j in range(1, k + 1):
            acc = acc + (-1) ** (j - 1) * e[k - j] * p[j]
        e.append(acc / k)
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


def einsum_vec_skew(x):
    """Real B-coordinates of a skew matrix or a stack (..., n, n) by one
    einsum against the dense complex basis."""
    return -np.einsum("aij,...ji->...a", skew_basis(x.shape[-1]), x).real


def einsum_ad_basis(p):
    """g B_a g^H for every matrix g of the stack p (t, n, n) and every basis
    matrix B_a, (t, n^2, n, n), by one three-operand einsum."""
    return np.einsum("tij,ajk,tlk->tail", p, skew_basis(p.shape[-1]), p.conj())


def einsum_ad_matrix(g):
    """Real matrix of X -> g X g^H in basis coordinates by two einsums: the
    conjugated basis, then its coordinates."""
    basis = skew_basis(g.shape[0])
    conj = np.einsum("ij,ajk,lk->ail", g, basis, g.conj())
    return -np.einsum("mij,aji->ma", basis, conj).real


def einsum_unstack_target(cc, v):
    """The matrices of the degree-2 cochains whose target coordinates are the
    columns of v, (cols, words, n, n), by one einsum against the basis."""
    return np.einsum("bac,aij->cbij", v.reshape(-1, cc.q, v.shape[1]), skew_basis(cc.rep.rank))


def einsum_unvec_skew(v, n):
    """Skew matrices from real B-coordinates (..., n^2) by one einsum
    against the complex basis."""
    return np.einsum("...a,aij->...ij", np.asarray(v, dtype=float), skew_basis(n))


def pair_arrays(cc, vectors):
    """The generator parts (b, n_gen, n, n) and conjugator parts
    (b, groups, n, n) of a list of b pairs (u, xi) of matrix lists, the
    arrays cohomology.cup_form takes."""
    n, b = cc.rep.rank, len(vectors)
    us = np.array([list(u) for u, _ in vectors], dtype=complex).reshape(b, cc.n_gen, n, n)
    xis = np.array([list(x) for _, x in vectors], dtype=complex).reshape(b, len(cc.groups), n, n)
    return us, xis


def whole_cup_form(cc, us, xis):
    """cohomology.cup_form with each word's pair products formed by one
    gemm over all vectors, then one full transposed copy, one real gemm to
    coordinates and one full symmetrized sum."""
    n, b, chain = cc.rep.rank, len(us), cc.chain
    words = len(chain.values)
    form = np.zeros((b, b, words * cc.q))
    if b == 0:
        return form
    flat_basis = skew_basis(n).transpose(0, 2, 1).reshape(cc.q, n * n)
    real_basis = np.stack([-flat_basis.real, flat_basis.imag], axis=2).reshape(cc.q, -1).T
    bounds = np.searchsorted(chain.word, np.arange(words + 1))
    for w in range(words):
        terms = slice(bounds[w], bounds[w + 1])
        prefixes, signs = chain.prefixes[terms], chain.sign[terms, None, None, None]
        t = signs * _conjugate(prefixes, us[:, chain.gen[terms]].swapaxes(0, 1))
        left, right = [np.cumsum(t, axis=0) - t], [t]
        if w >= cc.n_rel:
            a1, xi = t.sum(axis=0), xis[:, cc.group_of[w - cc.n_rel]]
            xp = _conjugate(chain.values[w], xi)
            left.append(np.array([-xi, a1]))
            right.append(np.array([a1 + xp, xp]))
        lf, rf = np.concatenate(left), np.concatenate(right)
        k = lf.shape[0]
        prod = lf.transpose(1, 2, 0, 3).reshape(b * n, k * n) \
            @ rf.transpose(0, 2, 1, 3).reshape(k * n, b * n)
        prod = prod.reshape(b, n, b, n).transpose(0, 2, 1, 3).reshape(b * b, n * n)
        coords = (prod.view(float) @ real_basis).reshape(b, b, cc.q)
        form[:, :, w * cc.q:(w + 1) * cc.q] = coords + coords.transpose(1, 0, 2)
    form *= 0.5
    return form


def list_kernel_cup(cc):
    """ConeComplex.kernel_cup from one (generator parts, conjugator parts)
    pair of matrix lists per cone-kernel column and per unit cone cochain,
    each unstacked on its own, and one whole cup form per chunk of as many
    units as there are kernel columns, its pairs converted to arrays."""
    def unstack(v):
        mats = list(unvec_skew(v.reshape(-1, cc.q), cc.rep.rank))
        return mats[:cc.n_gen], mats[cc.n_gen:]

    parts = [unstack(col) for col in cc.cone_kernel.T]
    units = [unstack(e) for e in np.eye(cc.d1_cone.shape[1])]
    cup = np.empty((len(units), len(parts), cc.d1_cone.shape[0]))
    step = max(len(parts), 1)
    for a in range(0, len(units), step):
        chunk = units[a:a + step]
        form = whole_cup_form(cc, *pair_arrays(cc, chunk + parts))
        cup[a:a + step] = form[:len(chunk), len(chunk):]
    return cup


def per_cocycle_cup_form(cc, vectors):
    """cohomology.cup_form with every conjugation g x g^H of a Fox term or a
    conjugator part formed for one cocycle at a time."""
    n, b = cc.rep.rank, len(vectors)
    words = [(r, None) for r in cc.pres.relators] + \
        [(p.word, i) for i, p in enumerate(cc.pres.peripherals)]
    form = np.zeros((b, b, len(words) * cc.q))
    if b == 0:
        return form
    us, xis = pair_arrays(cc, vectors)
    flat_basis = skew_basis(n).transpose(0, 2, 1).reshape(cc.q, n * n)
    real_basis = np.stack([-flat_basis.real, flat_basis.imag], axis=2).reshape(cc.q, -1).T
    for w, (word, i) in enumerate(words):
        _, prefixes = word_transport_terms(cc.rep.matrices, word, n)
        t = np.array([[sign * (prefix @ u[gen] @ prefix.conj().T) for u in us]
                      for (gen, sign), prefix in zip(word, prefixes)],
                     dtype=complex).reshape(-1, b, n, n)
        left, right = [np.cumsum(t, axis=0) - t], [t]
        if i is not None:
            a1, xi = t.sum(axis=0), xis[:, cc.group_of[i]]
            p = cc.periph_values[i]
            xp = np.array([p @ x @ p.conj().T for x in xi])
            left.append(np.array([-xi, a1]))
            right.append(np.array([a1 + xp, xp]))
        lf, rf = np.concatenate(left), np.concatenate(right)
        k = lf.shape[0]
        prod = lf.transpose(1, 2, 0, 3).reshape(b * n, k * n) \
            @ rf.transpose(0, 2, 1, 3).reshape(k * n, b * n)
        prod = prod.reshape(b, n, b, n).transpose(0, 2, 1, 3).reshape(b * b, n * n)
        coords = (prod.view(float) @ real_basis).reshape(b, b, cc.q)
        form[:, :, w * cc.q:(w + 1) * cc.q] = coords + coords.transpose(1, 0, 2)
    form *= 0.5
    return form


def d0_cone(cc):
    """d0 on the cone: d0 on the generators over one identity per
    simultaneity group (its conjugator slot)."""
    return np.vstack([cc.d0_gen] + [np.eye(cc.q)] * len(cc.groups))


def complex_defect(cc):
    """|d1_cone d0_cone|, zero up to rounding on a complex."""
    return float(np.linalg.norm(cc.d1_cone @ d0_cone(cc)))


def svd_dims(cc):
    """The dimension record of cc with every rank, d0 on the cone included,
    cut by _rank_cut from a full SVD of its matrix at the complex's
    threshold and rounding terms, and the gaps of those cuts in assembly
    order."""
    q = cc.q
    words = list(cc.pres.relators) + [p.word for p in cc.pres.peripherals]
    terms = (max(map(len, words), default=0) + 1) ** 2
    ranks, gaps = {}, {}
    matrices = [(f"group_{gi}", gd.map) for gi, gd in enumerate(cc.group_data)]
    matrices += [("d0_generator", cc.d0_gen), ("d0_cone", d0_cone(cc)),
                 ("d1_par", cc.d1_par), ("d1_cone", cc.d1_cone)]
    for name, a in matrices:
        s = np.linalg.svd(a, full_matrices=True)[1]
        ranks[name], gaps[name] = _rank_cut(s, cc.rank_rtol, name, size=max(a.shape),
                                            terms=terms)
    z1_par = cc.n_gen * q - ranks["d1_par"]
    target = cc.n_rel * q + sum(len(members) * q - ranks[f"group_{gi}"]
                                for gi, members in enumerate(cc.groups))
    return Dims(h0=q - ranks["d0_cone"], c0=q - ranks["d0_generator"] if cc.n_gen else q,
                z1_par=z1_par, b1=ranks["d0_generator"], h1_par=z1_par - ranks["d0_generator"],
                h1_cone=cc.d1_cone.shape[1] - ranks["d1_cone"] - ranks["d0_cone"],
                o2=target - ranks["d1_par"], gaps=gaps)
