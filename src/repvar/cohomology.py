"""Deformation complexes for constrained representations.

Two complexes are assembled at a representation rho:

* the cone complex, whose degree-1 unknowns are one skew matrix per
  generator plus one conjugator unknown per simultaneity group, with
  differential rows  u(r_j)  per relator and
  u(gamma_i) - (Id - Ad rho(gamma_i)) xi_{S(i)}  per peripheral;
* the parabolic complex on generator parts alone, where the peripheral
  rows are replaced by the B-orthogonal projection onto the complement
  of the joint image of (Id - Ad rho(gamma_i)) over each group.

The kernel of the parabolic differential modulo coboundaries is the
tangent space of the moduli problem; the quadratic map Q sends a
parabolic cocycle to the class of its order-2 deformation defect in the
operational obstruction quotient (the parabolic degree-2 target modulo
the image of the parabolic differential and the conjugator-kernel shift
directions, which absorb the ambiguity in the canonical minimal-norm
conjugator choice).

Q has a single, closed-form implementation: the order-2 defect of
X_1 = u with conjugator parts xi is a symmetric bilinear form D in (u, xi),
the second-order Fox-calculus term (the cup product H^1 x H^1 -> H^2).
:func:`cup_form` evaluates it on all pairs of the cocycles and the
conjugator-kernel vectors (0, kappa): raw defects, polarized pairing and
shift directions in one.  :class:`QuadraticMap` holds that form over fixed
cocycles and reads off Q of any linear combination of them, since the
canonical xi is linear in u; :func:`obstruction_classes` reduces the
defects in one common quotient.  :func:`obstruction`,
:func:`common_obstruction`, :func:`pairing_tensor`, the failure path and
the cone-kernel moves of :func:`repvar.jets.lift` and
:func:`repvar.jets.probe_cone` (one map over the basis per call) all go
through these functions.

:func:`order_defect` evaluates the higher-order defects of a jet
representation in truncated-ring arithmetic: the generator and conjugator
jets come from one :class:`~repvar.truncring.IncrementalExp`, which a lift
shares across its orders so that each order forms only the exponential
coefficients that changed, then the word products, of which each word's
last product forms coefficient m alone.

All linear algebra is over the B-orthonormal real coordinates of
:func:`repvar.unitary.skew_basis`, where B equals the Euclidean inner
product.  Rank decisions use a relative singular-value threshold with an
explicit ill-conditioning diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .presentation import Word
from .repspace import (IllConditionedError, Representation, _rank_cut, evaluate_word,
                       transport_matrix, word_transport_terms)
# exp_series and unitary_generator_jet are bound here for perfbench/tracer.py,
# which wraps each layer function in every module that binds it and requires
# these bindings; nothing in this module calls them (order_defect drives an
# IncrementalExp, the one exponential they are thin calls of)
from .truncring import (IncrementalExp, MatrixJet, exp_series,  # noqa: F401
                        product_coefficient, unitary_generator_jet, word_jet)
from .unitary import ad_matrix, project_skew, skew_basis, unvec_skew, vec_skew


class NotACocycleError(ValueError):
    """The input generator part is not a parabolic cocycle within tolerance."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(f"parabolic cocycle residual {residual:.3e} > {tolerance:.3e}")


@dataclass(frozen=True)
class Cochain1:
    generator_part: tuple[np.ndarray, ...]
    conjugator_part: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Cochain2:
    relator_part: tuple[np.ndarray, ...]
    peripheral_part: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Dims:
    h0: int
    c0: int
    z1_par: int
    b1: int
    h1_par: int
    h1_cone: int
    o2: int
    gaps: dict = field(compare=False, default_factory=dict)

    def to_json(self) -> dict:
        keys = ("h0", "c0", "z1_par", "b1", "h1_par", "h1_cone", "o2")
        return {**{k: getattr(self, k) for k in keys},
                "rank_gaps": {k: self.gaps[k] for k in sorted(self.gaps)}}


@dataclass(frozen=True)
class CohomologyBasis:
    """B-orthonormal parabolic cocycles spanning a complement of the coboundaries."""

    vectors: tuple[tuple[np.ndarray, ...], ...]
    matrix: np.ndarray  # (n_gen * N^2, h1_par), columns orthonormal
    dims: Dims

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ObstructionClass:
    coordinates: np.ndarray
    norm: float
    cone: ConeComplex = field(repr=False, compare=False)
    defect: np.ndarray = field(repr=False, compare=False)  # projected, target coordinates

    @cached_property
    def representative(self) -> Cochain2:
        """The projected defect as a degree-2 cochain, built on first access."""
        return self.cone.unstack_target(self.defect[:, None])[0]

    def to_json(self) -> dict:
        return {"coordinates": [float(c) for c in self.coordinates], "norm": self.norm}


@dataclass(frozen=True)
class PairingTensor:
    entries: dict  # (i, j) with i <= j -> ObstructionClass
    verdict: bool
    tolerance: float

    def max_norm(self) -> float:
        return max((e.norm for e in self.entries.values()), default=0.0)


def check_tolerance(tolerance: float) -> None:
    """Reject a tolerance that is not a finite number > 0: against NaN every
    comparison is false, so no defect would ever count as too large."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")


class _LstsqSolver:
    """Cached SVD factorization for minimal-norm least squares against one matrix."""

    def __init__(self, a: np.ndarray, rtol: float, context: str, gaps: dict | None = None):
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        self.rank = _rank_cut(s, rtol, context, gaps, size=max(a.shape))
        self.u_r = u[:, :self.rank]
        self.s_r = s[:self.rank]
        self.vt_r = vt[:self.rank]
        self.nullspace = vt[self.rank:].T
        self.left_null = u[:, self.rank:]

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        proj = self.u_r.T @ b
        x = self.vt_r.T @ (proj / self.s_r)
        resid = float(np.linalg.norm(b - self.u_r @ proj))
        return x, resid


class _GroupData:
    """Joint conjugator map data for one simultaneity group."""

    def __init__(self, members: tuple[int, ...], blocks: list[np.ndarray], rtol: float,
                 context: str, gaps: dict | None):
        self.members = members
        self.map = np.vstack(blocks)  # (|S| q, q)
        solver = _LstsqSolver(self.map, rtol, context, gaps)
        self.rank = solver.rank
        self.col = solver.u_r                 # basis of the joint image
        self.complement = solver.left_null    # B-orthogonal complement
        self.kernel = solver.nullspace        # joint centralizer directions
        self.pinv = solver.vt_r.T @ ((1.0 / solver.s_r)[:, None] * solver.u_r.T)


class ConeComplex:
    """Assembled linear data of both deformation complexes at a representation.

    The least-squares factorization of the cone differential is built once
    here and reused for every lifting order (the order-zero reduction of the
    order-m systems is always the same matrix).
    """

    def __init__(self, rep: Representation, rank_rtol: float = 1e-8):
        pres = rep.presentation
        n = rep.rank
        q = n * n
        self.rep = rep
        self.pres = pres
        self.q = q
        self.rank_rtol = float(rank_rtol)
        self.n_gen = len(pres.generators)
        self.n_rel = len(pres.relators)
        self.n_per = len(pres.peripherals)
        self.groups = pres.groups
        self.gaps: dict = {}

        self.rel_values = [evaluate_word(rep, r) for r in pres.relators]
        self.periph_values = [evaluate_word(rep, p.word) for p in pres.peripherals]
        # conjugate transposes of every word's base value, relators first
        self.word_values_h = np.array(self.rel_values + self.periph_values,
                                      dtype=complex).reshape(-1, n, n).conj().swapaxes(1, 2)
        # bases of the stacked generator and conjugator jets of order_defect
        self.jet_bases = np.array(list(rep.matrices) + [np.eye(n)] * len(self.groups),
                                  dtype=complex).reshape(-1, n, n)
        ad_gen = [ad_matrix(m) for m in rep.matrices]
        ad_per = [ad_matrix(w) for w in self.periph_values]
        eye = np.eye(q)

        self.d0_gen = np.vstack([eye - a for a in ad_gen]) if self.n_gen else np.zeros((0, q))
        self.d0_full = np.vstack([self.d0_gen] + [eye] * len(self.groups))

        self.rel_rows = [transport_matrix(rep, r) for r in pres.relators]
        self.per_rows = [transport_matrix(rep, p.word) for p in pres.peripherals]
        self.group_of = {i: gi for gi, members in enumerate(self.groups) for i in members}
        self.group_data = [
            _GroupData(members, [eye - ad_per[i] for i in members], self.rank_rtol,
                       f"group_{gi}", self.gaps)
            for gi, members in enumerate(self.groups)
        ]

        # cone differential on (generator parts, conjugator parts)
        rows = (self.n_rel + self.n_per) * q
        cols = (self.n_gen + len(self.groups)) * q
        d1_cone = np.zeros((rows, cols))
        for j, block in enumerate(self.rel_rows):
            d1_cone[j * q:(j + 1) * q, :self.n_gen * q] = block
        for i, block in enumerate(self.per_rows):
            r0 = (self.n_rel + i) * q
            d1_cone[r0:r0 + q, :self.n_gen * q] = block
            gi = self.group_of[i]
            pos = list(self.groups[gi]).index(i)
            c0 = (self.n_gen + gi) * q
            d1_cone[r0:r0 + q, c0:c0 + q] = -self.group_data[gi].map[pos * q:(pos + 1) * q]
        self.d1_cone = d1_cone

        # parabolic differential on generator parts, peripheral rows projected
        unprojected = np.vstack(self.rel_rows + self.per_rows) if rows \
            else np.zeros((0, self.n_gen * q))
        self.d1_par = self.project_peripheral(unprojected)

        self.par_target_dim = self.n_rel * q + sum(
            len(gd.members) * q - gd.rank for gd in self.group_data
        )
        # orthonormal basis of the parabolic degree-2 target inside the big space
        pt_cols = [np.eye(rows, q, -j * q) for j in range(self.n_rel)]
        for gd in self.group_data:
            comp = gd.complement
            block = np.zeros((rows, comp.shape[1]))
            for pos, i in enumerate(gd.members):
                r0 = (self.n_rel + i) * q
                block[r0:r0 + q, :] = comp[pos * q:(pos + 1) * q, :]
            pt_cols.append(block)
        self.pt_basis = np.hstack(pt_cols) if pt_cols else np.zeros((rows, 0))

        self._svd_d0_gen = _LstsqSolver(self.d0_gen, self.rank_rtol, "d0_generator", self.gaps)
        self._svd_d0_full = _LstsqSolver(self.d0_full, self.rank_rtol, "d0_cone", self.gaps)
        self._svd_d1_par = _LstsqSolver(self.d1_par, self.rank_rtol, "d1_par", self.gaps)
        self.cone_solver = _LstsqSolver(self.d1_cone, self.rank_rtol, "d1_cone", self.gaps)
        self.cone_kernel = self.cone_solver.nullspace
        self.complex_defect = float(np.linalg.norm(self.d1_cone @ self.d0_full))

        # the cone cochains (0, kappa), kappa a joint-centralizer kernel
        # column in group g's conjugator slot
        self.kernel_cochains = []
        for g, gd in enumerate(self.group_data):
            for col in gd.kernel.T:
                xi = np.zeros((len(self.groups), n, n), dtype=complex)
                xi[g] = unvec_skew(col, n)
                self.kernel_cochains.append((np.zeros((self.n_gen, n, n)), xi))

    @cached_property
    def shift_free_quotient(self) -> np.ndarray:
        """The obstruction quotient basis when there are no shift directions."""
        return _quotient_basis(self, [])

    @cached_property
    def cone_kernel_parts(self) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
        """The cone-kernel columns as (generator parts, conjugator parts)."""
        return [self.unstack_cone(col) for col in self.cone_kernel.T]

    # -- coordinate helpers ------------------------------------------------

    def stack_gen(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        return vec_skew(np.asarray(mats).reshape(-1, self.rep.rank, self.rep.rank)).ravel()

    def unstack_gen(self, v: np.ndarray) -> list[np.ndarray]:
        return list(unvec_skew(v[:self.n_gen * self.q].reshape(-1, self.q), self.rep.rank))

    def unstack_cone(self, v: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        mats = list(unvec_skew(v.reshape(-1, self.q), self.rep.rank))
        return mats[:self.n_gen], mats[self.n_gen:]

    def unstack_target(self, v: np.ndarray) -> list[Cochain2]:
        """The degree-2 cochains whose target coordinates are the columns of v."""
        blocks = np.einsum("bac,aij->cbij", v.reshape(-1, self.q, v.shape[1]),
                           skew_basis(self.rep.rank))
        return [Cochain2(tuple(c[:self.n_rel]), tuple(c[self.n_rel:])) for c in blocks]

    def project_peripheral(self, v: np.ndarray) -> np.ndarray:
        """Project the peripheral blocks onto the complements of the joint images."""
        out = v.copy()
        for gd in self.group_data:
            stacked = np.concatenate([
                v[(self.n_rel + i) * self.q:(self.n_rel + i + 1) * self.q]
                for i in gd.members
            ])
            stacked = stacked - gd.col @ (gd.col.T @ stacked)
            for pos, i in enumerate(gd.members):
                r0 = (self.n_rel + i) * self.q
                out[r0:r0 + self.q] = stacked[pos * self.q:(pos + 1) * self.q]
        return out

    def cocycle_parts(self, u, pre_tolerance: float) -> list[np.ndarray]:
        """Generator parts of u (a Cochain1 or one matrix per generator),
        checked to be a parabolic cocycle within pre_tolerance * max(1, |u|)."""
        parts = list(u.generator_part) if isinstance(u, Cochain1) else list(u)
        if len(parts) != self.n_gen:
            raise ValueError(f"{len(parts)} generator parts for {self.n_gen} generators")
        uvec = self.stack_gen(parts)
        resid = float(np.linalg.norm(self.d1_par @ uvec))
        bound = pre_tolerance * max(1.0, float(np.linalg.norm(uvec)))
        if resid > bound:
            raise NotACocycleError(resid, bound)
        return parts

    def canonical_xi(self, umats: Sequence[np.ndarray]) -> tuple[list[np.ndarray], float]:
        """Minimal-norm conjugator parts solving the peripheral rows jointly per group."""
        n = self.rep.rank
        uvec = self.stack_gen(umats)
        values = [row @ uvec for row in self.per_rows]
        xis = []
        worst = 0.0
        for gd in self.group_data:
            stacked = np.concatenate([values[i] for i in gd.members])
            x = gd.pinv @ stacked
            worst = max(worst, float(np.linalg.norm(gd.map @ x - stacked)))
            xis.append(unvec_skew(x, n))
        return xis, worst


def assemble_complex(rep: Representation, rank_rtol: float = 1e-8) -> ConeComplex:
    return ConeComplex(rep, rank_rtol)


def as_cone(rep_or_cone, rank_rtol: float = 1e-8) -> ConeComplex:
    if isinstance(rep_or_cone, ConeComplex):
        return rep_or_cone
    return ConeComplex(rep_or_cone, rank_rtol)


def cocycle_transport(rep: Representation, u, word: Word) -> np.ndarray:
    """Twisted derivative of the word map at rho in direction u (generator part)."""
    parts = u.generator_part if isinstance(u, Cochain1) else u
    out = np.zeros((rep.rank, rep.rank), dtype=complex)
    for gen, sign, prefix in word_transport_terms(rep.matrices, word):
        out = out + sign * (prefix @ parts[gen] @ prefix.conj().T)
    return out


def coboundary(rep: Representation, x: np.ndarray) -> Cochain1:
    """First-order conjugation direction: generator parts (Id - Ad rho(x_j)) X,
    conjugator part X for every simultaneity group."""
    gen = tuple(x - m @ x @ m.conj().T for m in rep.matrices)
    conj = tuple(x.copy() for _ in rep.presentation.groups)
    return Cochain1(gen, conj)


def h_dims(rep_or_cone, rank_rtol: float = 1e-8) -> Dims:
    """Dimension record of both complexes, via rank-revealing factorizations."""
    cc = as_cone(rep_or_cone, rank_rtol)
    q = cc.q
    c0 = q - cc._svd_d0_gen.rank if cc.n_gen else q
    b1 = cc._svd_d0_gen.rank
    h0 = q - cc._svd_d0_full.rank
    z1_par = cc.n_gen * q - cc._svd_d1_par.rank
    h1_par = z1_par - b1
    h1_cone = cc.d1_cone.shape[1] - cc.cone_solver.rank - cc._svd_d0_full.rank
    o2 = cc.par_target_dim - cc._svd_d1_par.rank
    return Dims(h0=h0, c0=c0, z1_par=z1_par, b1=b1, h1_par=h1_par,
                h1_cone=h1_cone, o2=o2, gaps=dict(cc.gaps))


def h1_basis(rep_or_cone, rank_rtol: float = 1e-8) -> CohomologyBasis:
    """B-orthonormal basis of the parabolic cocycles modulo coboundaries."""
    cc = as_cone(rep_or_cone, rank_rtol)
    dims = h_dims(cc)
    z = cc._svd_d1_par.nullspace      # (n_gen q, z1_par)
    cb = cc._svd_d0_gen.u_r           # image of the generator part of d0
    if z.shape[1] == 0:
        mat = np.zeros((cc.n_gen * cc.q, 0))
        return CohomologyBasis(vectors=(), matrix=mat, dims=dims)
    w = z - cb @ (cb.T @ z)
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    count = int(np.sum(s > 0.5))  # singular values here cluster at 1 and 0
    if count != dims.h1_par:
        raise IllConditionedError("h1 basis projection", (count, dims.h1_par), 0.5)
    mat = u[:, :count]
    vectors = tuple(tuple(cc.unstack_gen(mat[:, j])) for j in range(count))
    return CohomologyBasis(vectors=vectors, matrix=mat, dims=dims)


# -- the quadratic map Q -----------------------------------------------------


def order_defect(cc: ConeComplex, gen_jets: Sequence[Sequence[np.ndarray]],
                 conj_jets: Sequence[Sequence[np.ndarray]], m: int,
                 state: IncrementalExp | None = None) -> np.ndarray:
    """Order-m defect of the jet representation with the given coefficient jets.

    Relator rows are the t^m coefficients of the relator words against their
    base values; peripheral rows are the t^m coefficients of the conjugated
    peripheral words against the base values.  Exact truncated arithmetic;
    the dependence on the order-m jets is affine with matrix d1_cone.

    The series of every generator and every conjugator are stacked and
    exponentiated by ``state``, an :class:`~repvar.truncring.IncrementalExp`
    over ``cc.jet_bases`` (the generator matrices, then the identity per
    conjugator) of order at least m; a state shared by the orders of one lift
    forms only the degrees whose series changed since its last call.
    Without one, a fresh state is built.  Word prefixes are full truncated
    products; each relator's last product and each peripheral's outer
    conjugation form coefficient m alone.  Coefficients past order m are
    ignored.
    """
    n = cc.rep.rank
    series = np.zeros((len(cc.jet_bases), m, n, n), dtype=complex)
    for b, jets in enumerate([*gen_jets, *conj_jets]):
        if len(jets):
            series[b, :min(len(jets), m)] = jets[:m]
    state = IncrementalExp(cc.jet_bases, m) if state is None else state
    stacked = [MatrixJet(c) for c in state.jets(series)]
    gen, conj = stacked[:cc.n_gen], stacked[cc.n_gen:]
    # an empty relator is the identity times the identity, top coefficient 0
    tops = [product_coefficient(word_jet(gen, r[:-1], m, n), word_jet(gen, r[-1:], m, n), m)
            for r in cc.pres.relators]
    for i, p in enumerate(cc.pres.peripherals):
        e = conj[cc.group_of[i]]
        tops.append(product_coefficient(e.dagger(), word_jet(gen, p.word, m, n) @ e, m))
    if not tops:
        return np.zeros(0)
    return vec_skew(project_skew(np.array(tops) @ cc.word_values_h)).ravel()


def cup_form(cc: ConeComplex, vectors: Sequence) -> np.ndarray:
    """The order-2 defect as a symmetric bilinear form D on all pairs of b
    vectors (u, xi), shape (b, b, target dim): D(v, v) is the raw order-2
    defect of X_1 = u with conjugator parts xi.

    Per word, with T_p the Fox terms of word_transport_terms, the t^2
    coefficient is sum_(q<p) T_q T_p + sum_p T_p^2 / 2; a peripheral word P
    conjugated by exp(t xi) adds xi^2/2 + xi'^2/2 - xi a_1 - xi xi' + a_1 xi',
    with a_1 = sum_p T_p and xi' = P xi P^H.  Squares and symmetrized products
    of skew matrices are Hermitian and drop out of the skew part, so D(a, c) is
    the symmetrized sum_k L_k(a) R_k(c) over L = [sum_(q<p) T_q, -xi, a_1],
    R = [T_p, a_1 + xi', xi']: one gemm per word for every pair.
    """
    n, b = cc.rep.rank, len(vectors)
    words = [(r, None) for r in cc.pres.relators] + \
        [(p.word, i) for i, p in enumerate(cc.pres.peripherals)]
    form = np.zeros((b, b, len(words) * cc.q))
    if b == 0:
        return form
    us = np.array([list(u) for u, _ in vectors], dtype=complex).reshape(b, cc.n_gen, n, n)
    xis = np.array([list(x) for _, x in vectors], dtype=complex).reshape(b, len(cc.groups), n, n)
    # vec_skew(x) = -Re(flat(x) . flat_basis) as one real gemm on the
    # interleaved (re, im) entries of x
    flat_basis = skew_basis(n).transpose(0, 2, 1).reshape(cc.q, n * n)
    real_basis = np.stack([-flat_basis.real, flat_basis.imag], axis=2).reshape(cc.q, -1).T
    for w, (word, i) in enumerate(words):
        t = np.array([sign * (prefix @ us[:, gen] @ prefix.conj().T)
                      for gen, sign, prefix in word_transport_terms(cc.rep.matrices, word)],
                     dtype=complex).reshape(-1, b, n, n)
        left, right = [np.cumsum(t, axis=0) - t], [t]  # strict prefix sums of T_p
        if i is not None:
            a1, xi = t.sum(axis=0), xis[:, cc.group_of[i]]
            xp = cc.periph_values[i] @ xi @ cc.periph_values[i].conj().T
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


class QuadraticMap:
    """Q on the span of fixed parabolic cocycles u_1..u_h, read off one
    :func:`cup_form` over the cocycles (with their canonical conjugator parts)
    and the conjugator-kernel vectors (0, kappa).

    The canonical xi is linear in u, so for u = sum c_i u_i the raw defect
    D(u, u) is c^T D c, and the raw defect moves by 2 D(u, kappa) +
    D(kappa, kappa) = 2 sum c_i D(u_i, kappa) + D(kappa, kappa) when xi moves
    along a kernel column kappa.
    """

    def __init__(self, cc: ConeComplex, cocycles: Sequence[Sequence[np.ndarray]]):
        self.cc = cc
        self.h = h = len(cocycles)
        n = cc.rep.rank
        xis = [cc.canonical_xi(u)[0] for u in cocycles]
        self.form = cup_form(cc, list(zip(cocycles, xis)) + cc.kernel_cochains)
        self.kernel_self = np.einsum("kkt->kt", self.form[h:, h:])
        self.vectors = np.array([cc.stack_gen(u) for u in cocycles]).reshape(h, cc.n_gen * cc.q)
        self.xis = np.array([list(x) for x in xis], dtype=complex).reshape(
            h, len(cc.groups), n, n)

    def shifts(self, c: np.ndarray) -> list[np.ndarray]:
        """Unit directions along which the raw defect of u = sum c_i u_i moves
        when xi moves inside the joint-centralizer kernel; moves below
        1e-12 (1 + |u| + max |xi|) are rounding and are dropped."""
        if len(self.kernel_self) == 0:
            return []
        xinorm = max((float(np.linalg.norm(x)) for x in np.tensordot(c, self.xis, 1)),
                     default=0.0)
        floor = 1e-12 * (1.0 + float(np.linalg.norm(c @ self.vectors)) + xinorm)
        cross = np.tensordot(c, self.form[:self.h, self.h:], 1)
        diff = self.cc.project_peripheral((2.0 * cross + self.kernel_self).T)
        size = np.linalg.norm(diff, axis=0)
        keep = size > floor
        return list((diff[:, keep] / size[keep]).T)

    def __call__(self, c: np.ndarray) -> ObstructionClass:
        """Q(u) for u = sum c_i u_i, alone in its quotient."""
        raw = c @ np.tensordot(c, self.form[:self.h, :self.h], 1)
        return obstruction_classes(self.cc, [raw], self.shifts(c))[0]

    def pooled_shifts(self) -> list[np.ndarray]:
        """The shift directions of every u_i, pooled."""
        return [d for c in np.eye(self.h) for d in self.shifts(c)]


def _quotient_basis(cc: ConeComplex, shifts: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal basis, in parabolic-target coordinates, of the complement
    of Im(d1_par) plus the shift directions."""
    cols = [cc.pt_basis.T @ cc.d1_par] if cc.d1_par.size else []
    if shifts:
        cols.append(cc.pt_basis.T @ np.column_stack(shifts))
    if cols:
        a = np.hstack(cols)
        norms = np.linalg.norm(a, axis=0)
        keep = norms > 1e-13 * max(1.0, float(norms.max(initial=0.0)))
        if keep.any():
            u, s, _ = np.linalg.svd(a[:, keep] / norms[keep], full_matrices=True)
            return u[:, _rank_cut(s, cc.rank_rtol, "obstruction quotient", size=max(a.shape)):]
    return np.eye(cc.par_target_dim)


def obstruction_classes(cc: ConeComplex, defects: Sequence[np.ndarray],
                        shifts: Sequence[np.ndarray]) -> list[ObstructionClass]:
    """Classes of raw defects in one common quotient O^2, so their coordinates
    are directly comparable.

    O^2 is the parabolic degree-2 target modulo Im(d1_par) plus the shift
    directions; its coordinates come from an orthonormal basis of that
    complement in parabolic-target coordinates.
    """
    if not defects:
        return []
    quotient = _quotient_basis(cc, shifts) if shifts else cc.shift_free_quotient
    projected = cc.project_peripheral(np.column_stack(defects))
    coords = quotient.T @ (cc.pt_basis.T @ projected)
    norms = np.linalg.norm(coords, axis=0)
    return [ObstructionClass(coordinates=coords[:, j], norm=float(norms[j]), cone=cc,
                             defect=projected[:, j])
            for j in range(len(defects))]


def obstruction(rep_or_cone, u, pre_tolerance: float = 1e-6,
                rank_rtol: float = 1e-8) -> ObstructionClass:
    """The quadratic map Q at a parabolic cocycle generator part.

    Solves the canonical minimal-norm conjugator parts, evaluates the exact
    order-2 relator and conjugated-peripheral defects with vanishing
    second-order corrections in closed form (:func:`cup_form`), and reduces
    the projected defect in the operational obstruction quotient.  Q(l u) equals
    l^2 Q(u) and Q vanishes on coboundary directions.
    """
    return common_obstruction(rep_or_cone, [u], pre_tolerance, rank_rtol)[0]


def common_obstruction(rep_or_cone, us: Sequence, pre_tolerance: float = 1e-6,
                       rank_rtol: float = 1e-8) -> list[ObstructionClass]:
    """Obstruction classes of several cocycles reduced in one common quotient,
    so their coordinate vectors are directly comparable."""
    cc = as_cone(rep_or_cone, rank_rtol)
    cocycles = [cc.cocycle_parts(u, pre_tolerance) for u in us]
    qmap = QuadraticMap(cc, cocycles)
    return obstruction_classes(cc, [qmap.form[i, i] for i in range(len(cocycles))],
                               qmap.pooled_shifts())


def pairing_tensor(rep_or_cone, basis: CohomologyBasis, tolerance: float = 1e-8,
                   rank_rtol: float = 1e-8) -> PairingTensor:
    """Polarized quadratic map on a cohomology basis, in a common quotient.

    B(u, v) = (Q(u + v) - Q(u) - Q(v)) / 2 = D(u, v), read off one
    :func:`cup_form` over the basis, symmetric by construction.  The
    verdict is True iff every entry norm is at most the tolerance, which is
    the cup-product smoothness criterion.
    """
    check_tolerance(tolerance)
    cc = as_cone(rep_or_cone, rank_rtol)
    h = len(basis)
    qmap = QuadraticMap(cc, [list(v) for v in basis.vectors])
    keys = [(i, i) for i in range(h)] + [(i, j) for i in range(h) for j in range(i + 1, h)]
    classes = obstruction_classes(cc, [qmap.form[key] for key in keys], qmap.pooled_shifts())
    entries = dict(sorted(zip(keys, classes)))
    verdict = all(e.norm <= tolerance for e in entries.values())
    return PairingTensor(entries=entries, verdict=verdict, tolerance=tolerance)
