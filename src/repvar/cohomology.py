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
parabolic cocycle to the class of its order-2 deformation defect in O^2,
the parabolic degree-2 target modulo Im(d1_par).  The conjugator part is
fixed only up to the joint centralizer of its group; moving it by kappa
moves the defect on peripheral row i by 1/2 [a_1, kappa], a_1 the
first-order transport of u along gamma_i, and leaves every other row.  On a
parabolic cocycle a_1 = (Id - Ad rho(gamma_i)) xi, so the move is
(Id - Ad rho(gamma_i)) [xi, kappa], inside the joint image that the
peripheral projection removes: the canonical minimal-norm xi moves no class.

Q has a single, closed-form implementation: the order-2 defect of
X_1 = u with conjugator parts xi is a symmetric bilinear form D in (u, xi),
the second-order Fox-calculus term (the cup product H^1 x H^1 -> H^2).
:func:`cup_form` evaluates it, as a plain array, on all pairs of given
vectors: raw defects and polarized pairing in one.  :func:`cocycle_form` is
that form over parabolic cocycles with their canonical conjugator parts;
since the canonical xi is linear in u, Q of u = sum c_i u_i is read off it
as c^T D c, and :func:`q_norms` reads |Q| of a stack of coefficient rows in
one batched evaluation.  A raw defect's O^2 coordinates are one product
with one functional, :attr:`ConeComplex.o2_map`, in :func:`q_norms`,
:func:`pairing_tensor` and :func:`obstruction_classes` alike.
:func:`obstruction`, :func:`common_obstruction`, the failure path of
:func:`repvar.jets.lift`, Q in :func:`repvar.jets.probe_cone` (the form over
the basis, kept per basis by :meth:`ConeComplex.basis_form`) and the
cone-kernel moves of both (:attr:`ConeComplex.kernel_cup`) all go through
these functions.

:func:`order_defect` evaluates the higher-order defects of a stack of jet
representations in truncated-ring arithmetic, on a :class:`DefectState`
that a lift shares across its orders: its
:class:`~repvar.truncring.IncrementalExp` forms the generator and conjugator
jets and reports the lowest degree lo that changed, and the word products
(relator prefixes, each peripheral word times its conjugator; the
:class:`ProductPlan` of the complex) keep their coefficients below lo and
form only lo..m, each by the sum a full truncated product forms.  Each
word's last product forms coefficient m alone.

All linear algebra is over the B-orthonormal real coordinates of
:func:`repvar.unitary.skew_basis`, where B equals the Euclidean inner
product.  Rank decisions use a relative singular-value threshold with an
explicit ill-conditioning diagnostic.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .presentation import Record, Word
from .repspace import (IllConditionedError, Representation, _rank_cut, _word_chain,
                       transport_matrix, word_transport_terms)
# exp_series, unitary_generator_jet and word_jet are bound here for
# perfbench/tracer.py, which wraps each layer function in every module that
# binds it and requires these bindings; nothing in this module calls them
# (order_defect drives an IncrementalExp, the one exponential the first two
# are thin calls of, and forms its word products in a DefectState)
from .truncring import (IncrementalExp, exp_series, product_coefficient,  # noqa: F401
                        toeplitz_rows, unitary_generator_jet, word_jet)
from .unitary import ad_matrix, check_tolerance, project_skew, skew_basis, unvec_skew, vec_skew


# the cocycle precondition of obstruction, common_obstruction and lift,
# relative to max(1, |u|)
COCYCLE_TOL = 1e-6


class NotACocycleError(ValueError):
    """The input generator part is not a parabolic cocycle within tolerance."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(f"parabolic cocycle residual {residual:.3e} > {tolerance:.3e}")


class Cochain1(NamedTuple):
    generator_part: tuple[np.ndarray, ...]
    conjugator_part: tuple[np.ndarray, ...]


class Cochain2(NamedTuple):
    relator_part: tuple[np.ndarray, ...]
    peripheral_part: tuple[np.ndarray, ...]


class Dims(Record):
    """The dimensions, and the rank gap of each rank decision, which
    equality ignores."""

    _fields = ("h0", "c0", "z1_par", "b1", "h1_par", "h1_cone", "o2", "gaps")
    _compare = _fields[:-1]

    def __init__(self, h0: int, c0: int, z1_par: int, b1: int, h1_par: int, h1_cone: int,
                 o2: int, gaps: dict | None = None):
        self._set(h0=h0, c0=c0, z1_par=z1_par, b1=b1, h1_par=h1_par, h1_cone=h1_cone, o2=o2,
                  gaps={} if gaps is None else gaps)

    def to_json(self) -> dict:
        return {**{k: getattr(self, k) for k in self._compare},
                "rank_gaps": {k: self.gaps[k] for k in sorted(self.gaps)}}


class CohomologyBasis(Record):
    """B-orthonormal parabolic cocycles spanning a complement of the coboundaries."""

    vectors: tuple[tuple[np.ndarray, ...], ...]
    matrix: np.ndarray  # (n_gen * N^2, h1_par), columns orthonormal
    dims: Dims
    _fields = ("vectors", "matrix", "dims")

    def __init__(self, vectors: tuple[tuple[np.ndarray, ...], ...], matrix: np.ndarray,
                 dims: Dims):
        self._set(vectors=vectors, matrix=matrix, dims=dims)

    def __len__(self) -> int:
        return len(self.vectors)


class ObstructionClass(Record):
    """The O^2 class of a raw defect; its peripheral projection ``defect``
    and that as a Cochain2, ``representative``, are built when first read.
    Equality and repr leave out ``cone`` and ``raw``."""

    _fields = ("coordinates", "norm")

    def __init__(self, coordinates: np.ndarray, norm: float, cone: ConeComplex,
                 raw: np.ndarray):
        self._set(coordinates=coordinates, norm=norm, cone=cone, raw=raw)

    @cached_property
    def defect(self) -> np.ndarray:
        return self.cone.project_peripheral(self.raw)

    @cached_property
    def representative(self) -> Cochain2:
        return self.cone.unstack_target(self.defect[:, None])[0]

    def to_json(self) -> dict:
        return {"coordinates": [float(c) for c in self.coordinates], "norm": self.norm}


class _PairingEntries(Mapping):
    """Read-only mapping (i, j), 0 <= i <= j < h, in sorted key order ->
    ObstructionClass of the pair's raw defect in a basis form (h, h, dim):
    the (h, h) ``norms`` need no class, and each is built on first access."""

    def __init__(self, cc: ConeComplex, form: np.ndarray):
        self._cc, self._form, self._built = cc, form, {}
        self._coords = rowwise(form, cc.o2_map.T)
        self.norms = row_norms(self._coords)

    def __getitem__(self, key) -> ObstructionClass:
        cls = self._built.get(key)
        if cls is None:
            k = np.asarray(key)
            if (k.shape != (2,) or k.dtype.kind not in "iu"
                    or not 0 <= k[0] <= k[1] < len(self._form)):
                raise KeyError(key)
            # setdefault: of two threads that build the same class, both
            # return the one stored first
            cls = self._built.setdefault(key, ObstructionClass(
                coordinates=self._coords[key], norm=float(self.norms[key]), cone=self._cc,
                raw=self._form[key]))
        return cls

    def __iter__(self) -> Iterator:
        h = len(self._form)
        return ((i, j) for i in range(h) for j in range(i, h))

    def __len__(self) -> int:
        return len(self._form) * (len(self._form) + 1) // 2

    def __repr__(self) -> str:
        return repr(dict(self))


class PairingTensor(NamedTuple):
    entries: _PairingEntries  # (i, j) with i <= j -> ObstructionClass
    verdict: bool
    tolerance: float

    def max_norm(self) -> float:
        return float(self.entries.norms.max(initial=0.0))


def rowwise(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a stack of rows a (..., d), one vector-matrix product per
    row.  Merging these vector products into one gemm would swap each row's
    gemv for a gemm kernel, which rounds differently, so a sample's result
    would depend on whether samples are stacked with it.

    The rule for every stacked product: a factor that all stack rows share
    on the right may be merged along the rows (M) of one gemm, since each
    row then comes out bitwise as from one gemm per row (OpenBLAS 0.3.31,
    SkylakeX kernels, main and tail rows alike; the tests check it on the
    core the test header names); a factor shared on the left, which would
    merge along the columns, and a product of per-row vectors, as here,
    may not.

    The rule holds for the complex gemm, which every row-merged product
    here is, over blocks of two rows or more.  OpenBLAS's real dgemm does
    not keep row subsets bitwise: (4096, 2q) @ (2q, q) against the real skew
    basis of :func:`cup_form`'s coordinates differed in blocks of up to 1,
    49 and 2 rows at q = 25, 36 and 100 (one thread).  So a real gemm is
    row-merged only where each output entry has one nonzero term
    (:func:`~repvar.unitary.unvec_skew`), and the cup form's stays whole."""
    return (a[..., None, :] @ m)[..., 0, :]


def row_norms(a: np.ndarray) -> np.ndarray:
    """The norm of every row of a real array (..., d), each equal to the 1-D
    ``np.linalg.norm`` of that row: the square root of one dot product per
    row.  The ``axis=`` form of ``np.linalg.norm`` sums in another order."""
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


class _LstsqSolver:
    """Cached SVD factorization for minimal-norm least squares against one
    matrix, with the rank and gap of its cut (see :func:`_rank_cut`)."""

    def __init__(self, a: np.ndarray, rtol: float, context: str, terms: int = 1):
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        self.rank, self.gap = _rank_cut(s, rtol, context, size=max(a.shape), terms=terms)
        self.u_r = u[:, :self.rank]
        self.s_r = s[:self.rank]
        self.vt_r = vt[:self.rank]
        self.nullspace = vt[self.rank:].T
        self.left_null = u[:, self.rank:]

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimal-norm least-squares solutions for a right-hand side b, or a
        stack of them (p, dim), and their residual norms; each one is solved
        on its own (see :func:`rowwise`)."""
        proj = rowwise(b, self.u_r)
        x = rowwise(proj / self.s_r, self.vt_r)
        return x, np.linalg.norm(b - rowwise(proj, self.u_r.T), axis=-1)


class _GroupData(_LstsqSolver):
    """The joint conjugator map of one simultaneity group, its members'
    blocks Id - Ad rho(gamma_i) stacked in member order, factored: u_r spans
    the joint image, left_null its B-orthogonal complement and nullspace the
    joint centralizer.  rows index the members' target rows in that order."""

    def __init__(self, members: tuple[int, ...], n_rel: int, ad_per: np.ndarray,
                 rtol: float, context: str, terms: int):
        q = len(ad_per[0])
        self.members = members
        self.rows = ((n_rel + np.array(members))[:, None] * q + np.arange(q)).ravel()
        self.map = np.vstack([np.eye(q) - ad_per[i] for i in members])  # (|S| q, q)
        super().__init__(self.map, rtol, context, terms)
        self.pinv = self.vt_r.T @ ((1.0 / self.s_r)[:, None] * self.u_r.T)


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

        # every constraint word walked once: its value and its Fox terms
        self.chain = _word_chain(rep)
        self.periph_values = self.chain.values[self.n_rel:]
        # conjugate transposes of every word's base value, relators first
        self.word_values_h = self.chain.values.conj().swapaxes(1, 2)
        # bases of the stacked generator and conjugator jets of order_defect
        self.jet_bases = np.array(list(rep.matrices) + [np.eye(n)] * len(self.groups),
                                  dtype=complex).reshape(-1, n, n)
        ad_gen = ad_matrix(np.array(rep.matrices, dtype=complex).reshape(-1, n, n))
        ad_per = ad_matrix(self.periph_values)
        self.d0_gen = (np.eye(q) - ad_gen).reshape(-1, q)

        # d1 on generator parts: the transport rows of every word, relators first
        rows = (self.n_rel + self.n_per) * q
        transport = transport_matrix(rep, self.chain)
        self.per_rows = transport[self.n_rel:]
        unprojected = transport.reshape(rows, self.n_gen * q)
        self.group_of = {i: gi for gi, members in enumerate(self.groups) for i in members}
        # the rounding of an entry of d0, d1 or a group map, in units of eps:
        # each entry sums at most L + 1 unit terms (the Fox terms of a word
        # of length at most L, or an identity and an Ad), each the Ad of a
        # product of at most L rounded unitaries, whose own unitarity is
        # rounded too; terms = (L + 1)^2 bounds that
        longest = max(map(len, list(pres.relators) + [p.word for p in pres.peripherals]),
                      default=0)
        terms = (longest + 1) ** 2
        self.group_data = [_GroupData(members, self.n_rel, ad_per, self.rank_rtol,
                                      f"group_{gi}", terms)
                           for gi, members in enumerate(self.groups)]

        # cone differential on (generator parts, conjugator parts)
        d1_cone = np.zeros((rows, (self.n_gen + len(self.groups)) * q))
        d1_cone[:, :self.n_gen * q] = unprojected
        for gi, gd in enumerate(self.group_data):
            d1_cone[gd.rows, (self.n_gen + gi) * q:(self.n_gen + gi + 1) * q] = -gd.map
        self.d1_cone = d1_cone

        # parabolic differential on generator parts, peripheral rows projected
        self.d1_par = self.project_peripheral(unprojected)

        # orthonormal basis of the parabolic degree-2 target inside the big space
        pt_cols = [np.eye(rows, self.n_rel * q)]
        for gd in self.group_data:
            block = np.zeros((rows, gd.left_null.shape[1]))
            block[gd.rows] = gd.left_null
            pt_cols.append(block)
        self.pt_basis = np.hstack(pt_cols)

        self._svd_d0_gen = _LstsqSolver(self.d0_gen, self.rank_rtol, "d0_generator", terms)
        self._svd_d1_par = _LstsqSolver(self.d1_par, self.rank_rtol, "d1_par", terms)
        self.cone_solver = _LstsqSolver(self.d1_cone, self.rank_rtol, "d1_cone", terms)
        self.cone_kernel = self.cone_solver.nullspace
        # (key, form) of the latest basis_form build
        self._basis_form: tuple | None = None

    @cached_property
    def obstruction_quotient(self) -> np.ndarray:
        """Orthonormal basis, in parabolic-target coordinates, of the
        complement of Im(d1_par): the coordinates of O^2."""
        if self.d1_par.size:
            a = self.pt_basis.T @ self.d1_par
            norms = np.linalg.norm(a, axis=0)
            keep = norms > 1e-13 * max(1.0, float(norms.max(initial=0.0)))
            if keep.any():
                return _LstsqSolver(a[:, keep] / norms[keep], self.rank_rtol,
                                    "obstruction quotient").left_null
        return np.eye(self.pt_basis.shape[1])

    @cached_property
    def o2_map(self) -> np.ndarray:
        """O^2 coordinates as one functional on target coordinates, (o2,
        dim).  pt_basis spans the range of the orthogonal projection
        P = pt_basis pt_basis^T of :meth:`project_peripheral`, so
        pt_basis^T P = pt_basis^T: a raw defect needs no projection."""
        return self.obstruction_quotient.T @ self.pt_basis.T

    @cached_property
    def product_plan(self) -> ProductPlan:
        """The word products of :func:`order_defect` (see :class:`ProductPlan`)."""
        return ProductPlan(self)

    @cached_property
    def kernel_cup(self) -> np.ndarray:
        """The cup form D(e_a, kappa_j) of the unit cone cochains e_a
        (coordinates of the generator parts, then of the conjugator parts)
        against the cone-kernel columns kappa_j, (cols, kernel dim, target
        dim).  D is bilinear, so D(v, kappa_j) of any cone cochain v is
        v @ this, one row per cochain.  Units go in chunks of as many as
        there are kernel columns, each chunk with the kernel columns through
        :func:`cup_form`'s gemms, of which only the cross block is stored
        (:func:`_cross_block`)."""
        n, count = self.rep.rank, len(self.jet_bases)
        cols, kernel = self.cone_kernel.shape
        cup = np.empty((cols, kernel, self.d1_cone.shape[0]))
        if kernel == 0:
            return cup
        parts = unvec_skew(self.cone_kernel.T.reshape(kernel, count, self.q), n)
        units = unvec_skew(np.eye(cols).reshape(cols, count, self.q), n)
        for a in range(0, cols, kernel):
            _cross_block(self, np.concatenate([units[a:a + kernel], parts]), cup[a:a + kernel])
        cup *= 0.5
        return cup

    def basis_form(self, basis: CohomologyBasis) -> np.ndarray:
        """The :func:`cocycle_form` over the vectors of an H^1 basis,
        read-only.

        The complex keeps the form of the latest basis under the basis's
        content (the bytes of its vectors as one complex array), and a later
        call with a basis of equal content reads it instead of walking every
        word again.  The (key, form) pair is replaced by one assignment, so a
        concurrent reader sees the old pair or the new one; two threads on a
        cold complex may both build a form, bitwise the same.
        """
        vectors = np.asarray(basis.vectors, dtype=complex)
        key = vectors.tobytes()
        held = self._basis_form
        if held is not None and held[0] == key:
            return held[1]
        form = cocycle_form(self, vectors)
        form.setflags(write=False)
        self._basis_form = (key, form)
        return form

    # -- coordinate helpers ------------------------------------------------

    def stack_gen(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        return vec_skew(np.asarray(mats).reshape(-1, self.rep.rank, self.rep.rank)).ravel()

    def unstack_gen(self, v: np.ndarray) -> list[np.ndarray]:
        return list(unvec_skew(v[:self.n_gen * self.q].reshape(-1, self.q), self.rep.rank))

    def unstack_target(self, v: np.ndarray) -> list[Cochain2]:
        """The degree-2 cochains whose target coordinates are the columns of v."""
        blocks = unvec_skew(v.reshape(-1, self.q, v.shape[1]).transpose(2, 0, 1), self.rep.rank)
        return [Cochain2(tuple(c[:self.n_rel]), tuple(c[self.n_rel:])) for c in blocks]

    def project_peripheral(self, v: np.ndarray) -> np.ndarray:
        """Project the peripheral blocks onto the complements of the joint
        images.  v holds target coordinates along its first axis, (dim,) or
        (dim, cols)."""
        if v.ndim == 1:
            return self.project_peripheral(v[:, None])[:, 0]
        out = v.copy()
        for gd in self.group_data:
            stacked = v[gd.rows]
            out[gd.rows] = stacked - gd.u_r @ (gd.u_r.T @ stacked)
        return out

    def cocycle_parts(self, u) -> list[np.ndarray]:
        """Generator parts of u (a Cochain1 or one N x N matrix per generator),
        checked to be a parabolic cocycle within COCYCLE_TOL * max(1, |u|).
        The residual is hypot(|d1_par u|, |(u + u^H) / 2|): the coordinates
        of u drop its Hermitian part, which therefore counts against the
        same bound."""
        parts = list(u.generator_part) if isinstance(u, Cochain1) else list(u)
        if len(parts) != self.n_gen:
            raise ValueError(f"{len(parts)} generator parts for {self.n_gen} generators")
        n = self.rep.rank
        shapes = [np.shape(m) for m in parts]
        if any(shape != (n, n) for shape in shapes):
            raise ValueError(f"generator parts of shapes {shapes}, expected {(n, n)} each")
        mats = np.asarray(parts)
        uvec = self.stack_gen(mats)
        hermitian = float(np.linalg.norm(mats + mats.conj().swapaxes(-1, -2))) / 2
        resid = float(np.hypot(np.linalg.norm(self.d1_par @ uvec), hermitian))
        bound = COCYCLE_TOL * max(1.0, float(np.linalg.norm(uvec)))
        if resid > bound:
            raise NotACocycleError(resid, bound)
        return parts

    def canonical_xi(self, umats) -> tuple[np.ndarray, np.ndarray]:
        """Minimal-norm conjugator parts solving the peripheral rows jointly per
        group, (groups, n, n), and the largest group residual.  Generator parts
        with leading stack axes (..., n_gen, n, n) give results with the same
        leading axes."""
        n = self.rep.rank
        umats = np.asarray(umats, dtype=complex)
        lead = umats.shape[:-3]
        uvec = vec_skew(umats).reshape(*lead, self.n_gen * self.q)
        values = [rowwise(uvec, row.T) for row in self.per_rows]
        xis = np.zeros((*lead, len(self.groups), n, n), dtype=complex)
        worst = np.zeros(lead)
        for g, gd in enumerate(self.group_data):
            stacked = np.concatenate([values[i] for i in gd.members], axis=-1)
            x = rowwise(stacked, gd.pinv.T)
            worst = np.maximum(worst, np.linalg.norm(rowwise(x, gd.map.T) - stacked, axis=-1))
            xis[..., g, :, :] = unvec_skew(x, n)
        return xis, worst


class ProductPlan:
    """The word products of :func:`order_defect` as slots of one coefficient
    buffer per sample (:class:`DefectState`).

    A product is named by its letters, (series, sign) pairs over the
    generator series and then the conjugator series (the order of
    ``ConeComplex.jet_bases``).  Slots 0..count-1 hold the series
    themselves; then come the daggers of the ``inverted`` series (those that
    occur inverted in a word, and every conjugator), the identity when a
    relator has one letter, and the products, depth by depth: each relator
    prefix r[:-1] and each peripheral word followed by its conjugator,
    formed from its first letter on, a prefix shared by two words formed
    once.  ``depths`` holds, per product depth, the slots of the left
    factors (an array), of the right factors (letters) and the slot range
    of the products; ``tops`` the target rows of the words with a top coefficient
    (every word but an empty relator) and the slots of its two factors: a
    relator's prefix and last letter, a peripheral's conjugator dagger e^H
    and product W e (None when no word has one).  Other consecutive slots
    are given as slices, so that reading them is a view.
    """

    def __init__(self, cc: ConeComplex):
        count = len(cc.jet_bases)
        inverted: dict = {}  # insertion-ordered sets
        levels: list[dict] = []
        tops = []
        words = [(w, r) for w, r in enumerate(cc.pres.relators) if r]
        for i, p in enumerate(cc.pres.peripherals):
            e = cc.n_gen + cc.group_of[i]
            inverted[e] = None
            words.append((cc.n_rel + i, tuple(p.word) + ((e, 1),)))
        for row, word in words:
            inverted.update((s, None) for s, sign in word if sign < 0)
            chain = word[:-1] if row < cc.n_rel else word
            for end in range(2, len(chain) + 1):
                if len(levels) < end - 1:
                    levels.append({})
                levels[end - 2][chain[:end]] = None
            if row < cc.n_rel:
                tops.append((row, chain, word[-1:]))
            else:
                tops.append((row, ((word[-1][0], -1),), chain))
        self.inverted = _slots(list(inverted))
        keys = [((s, 1),) for s in range(count)] + [((s, -1),) for s in inverted]
        if any(len(r) == 1 for r in cc.pres.relators):
            keys.append(())  # the identity, the product of no letters
        ranges = []
        for level in levels:
            ranges.append((len(keys), len(keys) + len(level)))
            keys += list(level)
        slot = {key: i for i, key in enumerate(keys)}
        self.slots = len(keys)
        self.identity = slot.get(())
        self.depths = [(np.array([slot[key[:-1]] for key in keys[a:b]]),
                        _slots([slot[key[-1:]] for key in keys[a:b]]), slice(a, b))
                       for a, b in ranges]
        self.tops = [_slots(list(col)) for col in zip(
            *[(row, slot[left], slot[right]) for row, left, right in tops])] if tops else None


def _slots(slots: list):
    """An index of the given slots: a slice when they are consecutive (or
    none), else an array."""
    first = slots[0] if slots else 0
    if slots == list(range(first, first + len(slots))):
        return slice(first, first + len(slots))
    return np.array(slots, dtype=int)


# Working arrays are split so that each holds at most this many complex
# numbers (4 MB): the chunks of a stacked lift, by DefectState.size per
# sample, and the row blocks of a cup form's pair products (_row_block).
_STACK_CACHE_LIMIT = 2 ** 18


class DefectState:
    """What :func:`order_defect` keeps across the orders of a lift of b
    samples: the :class:`~repvar.truncring.IncrementalExp` of their
    generator and conjugator series and, per sample, the coefficients of
    every slot of ``cc.product_plan``, each slot led by one zero, the layout
    :func:`~repvar.truncring.toeplitz_rows` gathers from.  ``coeffs`` views
    them as (b, slots, order + 1, n, n), ``rows`` as
    (b, slots, (order + 1) n, n).  ``formed`` is the highest degree the slots
    hold; -1 before the first call, and no entry above it is read before it
    is written."""

    def __init__(self, cc: ConeComplex, samples: int, order: int):
        n, plan = cc.rep.rank, cc.product_plan
        self.exp = IncrementalExp(cc.jet_bases, order, samples)
        self._view(np.empty((samples, plan.slots, 1 + (order + 1) * n * n), dtype=complex))
        self.buffer[:, :, 0] = 0.0
        if plan.identity is not None:
            self.coeffs[:, plan.identity] = np.eye(n) * (np.arange(order + 1) == 0)[:, None, None]
        self.formed = -1

    @staticmethod
    def size(cc: ConeComplex, order: int) -> int:
        """The complex numbers one sample's state holds: its exponential's
        powers and coefficients, and its slot buffer.  The bases are
        ``cc.jet_bases`` itself, shared by every sample."""
        n, k1 = cc.rep.rank, order + 1
        per_series = n * n * (k1 * (max(order, 1) + 1) + k1)
        return len(cc.jet_bases) * per_series + cc.product_plan.slots * (1 + k1 * n * n)

    def _view(self, buffer: np.ndarray) -> None:
        b, slots, width = buffer.shape
        n = self.exp.bases.shape[-1]
        k1 = (width - 1) // (n * n)
        self.buffer = buffer
        self.coeffs = buffer[:, :, 1:].reshape(b, slots, k1, n, n)
        self.rows = buffer[:, :, 1:].reshape(b, slots, k1 * n, n)

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the samples where the boolean mask (b,) is set."""
        self.exp.keep(mask)
        self._view(self.buffer[mask])


def assemble_complex(rep: Representation, rank_rtol: float = 1e-8) -> ConeComplex:
    """The complexes at rep; rank_rtol is the one rank threshold of every
    cohomology and jet call that takes them."""
    return ConeComplex(rep, rank_rtol)


def cocycle_transport(rep: Representation, u, word: Word) -> np.ndarray:
    """Twisted derivative of the word map at rho in direction u (generator part)."""
    parts = u.generator_part if isinstance(u, Cochain1) else u
    out = np.zeros((rep.rank, rep.rank), dtype=complex)
    _, prefixes = word_transport_terms(rep.matrices, word, rep.rank)
    for (gen, sign), prefix in zip(word, prefixes):
        out = out + sign * (prefix @ parts[gen] @ prefix.conj().T)
    return out


def coboundary(rep: Representation, x: np.ndarray) -> Cochain1:
    """First-order conjugation direction: generator parts (Id - Ad rho(x_j)) X,
    conjugator part X for every simultaneity group."""
    gen = tuple(x - m @ x @ m.conj().T for m in rep.matrices)
    conj = tuple(x.copy() for _ in rep.presentation.groups)
    return Cochain1(gen, conj)


def h_dims(cc: ConeComplex) -> Dims:
    """Dimension record of both complexes, via rank-revealing factorizations."""
    q, gen, par, cone = cc.q, cc._svd_d0_gen, cc._svd_d1_par, cc.cone_solver
    # d0 on the cone is the identity into each group's conjugator slot: it is
    # injective with a group, and d0 on the generators without one
    d0_rank, d0_gap = (q, None) if cc.groups else (gen.rank, gen.gap)
    z1_par = cc.n_gen * q - par.rank
    gaps = {f"group_{gi}": gd.gap for gi, gd in enumerate(cc.group_data)}
    gaps.update(d0_generator=gen.gap, d0_cone=d0_gap, d1_par=par.gap, d1_cone=cone.gap)
    return Dims(h0=q - d0_rank, c0=q - gen.rank, z1_par=z1_par, b1=gen.rank,
                h1_par=z1_par - gen.rank, h1_cone=cc.d1_cone.shape[1] - cone.rank - d0_rank,
                o2=cc.pt_basis.shape[1] - par.rank, gaps=gaps)


def h1_basis(cc: ConeComplex) -> CohomologyBasis:
    """B-orthonormal basis of the parabolic cocycles modulo coboundaries."""
    dims = h_dims(cc)
    z = cc._svd_d1_par.nullspace      # (n_gen q, z1_par)
    cb = cc._svd_d0_gen.u_r           # image of the generator part of d0
    w = z - cb @ (cb.T @ z)
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    count = int(np.sum(s > 0.5))  # singular values here cluster at 1 and 0
    if count != dims.h1_par:
        raise IllConditionedError("h1 basis projection", (count, dims.h1_par), 0.5)
    mat = u[:, :count]
    vectors = tuple(map(tuple, unvec_skew(mat.T.reshape(count, cc.n_gen, cc.q), cc.rep.rank)))
    return CohomologyBasis(vectors=vectors, matrix=mat, dims=dims)


# -- the quadratic map Q -----------------------------------------------------


def order_defect(cc: ConeComplex, state: DefectState, jets: np.ndarray, m: int) -> np.ndarray:
    """Order-m defects of a stack of b jet representations, (b, dim).

    Relator rows are the t^m coefficients of the relator words against their
    base values; peripheral rows are the t^m coefficients of the conjugated
    peripheral words against the base values.  Exact truncated arithmetic;
    the dependence on the order-m jets is affine with matrix d1_cone.

    ``jets`` is the one input form, the lift's own stack (b, series, k, n, n)
    with k >= m: X_1..X_k per generator, then zeta_1..zeta_k per conjugator
    (the order of ``cc.jet_bases``); degrees past m are not read.  ``state``
    is the :class:`DefectState` of those b samples, of order at least m,
    that the caller keeps across its orders.  Its exponential forms the
    coefficients of the generator and conjugator jets (the generator
    matrices, then the identity per conjugator, as bases) and reports the
    lowest degree lo whose coefficients changed since the state's last call
    (0 on a fresh state); the word products of ``cc.product_plan`` keep
    their coefficients below lo and form only lo..m.  Per product depth, one
    gather of the left factors' Toeplitz block rows lo..m over block columns
    0..m and one batched gemm serve every word; the gather takes the left
    factors' slots, then their Toeplitz positions
    (:func:`~repvar.truncring.toeplitz_rows`, cached per lo, m and n), so
    it builds no index of its own.  One batched
    :func:`~repvar.truncring.product_coefficient` then forms each word's
    top coefficient m alone: a relator's prefix times its last letter, a
    peripheral's e^H times W e, and one gemm per word multiplies the tops
    of all samples by the conjugate transpose of the word's base value.
    Each coefficient is the sum a full truncated product of the words
    forms, over the same columns in the same order; one formed at an
    earlier order m' < m lacks only the zero terms of columns m'+1..m.
    With OpenBLAS 0.3.31 at N >= 2 the defects are bitwise those of full
    products (at N = 1 numpy forms the products by gemv or a dot product,
    whose rounding moves).
    """
    # m stays the fourth positional argument: perfbench/tracer.py reads args[3]
    b, count, n = len(jets), len(cc.jet_bases), cc.rep.rank
    exps = state.exp.jets(jets[:, :, :m].reshape(b * count, m, n, n)).reshape(b, count, -1, n, n)
    lo = min(state.exp.low, state.formed + 1)
    state.formed = m
    plan, coeffs = cc.product_plan, state.coeffs
    coeffs[:, :count, lo:m + 1] = exps[:, :, lo:]
    inverted = exps[:, plan.inverted, lo:]  # their daggers follow the series
    np.conjugate(inverted, out=coeffs[:, count:count + inverted.shape[1], lo:m + 1].swapaxes(-1, -2))
    rows = toeplitz_rows(lo, m, n)
    for left, right, out in plan.depths:
        # a C-contiguous gather, so that numpy passes every stack row to BLAS
        # and a sample's products do not depend on the samples stacked with it
        np.matmul(state.buffer.take(left, axis=1).take(rows, axis=2),
                  state.rows[:, right, :(m + 1) * n],
                  out=state.rows[:, out, lo * n:(m + 1) * n])
    # word-major: a word's base value is the right factor of every sample's
    # top coefficient, so one gemm per word takes the samples as its rows
    words = len(cc.word_values_h)
    tops = np.zeros((words, b, n, n), dtype=complex)
    # an empty relator is the identity times the identity, top coefficient 0
    if plan.tops is not None:
        targets, left, right = plan.tops
        tops[targets] = product_coefficient(coeffs[:, left, :m + 1], coeffs[:, right, :m + 1],
                                         m).swapaxes(0, 1)
    ends = (tops.reshape(words, b * n, n) @ cc.word_values_h).reshape(words, b, n, n)
    return vec_skew(project_skew(ends)).swapaxes(0, 1).reshape(b, -1)


def cup_form(cc: ConeComplex, us: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The order-2 defect as a symmetric bilinear form D on all pairs of b
    vectors (u, xi), shape (b, b, target dim), from their generator parts us
    (b, n_gen, n, n) and conjugator parts xis (b, groups, n, n): D(v, v) is
    the raw order-2 defect of X_1 = u with conjugator parts xi.

    Per word, with T_p the Fox terms of the word chain ``cc.chain``, the t^2
    coefficient is sum_(q<p) T_q T_p + sum_p T_p^2 / 2; a peripheral word P
    conjugated by exp(t xi) adds xi^2/2 + xi'^2/2 - xi a_1 - xi xi' + a_1 xi',
    with a_1 = sum_p T_p and xi' = P xi P^H.  Squares and symmetrized products
    of skew matrices are Hermitian and drop out of the skew part, so D(a, c) is
    the symmetrized sum_k L_k(a) R_k(c) over L = [sum_(q<p) T_q, -xi, a_1],
    R = [T_p, a_1 + xi', xi']: one complex gemm per word for every pair, in
    row blocks (:func:`_word_pairs`), and one real gemm of all pairs into the
    form's word slice, symmetrized in place block pair by block pair.  Besides
    the form, a call holds one (b, b, n, n) complex pair array, one row block
    and the word's stacks of Fox terms.
    """
    b, q = len(us), cc.q
    words = len(cc.chain.values)
    form = np.zeros((b, b, words * q))
    if b == 0:
        return form
    basis, flat = _real_basis(cc.rep.rank), form.reshape(b * b, words * q)
    step = _row_block(b, cc.rep.rank)
    blocks = [slice(a, a + step) for a in range(0, b, step)]
    for w, pairs in _word_pairs(cc, us, xis):
        cols = slice(w * q, (w + 1) * q)
        np.matmul(pairs, basis, out=flat[:, cols])
        for i, rows in enumerate(blocks):
            for other in blocks[i:]:
                both = form[rows, other, cols] + form[other, rows, cols].swapaxes(0, 1)
                form[rows, other, cols] = both
                form[other, rows, cols] = both.swapaxes(0, 1)
    form *= 0.5
    return form


def _cross_block(cc: ConeComplex, vectors: np.ndarray, out: np.ndarray) -> None:
    """Write 2 D(v_a, v_(c+j)) of the cone cochains vectors (b, count, n, n),
    the first c = len(out) against the other k, into out (c, k, target dim):
    C[a, c+j] + C[c+j, a] of each word's coordinates C over all b^2 pairs.
    The gemms stay over all pairs, since subsets of them round differently."""
    b, c, q = len(vectors), len(out), cc.q
    basis, coords = _real_basis(cc.rep.rank), np.empty((b, b, q))
    for w, pairs in _word_pairs(cc, vectors[:, :cc.n_gen], vectors[:, cc.n_gen:]):
        np.matmul(pairs, basis, out=coords.reshape(-1, q))
        np.add(coords[:c, c:], coords[c:, :c].swapaxes(0, 1), out=out[:, :, w * q:(w + 1) * q])


def _real_basis(n: int) -> np.ndarray:
    """The skew basis as a real (2 n^2, n^2) matrix: vec_skew(x) =
    -Re(flat(x) . flat_basis) is one real gemm on the interleaved (re, im)
    entries of x."""
    flat_basis = skew_basis(n).transpose(0, 2, 1).reshape(n * n, n * n)
    return np.stack([-flat_basis.real, flat_basis.imag], axis=2).reshape(n * n, -1).T


def _row_block(b: int, n: int) -> int:
    """Vectors per row block of pair products over b vectors, at most
    _STACK_CACHE_LIMIT complex numbers a block; one block at n = 1, where a
    one-row block would be a gemv, which rounds differently."""
    return b if n == 1 else min(b, max(1, _STACK_CACHE_LIMIT // (b * n * n)))


def _word_pairs(cc: ConeComplex, us: np.ndarray, xis: np.ndarray) -> Iterator:
    """Per word w of ``cc.chain``, (w, pairs): sum_k L_k(a) R_k(c) of
    :func:`cup_form` for all pairs of the b vectors, the real view (b b,
    2 n^2) of one complex (b, b, n, n) array that every word refills, row
    block by row block (L[rows] @ R, bitwise the whole gemm; :func:`rowwise`)."""
    n, b, chain = cc.rep.rank, len(us), cc.chain
    step = _row_block(b, n)
    pairs = np.empty((b, b, n, n), dtype=complex)
    bounds = np.searchsorted(chain.word, np.arange(len(chain.values) + 1))  # each word's terms
    for w in range(len(chain.values)):
        lf, rf = _word_factors(cc, us, xis, w, slice(bounds[w], bounds[w + 1]))
        for a in range(0, b, step):
            pairs[a:a + step] = (lf[a * n:(a + step) * n] @ rf).reshape(-1, n, b, n).swapaxes(1, 2)
        del lf, rf  # released before the caller's coordinate gemm
        yield w, pairs.reshape(b * b, n * n).view(float)


def _word_factors(cc: ConeComplex, us: np.ndarray, xis: np.ndarray, w: int,
                  terms: slice) -> tuple[np.ndarray, np.ndarray]:
    """L (b n, k n) and R (k n, b n) of word w (:func:`cup_form`), from its
    Fox terms ``terms`` in ``cc.chain``."""
    n, b, chain = cc.rep.rank, len(us), cc.chain
    prefixes, signs = chain.prefixes[terms], chain.sign[terms, None, None, None]
    t = signs * _conjugate(prefixes, us[:, chain.gen[terms]].swapaxes(0, 1))
    left, right = [np.cumsum(t, axis=0) - t], [t]  # strict prefix sums of T_p
    if w >= cc.n_rel:
        a1, xi = t.sum(axis=0), xis[:, cc.group_of[w - cc.n_rel]]
        xp = _conjugate(chain.values[w], xi)
        left.append(np.array([-xi, a1]))
        right.append(np.array([a1 + xp, xp]))
    lf, rf = np.concatenate(left), np.concatenate(right)
    k = lf.shape[0]
    return (lf.transpose(1, 2, 0, 3).reshape(b * n, k * n),
            rf.transpose(0, 2, 1, 3).reshape(k * n, b * n))


def _conjugate(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g x g^H for matrices g (..., n, n) and stacks x (..., b, n, n): g x
    per stack row, then one gemm of the b rows against their g^H (see
    :func:`rowwise`)."""
    *lead, b, n, _ = x.shape
    gx = (g[..., None, :, :] @ x).reshape(*lead, b * n, n)
    return (gx @ g.conj().swapaxes(-1, -2)).reshape(x.shape)


def cocycle_form(cc: ConeComplex, cocycles) -> np.ndarray:
    """The :func:`cup_form` over parabolic cocycles u_1..u_h (each one
    matrix per generator) with their canonical conjugator parts, (h, h,
    target dim).  The canonical xi is linear in u, so for u = sum c_i u_i the
    raw defect D(u, u) is c^T D c."""
    n = cc.rep.rank
    umats = np.asarray(cocycles, dtype=complex).reshape(len(cocycles), cc.n_gen, n, n)
    return cup_form(cc, umats, cc.canonical_xi(umats)[0])


def q_norms(cc: ConeComplex, form: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|Q(u)| for u = sum c_i u_i of every row of c (s, h), where form is the
    :func:`cocycle_form` over u_1..u_h: the raw defects c^T D c and their
    coordinates through ``cc.o2_map`` are batched products, one product per
    row (see :func:`rowwise`), so each norm is bitwise that of the class
    :func:`obstruction_classes` gives the row's raw defect alone, and no
    class is built."""
    h = len(form)
    raw = rowwise(c, rowwise(c, form.reshape(h, h * form.shape[-1])).reshape(len(c), h, -1))
    return row_norms(rowwise(raw, cc.o2_map.T))


def obstruction_classes(cc: ConeComplex, defects: np.ndarray) -> list[ObstructionClass]:
    """Classes of a set of raw defects, defects (dim, cols): one class per
    column, all in one common quotient O^2 (the parabolic target modulo
    Im(d1_par)), each column's coordinates one product with ``cc.o2_map``,
    so that they are directly comparable."""
    raws = defects.T
    coords = rowwise(raws, cc.o2_map.T)
    return [ObstructionClass(coordinates=x, norm=size, cone=cc, raw=r)
            for x, size, r in zip(coords, row_norms(coords).tolist(), raws)]


def obstruction(cc: ConeComplex, u) -> ObstructionClass:
    """The quadratic map Q at a parabolic cocycle generator part.

    Solves the canonical minimal-norm conjugator parts, evaluates the exact
    order-2 relator and conjugated-peripheral defects with vanishing
    second-order corrections in closed form (:func:`cup_form`), and classes
    the projected defect in O^2 (:func:`obstruction_classes`).  Q(l u) equals
    l^2 Q(u) and Q vanishes on coboundary directions.
    """
    return common_obstruction(cc, [u])[0]


def common_obstruction(cc: ConeComplex, us: Sequence) -> list[ObstructionClass]:
    """Obstruction classes of several cocycles reduced in one common quotient,
    so their coordinate vectors are directly comparable."""
    form = cocycle_form(cc, [cc.cocycle_parts(u) for u in us])
    d = np.arange(len(form))
    return obstruction_classes(cc, form[d, d].T)


def pairing_tensor(cc: ConeComplex, basis: CohomologyBasis,
                   tolerance: float = 1e-8) -> PairingTensor:
    """Polarized quadratic map on a cohomology basis, in a common quotient.

    B(u, v) = (Q(u + v) - Q(u) - Q(v)) / 2 = D(u, v), read off the
    :func:`cup_form` over the basis that the complex keeps
    (:meth:`ConeComplex.basis_form`), symmetric by construction: each pair's
    O^2 coordinates are one product of its slice with ``cc.o2_map``.  The
    verdict is True iff every entry norm is at most the tolerance, which is
    the cup-product smoothness criterion.  The verdict and
    :meth:`PairingTensor.max_norm` read the norms alone; an entry's
    :class:`ObstructionClass` is built when it is first looked up.
    """
    check_tolerance(tolerance)
    entries = _PairingEntries(cc, cc.basis_form(basis))
    return PairingTensor(entries=entries, verdict=bool(np.all(entries.norms <= tolerance)),
                         tolerance=tolerance)
