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
:func:`cup_form` evaluates it on all pairs of given vectors: raw defects
and polarized pairing in one.  :class:`QuadraticMap` holds that form over
fixed cocycles and reads off Q of any stack of linear combinations of them
in one batched evaluation, since the canonical xi is linear in u;
:func:`obstruction_classes` reduces a stack of defect sets in the one
cached quotient basis, :attr:`ConeComplex.obstruction_quotient`, and is the
one class reduction.  :func:`obstruction`, :func:`common_obstruction`,
:func:`pairing_tensor`, the failure path of :func:`repvar.jets.lift`, Q in
:func:`repvar.jets.probe_cone` (one map over the basis per call, evaluated
once on all samples) and the cone-kernel moves of both
(:attr:`ConeComplex.kernel_cup`, one form per complex) all go through these
functions.

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

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .presentation import Word
from .repspace import (IllConditionedError, Representation, _rank_cut, evaluate_word,
                       transport_matrix, word_transport_terms)
# exp_series, unitary_generator_jet and word_jet are bound here for
# perfbench/tracer.py, which wraps each layer function in every module that
# binds it and requires these bindings; nothing in this module calls them
# (order_defect drives an IncrementalExp, the one exponential the first two
# are thin calls of, and forms its word products in a DefectState)
from .truncring import (IncrementalExp, exp_series, product_coefficient,  # noqa: F401
                        toeplitz_rows, unitary_generator_jet, word_jet)
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


class _PairingEntries(Mapping):
    """Read-only mapping (i, j) with i <= j -> ObstructionClass, in sorted
    key order, over the columns of one batched class reduction: each class
    is built on first access and kept, and ``norms`` (in key order) needs
    none."""

    def __init__(self, cc: ConeComplex, keys: list, coords: np.ndarray, norms: np.ndarray,
                 projected: np.ndarray):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._index = {keys[c]: i for i, c in enumerate(order)}
        self._cc = cc
        self._coords = coords[:, order]
        self._projected = projected[:, order]
        self.norms = norms[order].tolist()
        self._built: dict = {}

    def __getitem__(self, key) -> ObstructionClass:
        cls = self._built.get(key)
        if cls is None:
            i = self._index[key]
            # setdefault: of two threads that build the same class, both
            # return the one stored first
            cls = self._built.setdefault(key, ObstructionClass(
                coordinates=self._coords[:, i], norm=self.norms[i], cone=self._cc,
                defect=self._projected[:, i]))
        return cls

    def __iter__(self) -> Iterator:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class PairingTensor:
    entries: _PairingEntries  # (i, j) with i <= j -> ObstructionClass
    verdict: bool
    tolerance: float

    def max_norm(self) -> float:
        return max(self.entries.norms, default=0.0)


def check_tolerance(tolerance: float) -> None:
    """Reject a tolerance that is not a finite number > 0: against NaN every
    comparison is false, so no defect would ever count as too large."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")


def rowwise(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a stack of rows a (..., d), one vector-matrix product per
    row.  A single gemm over all rows would round each row according to the
    whole block, so a sample's result would depend on the samples stacked
    with it."""
    return (a[..., None, :] @ m)[..., 0, :]


def row_norms(a: np.ndarray) -> np.ndarray:
    """The norm of every row of a (..., d), each equal to the 1-D
    ``np.linalg.norm`` of that row: the square root of one dot product per
    row (of the real and imaginary parts for complex rows).  The ``axis=``
    form of ``np.linalg.norm`` sums in another order."""
    def dots(x):
        return (x[..., None, :] @ x[..., :, None])[..., 0, 0]
    if np.iscomplexobj(a):
        return np.sqrt(dots(a.real) + dots(a.imag))
    return np.sqrt(dots(a))


class _LstsqSolver:
    """Cached SVD factorization for minimal-norm least squares against one matrix."""

    def __init__(self, a: np.ndarray, rtol: float, context: str, gaps: dict | None = None,
                 terms: int = 1):
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        self.rank = _rank_cut(s, rtol, context, gaps, size=max(a.shape), terms=terms)
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

    def __init__(self, members: tuple[int, ...], n_rel: int, ad_per: list[np.ndarray],
                 rtol: float, context: str, gaps: dict | None, terms: int):
        q = len(ad_per[0])
        self.members = members
        self.rows = ((n_rel + np.array(members))[:, None] * q + np.arange(q)).ravel()
        self.map = np.vstack([np.eye(q) - ad_per[i] for i in members])  # (|S| q, q)
        super().__init__(self.map, rtol, context, gaps, terms)
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
        # the rounding of an entry of d0, d1 or a group map, in units of eps:
        # each entry sums at most L + 1 unit terms (the Fox terms of a word
        # of length at most L, or an identity and an Ad), each the Ad of a
        # product of at most L rounded unitaries, whose own unitarity is
        # rounded too; terms = (L + 1)^2 bounds that
        longest = max(map(len, list(pres.relators) + [p.word for p in pres.peripherals]),
                      default=0)
        terms = (longest + 1) ** 2
        self.group_data = [_GroupData(members, self.n_rel, ad_per, self.rank_rtol,
                                      f"group_{gi}", self.gaps, terms)
                           for gi, members in enumerate(self.groups)]

        # cone differential on (generator parts, conjugator parts)
        rows = (self.n_rel + self.n_per) * q
        unprojected = np.vstack(self.rel_rows + self.per_rows) if rows \
            else np.zeros((0, self.n_gen * q))
        d1_cone = np.zeros((rows, (self.n_gen + len(self.groups)) * q))
        d1_cone[:, :self.n_gen * q] = unprojected
        for gi, gd in enumerate(self.group_data):
            d1_cone[gd.rows, (self.n_gen + gi) * q:(self.n_gen + gi + 1) * q] = -gd.map
        self.d1_cone = d1_cone

        # parabolic differential on generator parts, peripheral rows projected
        self.d1_par = self.project_peripheral(unprojected)

        self.par_target_dim = self.n_rel * q + sum(
            len(gd.members) * q - gd.rank for gd in self.group_data
        )
        # orthonormal basis of the parabolic degree-2 target inside the big space
        pt_cols = [np.eye(rows, self.n_rel * q)]
        for gd in self.group_data:
            block = np.zeros((rows, gd.left_null.shape[1]))
            block[gd.rows] = gd.left_null
            pt_cols.append(block)
        self.pt_basis = np.hstack(pt_cols)

        self._svd_d0_gen = _LstsqSolver(self.d0_gen, self.rank_rtol, "d0_generator", self.gaps,
                                        terms)
        self._svd_d0_full = _LstsqSolver(self.d0_full, self.rank_rtol, "d0_cone", self.gaps,
                                         terms)
        self._svd_d1_par = _LstsqSolver(self.d1_par, self.rank_rtol, "d1_par", self.gaps, terms)
        self.cone_solver = _LstsqSolver(self.d1_cone, self.rank_rtol, "d1_cone", self.gaps,
                                        terms)
        self.cone_kernel = self.cone_solver.nullspace
        self.complex_defect = float(np.linalg.norm(self.d1_cone @ self.d0_full))

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
        return np.eye(self.par_target_dim)

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
        v @ this, one row per cochain.  Each :func:`cup_form` call takes as
        many units as there are kernel columns: one form over all units
        would also hold every pair of units (7 MB at a U(3) four-punctured
        sphere)."""
        parts = [self.unstack_cone(col) for col in self.cone_kernel.T]
        units = [self.unstack_cone(e) for e in np.eye(self.d1_cone.shape[1])]
        cup = np.empty((len(units), len(parts), self.d1_cone.shape[0]))
        step = max(len(parts), 1)
        for a in range(0, len(units), step):
            chunk = units[a:a + step]
            cup[a:a + step] = cup_form(self, chunk + parts)[:len(chunk), len(chunk):]
        return cup

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
        """Project the peripheral blocks onto the complements of the joint
        images.  v holds target coordinates along its first axis, (dim,) or
        (dim, cols), or is a stack (..., dim, cols) of such matrices, each
        projected by its own products (see :func:`rowwise`)."""
        if v.ndim == 1:
            return self.project_peripheral(v[:, None])[:, 0]
        out = v.copy()
        for gd in self.group_data:
            stacked = v[..., gd.rows, :]
            out[..., gd.rows, :] = stacked - gd.u_r @ (gd.u_r.T @ stacked)
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
    factors (an array (J, 1, 1)), of the right factors (letters) and the
    slot range of the products; ``tops`` the target rows of the words with a top coefficient
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
        self.depths = [(np.array([slot[key[:-1]] for key in keys[a:b]])[:, None, None],
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
        self.count = len(cc.jet_bases)
        self.exp = IncrementalExp(np.tile(cc.jet_bases, (samples, 1, 1)), order)
        self._view(np.empty((samples, plan.slots, 1 + (order + 1) * n * n), dtype=complex))
        self.buffer[:, :, 0] = 0.0
        if plan.identity is not None:
            self.coeffs[:, plan.identity] = np.eye(n) * (np.arange(order + 1) == 0)[:, None, None]
        self.formed = -1

    @staticmethod
    def size(cc: ConeComplex, order: int) -> int:
        """The complex numbers one sample's state holds: its exponential's
        bases, powers and coefficients, and its slot buffer."""
        n, k1 = cc.rep.rank, order + 1
        per_series = n * n * (1 + k1 * (max(order, 1) + 1) + k1)
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
        self.exp.keep(np.repeat(mask, self.count))
        self._view(self.buffer[mask])


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
    0..m and one batched gemm serve every word; one batched
    :func:`~repvar.truncring.product_coefficient` then forms each word's
    top coefficient m alone: a relator's prefix times its last letter, a
    peripheral's e^H times W e.  Each coefficient is the sum a full
    truncated product of the words forms, over the same columns in the same
    order; one formed at an earlier order m' < m lacks only the zero terms of
    columns m'+1..m.  With OpenBLAS 0.3.31 at N >= 2 the defects are bitwise
    those of full products (at N = 1 numpy forms the products by gemv or a
    dot product, whose rounding moves).
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
    rows, flat = toeplitz_rows(lo, m, n), state.buffer.reshape(b, -1)
    width = state.buffer.shape[-1]
    for left, right, out in plan.depths:
        # a C-contiguous gather, so that numpy passes every stack row to BLAS
        # and a sample's products do not depend on the samples stacked with it
        np.matmul(np.take(flat, left * width + rows, axis=1), state.rows[:, right, :(m + 1) * n],
                  out=state.rows[:, out, lo * n:(m + 1) * n])
    tops = np.zeros((b, len(cc.word_values_h), n, n), dtype=complex)
    # an empty relator is the identity times the identity, top coefficient 0
    if plan.tops is not None:
        words, left, right = plan.tops
        tops[:, words] = product_coefficient(coeffs[:, left, :m + 1], coeffs[:, right, :m + 1], m)
    return vec_skew(project_skew(tops @ cc.word_values_h)).reshape(b, -1)


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
    :func:`cup_form` over the cocycles with their canonical conjugator parts.

    The canonical xi is linear in u, so for u = sum c_i u_i the raw defect
    D(u, u) is c^T D c.  Calling the map takes a stack of coefficient rows c,
    (s, h), and evaluates all of them at once: the raw defects and the
    peripheral projections are batched products, one product per row (see
    :func:`rowwise`), so a row's class is bitwise the one it gets alone.
    """

    def __init__(self, cc: ConeComplex, cocycles: Sequence[Sequence[np.ndarray]]):
        self.cc = cc
        self.h = h = len(cocycles)
        n = cc.rep.rank
        xis = cc.canonical_xi(np.asarray(cocycles, dtype=complex).reshape(h, cc.n_gen, n, n))[0]
        self.form = cup_form(cc, list(zip(cocycles, xis)))
        # the blocks a coefficient row multiplies, one row per cocycle
        self._pairs = self.form.reshape(h, h * self.form.shape[-1])

    def __call__(self, c: np.ndarray) -> list[ObstructionClass]:
        """Q(u) for u = sum c_i u_i of every row of c (s, h), each in its own
        products, all in ``cc.obstruction_quotient``."""
        return [cls for (cls,) in obstruction_classes(self.cc, self._raw(c))]

    def norms(self, c: np.ndarray) -> np.ndarray:
        """|Q(u)| of every row of c (s,): the norms of the classes a call
        returns, bitwise, with no class built."""
        return _class_parts(self.cc, self._raw(c))[1][:, 0]

    def _raw(self, c: np.ndarray) -> np.ndarray:
        """The raw defect sets (s, dim, 1) of the rows of c, one product per row."""
        return rowwise(c, rowwise(c, self._pairs).reshape(len(c), self.h, -1))[..., None]


def obstruction_classes(cc: ConeComplex, defects: np.ndarray) -> list[list[ObstructionClass]]:
    """Classes of a stack of raw defect sets, defects (s, dim, cols): one
    class per column, each set reduced by its own products, all in one
    common quotient O^2 (the parabolic target modulo Im(d1_par)) by one
    batched projection onto ``cc.obstruction_quotient``, so that their
    coordinates are directly comparable."""
    coords, norms, projected = _class_parts(cc, defects)
    return [[ObstructionClass(coordinates=x, norm=size, cone=cc, defect=p)
             for x, size, p in zip(xs, sizes, ps)]
            for xs, sizes, ps in zip(coords.swapaxes(1, 2), norms.tolist(),
                                     projected.swapaxes(1, 2))]


def _class_parts(cc: ConeComplex, defects: np.ndarray):
    """Quotient coordinates (s, o2, cols), their norms (s, cols) and the
    projected defects (s, dim, cols) of a stack of raw defect sets."""
    projected = cc.project_peripheral(defects)
    coords = cc.obstruction_quotient.T @ (cc.pt_basis.T @ projected)
    return coords, np.linalg.norm(coords, axis=1), projected


def obstruction(rep_or_cone, u, pre_tolerance: float = 1e-6,
                rank_rtol: float = 1e-8) -> ObstructionClass:
    """The quadratic map Q at a parabolic cocycle generator part.

    Solves the canonical minimal-norm conjugator parts, evaluates the exact
    order-2 relator and conjugated-peripheral defects with vanishing
    second-order corrections in closed form (:func:`cup_form`), and classes
    the projected defect in O^2 (:func:`obstruction_classes`).  Q(l u) equals
    l^2 Q(u) and Q vanishes on coboundary directions.
    """
    return common_obstruction(rep_or_cone, [u], pre_tolerance, rank_rtol)[0]


def common_obstruction(rep_or_cone, us: Sequence, pre_tolerance: float = 1e-6,
                       rank_rtol: float = 1e-8) -> list[ObstructionClass]:
    """Obstruction classes of several cocycles reduced in one common quotient,
    so their coordinate vectors are directly comparable."""
    cc = as_cone(rep_or_cone, rank_rtol)
    form = QuadraticMap(cc, [cc.cocycle_parts(u, pre_tolerance) for u in us]).form
    d = np.arange(len(form))
    return obstruction_classes(cc, form[d, d].T[None])[0]


def pairing_tensor(rep_or_cone, basis: CohomologyBasis, tolerance: float = 1e-8,
                   rank_rtol: float = 1e-8) -> PairingTensor:
    """Polarized quadratic map on a cohomology basis, in a common quotient.

    B(u, v) = (Q(u + v) - Q(u) - Q(v)) / 2 = D(u, v), read off one
    :func:`cup_form` over the basis, symmetric by construction.  The
    verdict is True iff every entry norm is at most the tolerance, which is
    the cup-product smoothness criterion.  The verdict and
    :meth:`PairingTensor.max_norm` read the norms alone; an entry's
    :class:`ObstructionClass` is built when it is first looked up.
    """
    check_tolerance(tolerance)
    cc = as_cone(rep_or_cone, rank_rtol)
    h = len(basis)
    qmap = QuadraticMap(cc, [list(v) for v in basis.vectors])
    keys = [(i, i) for i in range(h)] + [(i, j) for i in range(h) for j in range(i + 1, h)]
    rows, cols = np.array(keys, dtype=int).reshape(-1, 2).T
    coords, norms, projected = _class_parts(cc, qmap.form[rows, cols].T[None])
    entries = _PairingEntries(cc, keys, coords[0], norms[0], projected[0])
    verdict = all(size <= tolerance for size in entries.norms)
    return PairingTensor(entries=entries, verdict=verdict, tolerance=tolerance)
