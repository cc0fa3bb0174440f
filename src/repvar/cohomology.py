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

Q has a single implementation: :func:`order2_defect` gives the raw order-2
defect of (u, xi), :func:`shift_directions` its conjugator-kernel shift
directions, and :func:`obstruction_classes` reduces a list of defects in one
common quotient.  :func:`obstruction`, :func:`common_obstruction`,
:func:`pairing_tensor` and the failure path of :func:`repvar.jets.lift` all
go through these three functions.

All linear algebra is over the B-orthonormal real coordinates of
:func:`repvar.unitary.skew_basis`, where B equals the Euclidean inner
product.  Rank decisions use a relative singular-value threshold with an
explicit ill-conditioning diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .presentation import Word
from .repspace import Representation, evaluate_word, transport_matrix, word_transport_terms
from .truncring import MatrixJet, exp_series, unitary_generator_jet, word_jet
from .unitary import ad_matrix, project_skew, unvec_skew, vec_skew


class IllConditionedError(RuntimeError):
    """A rank decision sits inside the ambiguous singular-value band."""

    def __init__(self, context: str, candidates: tuple[int, int], threshold: float):
        self.context = context
        self.candidates = candidates
        self.threshold = threshold
        super().__init__(
            f"{context}: ambiguous rank, candidates {candidates} at threshold {threshold:.3e}"
        )


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
        out = {
            "h0": self.h0, "c0": self.c0, "z1_par": self.z1_par, "b1": self.b1,
            "h1_par": self.h1_par, "h1_cone": self.h1_cone, "o2": self.o2,
        }
        out["rank_gaps"] = {k: self.gaps[k] for k in sorted(self.gaps)}
        return out


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
    representative: Cochain2
    coordinates: np.ndarray
    norm: float

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


def _rank_cut(s: np.ndarray, rtol: float, context: str, gaps: dict | None = None) -> int:
    """Rank at the relative threshold, with an ambiguity band of a factor 10."""
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0.0:
        if gaps is not None:
            gaps[context] = None
        return 0
    tau = rtol * s[0]
    lo = int(np.sum(s > 10.0 * tau))
    hi = int(np.sum(s > tau / 10.0))
    if lo != hi:
        raise IllConditionedError(context, (lo, hi), float(tau))
    r = int(np.sum(s > tau))
    gap = None
    if 0 < r < s.size and s[r] > 0.0:
        gap = float(s[r - 1] / s[r])
    if gaps is not None:
        gaps[context] = gap
    return r


class _LstsqSolver:
    """Cached SVD factorization for minimal-norm least squares against one matrix."""

    def __init__(self, a: np.ndarray, rtol: float, context: str, gaps: dict | None = None):
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        self.rank = _rank_cut(s, rtol, context, gaps)
        self.u_r = u[:, :self.rank]
        self.s_r = s[:self.rank]
        self.vt_r = vt[:self.rank]
        self.nullspace = vt[self.rank:].T
        self.left_null = u[:, self.rank:]
        self.cols = a.shape[1]

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        proj = self.u_r.T @ b
        x = self.vt_r.T @ (proj / self.s_r) if self.rank else np.zeros(self.cols)
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
        self.pinv = solver.vt_r.T @ ((1.0 / solver.s_r)[:, None] * solver.u_r.T) \
            if self.rank else np.zeros((self.map.shape[1], self.map.shape[0]))


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

        self.periph_values = [evaluate_word(rep, p.word) for p in pres.peripherals]
        ad_gen = [ad_matrix(m) for m in rep.matrices]
        ad_per = [ad_matrix(w) for w in self.periph_values]
        eye = np.eye(q)

        self.d0_gen = np.vstack([eye - a for a in ad_gen]) if self.n_gen else np.zeros((0, q))
        if self.groups:
            self.d0_full = np.vstack([self.d0_gen] + [eye] * len(self.groups))
        else:
            self.d0_full = self.d0_gen

        self.rel_rows = [transport_matrix(rep, r) for r in pres.relators]
        self.per_rows = [transport_matrix(rep, p.word) for p in pres.peripherals]
        self.group_of = {}
        for gi, members in enumerate(self.groups):
            for i in members:
                self.group_of[i] = gi
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
        pt_cols = []
        for j in range(self.n_rel):
            block = np.zeros((rows, q))
            block[j * q:(j + 1) * q] = eye
            pt_cols.append(block)
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
        self.complex_defect = float(
            np.linalg.norm(self.d1_cone @ self.d0_full)
        ) if self.d0_full.size else 0.0

    # -- coordinate helpers ------------------------------------------------

    def stack_gen(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([vec_skew(m) for m in mats]) if len(mats) else np.zeros(0)

    def unstack_gen(self, v: np.ndarray) -> list[np.ndarray]:
        n = self.rep.rank
        return [unvec_skew(v[i * self.q:(i + 1) * self.q], n) for i in range(self.n_gen)]

    def unstack_cone(self, v: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        n = self.rep.rank
        gen = self.unstack_gen(v[: self.n_gen * self.q])
        off = self.n_gen * self.q
        conj = [
            unvec_skew(v[off + g * self.q: off + (g + 1) * self.q], n)
            for g in range(len(self.groups))
        ]
        return gen, conj

    def unstack_target(self, v: np.ndarray) -> Cochain2:
        n = self.rep.rank
        rel = tuple(
            unvec_skew(v[j * self.q:(j + 1) * self.q], n) for j in range(self.n_rel)
        )
        per = tuple(
            unvec_skew(v[(self.n_rel + i) * self.q:(self.n_rel + i + 1) * self.q], n)
            for i in range(self.n_per)
        )
        return Cochain2(rel, per)

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
                 conj_jets: Sequence[Sequence[np.ndarray]], m: int) -> np.ndarray:
    """Order-m defect of the jet representation with the given coefficient jets.

    Relator rows are the t^m coefficients of the relator words against their
    base values; peripheral rows are the t^m coefficients of the conjugated
    peripheral words against the base values.  Exact truncated arithmetic;
    the dependence on the order-m jets is affine with matrix d1_cone.
    """
    rep = cc.rep
    n = rep.rank
    jets = [
        unitary_generator_jet(rep.matrices[i], list(gen_jets[i]), m)
        for i in range(cc.n_gen)
    ]
    conj_exp = [
        exp_series(MatrixJet.from_series(list(conj_jets[g]), m, n, start=1))
        for g in range(len(cc.groups))
    ]
    parts = []
    for r in rep.presentation.relators:
        w = word_jet(jets, r, m, n)
        base = evaluate_word(rep, r)
        parts.append(vec_skew(project_skew(w.coeff(m) @ base.conj().T)))
    for i, p in enumerate(rep.presentation.peripherals):
        e = conj_exp[cc.group_of[i]]
        c = e.dagger() @ word_jet(jets, p.word, m, n) @ e
        parts.append(vec_skew(project_skew(c.coeff(m) @ cc.periph_values[i].conj().T)))
    return np.concatenate(parts) if parts else np.zeros(0)


def order2_defect(cc: ConeComplex, umats: Sequence[np.ndarray],
                  xi: Sequence[np.ndarray]) -> np.ndarray:
    """Raw order-2 defect of X_1 = u with conjugator parts xi and vanishing
    second-order corrections: the single evaluation behind Q."""
    return order_defect(cc, [[u] for u in umats], [[x] for x in xi], 2)


def shift_directions(cc: ConeComplex, umats: Sequence[np.ndarray],
                     xi: Sequence[np.ndarray], raw: np.ndarray) -> list[np.ndarray]:
    """Directions along which Q(u) changes when the canonical conjugator choice
    moves inside the joint-centralizer kernel; raw is order2_defect(cc, umats, xi).
    The order-2 defect is affine in that kernel shift, so plain differences
    give the directions exactly."""
    n = cc.rep.rank
    shifts = []
    unorm = float(np.linalg.norm(cc.stack_gen(umats))) if len(umats) else 0.0
    xinorm = max((float(np.linalg.norm(x)) for x in xi), default=0.0)
    floor = 1e-12 * (1.0 + unorm + xinorm)
    for g, gd in enumerate(cc.group_data):
        for col in range(gd.kernel.shape[1]):
            xi2 = [x.copy() for x in xi]
            xi2[g] = xi2[g] + unvec_skew(gd.kernel[:, col], n)
            diff = cc.project_peripheral(order2_defect(cc, umats, xi2) - raw)
            size = float(np.linalg.norm(diff))
            if size > floor:
                shifts.append(diff / size)
    return shifts


def obstruction_classes(cc: ConeComplex, defects: Sequence[np.ndarray],
                        shifts: Sequence[np.ndarray]) -> list[ObstructionClass]:
    """Classes of raw defects in one common quotient O^2, so their coordinates
    are directly comparable.

    O^2 is the parabolic degree-2 target modulo Im(d1_par) plus the shift
    directions; its coordinates come from an orthonormal basis of that
    complement in parabolic-target coordinates.
    """
    cols = [cc.pt_basis.T @ cc.d1_par] if cc.d1_par.size else []
    if shifts:
        cols.append(cc.pt_basis.T @ np.column_stack(shifts))
    quotient = np.eye(cc.par_target_dim)
    if cols:
        a = np.hstack(cols)
        norms = np.linalg.norm(a, axis=0)
        keep = norms > 1e-13 * max(1.0, float(norms.max(initial=0.0)))
        if keep.any():
            u, s, _ = np.linalg.svd(a[:, keep] / norms[keep], full_matrices=True)
            quotient = u[:, _rank_cut(s, cc.rank_rtol, "obstruction quotient"):]
    classes = []
    for raw in defects:
        projected = cc.project_peripheral(raw)
        coords = quotient.T @ (cc.pt_basis.T @ projected)
        classes.append(ObstructionClass(representative=cc.unstack_target(projected),
                                        coordinates=coords, norm=float(np.linalg.norm(coords))))
    return classes


def _order2_terms(cc: ConeComplex, cocycles: Sequence[Sequence[np.ndarray]]):
    """Canonical conjugator parts and raw order-2 defects of several cocycles,
    with the shift directions of all of them pooled."""
    xis, raws, shifts = [], [], []
    for umats in cocycles:
        xi, _ = cc.canonical_xi(umats)
        xis.append(xi)
        raws.append(order2_defect(cc, umats, xi))
        shifts.extend(shift_directions(cc, umats, xi, raws[-1]))
    return xis, raws, shifts


def obstruction(rep_or_cone, u, pre_tolerance: float = 1e-6,
                rank_rtol: float = 1e-8) -> ObstructionClass:
    """The quadratic map Q at a parabolic cocycle generator part.

    Solves the canonical minimal-norm conjugator parts, computes the exact
    order-2 relator and conjugated-peripheral defects by degree-2 jet
    arithmetic with vanishing second-order corrections, and reduces the
    projected defect in the operational obstruction quotient.  Q(l u) equals
    l^2 Q(u) and Q vanishes on coboundary directions.
    """
    return common_obstruction(rep_or_cone, [u], pre_tolerance, rank_rtol)[0]


def common_obstruction(rep_or_cone, us: Sequence, pre_tolerance: float = 1e-6,
                       rank_rtol: float = 1e-8) -> list[ObstructionClass]:
    """Obstruction classes of several cocycles reduced in one common quotient,
    so their coordinate vectors are directly comparable."""
    cc = as_cone(rep_or_cone, rank_rtol)
    _, raws, shifts = _order2_terms(cc, [cc.cocycle_parts(u, pre_tolerance) for u in us])
    return obstruction_classes(cc, raws, shifts)


def pairing_tensor(rep_or_cone, basis: CohomologyBasis, tolerance: float = 1e-8,
                   rank_rtol: float = 1e-8) -> PairingTensor:
    """Polarized quadratic map on a cohomology basis, in a common quotient.

    B(u, v) = (Q(u + v) - Q(u) - Q(v)) / 2, symmetric by construction.  The
    verdict is True iff every entry norm is at most the tolerance, which is
    the cup-product smoothness criterion.
    """
    check_tolerance(tolerance)
    cc = as_cone(rep_or_cone, rank_rtol)
    h = len(basis)
    if h == 0:
        return PairingTensor(entries={}, verdict=True, tolerance=tolerance)
    umats = [list(v) for v in basis.vectors]
    xis, raws, shifts = _order2_terms(cc, umats)
    pairs = [(i, j) for i in range(h) for j in range(i + 1, h)]
    polar = [
        0.5 * (order2_defect(cc, [a + b for a, b in zip(umats[i], umats[j])],
                             [a + b for a, b in zip(xis[i], xis[j])]) - raws[i] - raws[j])
        for i, j in pairs
    ]
    classes = obstruction_classes(cc, raws + polar, shifts)
    entries = dict(sorted(zip([(i, i) for i in range(h)] + pairs, classes)))
    verdict = all(e.norm <= tolerance for e in entries.values())
    return PairingTensor(entries=entries, verdict=verdict, tolerance=tolerance)
