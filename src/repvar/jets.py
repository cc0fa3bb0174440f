"""Order-by-order deformation lifting over truncated polynomial rings.

A jet representation deforms a base representation as
rho_t(x) = exp(sum_m t^m X_m) rho(x) over R[t]/(t^(k+1)), together with one
conjugator jet per simultaneity group that returns every peripheral word to
its base value over the ring.  Lifting solves the order-m defect equations
one order at a time; every order shares the same cone-differential
factorization, so a single cached solver is reused throughout.

Success at order 2 is equivalent to the vanishing of the quadratic map Q;
lifting to all orders along the zero cone of Q is the computable shadow of
the quadratic-cone local model.  The choice of earlier corrections matters
there: past order 2, a correction can move inside the cone kernel, which
shifts the next defect linearly through the cup form, and :func:`lift`
makes that choice by one deterministic least-squares solve per order.
:func:`probe_cone` lifts all its samples as one stack, order by order, and
reads |Q| of all of them off the cup form over the basis in one stacked
evaluation.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .cohomology import (
    _STACK_CACHE_LIMIT,
    ConeComplex,
    CohomologyBasis,
    DefectState,
    ObstructionClass,
    obstruction,
    obstruction_classes,
    order_defect,
    q_norms,
    row_norms,
    rowwise,
)
from .presentation import Record
from .repspace import Representation
from .truncring import IncrementalExp, MatrixJet, log_series, unitary_generator_jet, word_jet
from .unitary import check_tolerance, project_skew, unvec_skew, vec_skew


class LiftOptions(NamedTuple):
    tolerance: float = 1e-7      # relative to |u|^2, the scale of the defects
    budget: int = 3              # kept for perfbench's audit op; read by nothing


class JetRepresentation(Record):
    """A base representation and its series X_1..X_k per generator, then zeta_1..zeta_k per
    group: one read-only copy (n_gen + groups, k, N, N), the layout that
    :func:`~repvar.cohomology.order_defect` reads; any other shape raises ValueError.
    Equal only to itself."""

    _fields = ("base", "series")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, base: Representation, series: np.ndarray):
        series = np.array(series, dtype=complex)
        pres, k = base.presentation, series.shape[1] if series.ndim > 1 else 0
        count, n = len(pres.generators) + len(pres.groups), base.rank
        if k < 1 or series.shape != (count, k, n, n):
            raise ValueError(f"series of shape {series.shape}, not ({count}, order >= 1, {n}, {n})")
        series.setflags(write=False)
        self._set(base=base, series=series)

    @property
    def order(self) -> int:
        return self.series.shape[1]

    def exp_jets(self) -> list[MatrixJet]:
        """exp(sum_m t^m S_m) @ base per series, over its matrix or the identity."""
        groups = len(self.base.presentation.groups)
        bases = np.array([*self.base.matrices] + [np.eye(self.base.rank)] * groups, dtype=complex)
        return list(map(MatrixJet, IncrementalExp(bases, self.order).jets(self.series)))


class LiftReport(Record):
    """What a lift reached; equality ignores ``corrections``."""

    _fields = ("achieved_order", "residuals", "obstruction", "budget_exceeded", "corrections")
    _compare = _fields[:-1]

    def __init__(self, achieved_order: int, residuals: tuple[float, ...],
                 obstruction: ObstructionClass | None, budget_exceeded: bool,
                 corrections: JetRepresentation):
        self._set(achieved_order=achieved_order, residuals=residuals, obstruction=obstruction,
                  budget_exceeded=budget_exceeded, corrections=corrections)

    @property
    def succeeded(self) -> bool:
        return self.obstruction is None

    def to_json(self) -> dict:
        return {
            "achieved_order": self.achieved_order,
            "residuals": [float(r) for r in self.residuals],
            "obstruction": None if self.obstruction is None
            else [float(c) for c in self.obstruction.coordinates],
            "budget_exceeded": self.budget_exceeded,
        }


class ConeProbeReport(NamedTuple):
    samples: int
    order: int
    tolerance: float
    seed: int
    rigid: bool
    cone_success: int = 0
    cone_fail_order2: int = 0
    cone_fail_later: int = 0
    noncone_fail_order2: int = 0
    noncone_past_order2: int = 0
    budget_exceeded: int = 0

    @property
    def prediction_holds(self) -> bool:
        """Quadraticity: cone directions never die at order 2, non-cone
        directions never get past it."""
        return self.cone_fail_order2 == 0 and self.noncone_past_order2 == 0

    def contingency(self) -> dict:
        return {
            "cone": {"success": self.cone_success,
                     "failure": self.cone_fail_order2 + self.cone_fail_later},
            "noncone": {"success": self.noncone_past_order2,
                        "failure": self.noncone_fail_order2},
        }

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "order": self.order,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "rigid": self.rigid,
            "contingency": self.contingency(),
            "cone_fail_order2": self.cone_fail_order2,
            "cone_fail_later": self.cone_fail_later,
            "noncone_past_order2": self.noncone_past_order2,
            "budget_exceeded": self.budget_exceeded,
            "prediction_holds": self.prediction_holds,
        }


def jet_word(jrep: JetRepresentation, word) -> MatrixJet:
    """Evaluate a word in the generator jets of a jet representation."""
    return word_jet(jrep.exp_jets(), word, jrep.order, jrep.base.rank)


class _Lifts(NamedTuple):
    """Outcomes of the lifts of a stack of b cocycles to one order: the order
    each reached, its residuals at orders 1..order (zero past a failing
    order), the defect it failed on, and its jets X_1..X_order per generator,
    then per conjugator (zero from the failing order on)."""

    achieved: np.ndarray   # (b,)
    residuals: np.ndarray  # (b, order)
    defects: np.ndarray    # (b, dim)
    jets: np.ndarray       # (b, series, order, n, n)


def _lift_stack(cc: ConeComplex, umats: np.ndarray, order: int, tolerance: float) -> _Lifts:
    """Lift the cocycles umats (b, n_gen, n, n) to the given order with a
    tolerance relative to each |u|^2, in chunks whose defect states hold at
    most _STACK_CACHE_LIMIT complex numbers."""
    b, count, n = len(umats), len(cc.jet_bases), cc.rep.rank
    out = _Lifts(achieved=np.full(b, order), residuals=np.zeros((b, order)),
                 defects=np.zeros((b, cc.d1_cone.shape[0])),
                 jets=np.zeros((b, count, order, n, n), dtype=complex))
    size = max(1, _STACK_CACHE_LIMIT // DefectState.size(cc, order))
    for start in range(0, b, size):
        _lift_chunk(cc, umats, order, tolerance, out, np.arange(start, min(start + size, b)))
    return out


def _lift_chunk(cc: ConeComplex, umats: np.ndarray, order: int, tolerance: float,
                out: _Lifts, active: np.ndarray) -> None:
    """Lift the samples at the rows ``active`` of umats together, writing
    their outcomes into those rows of out.

    Each order makes one order_defect call and one cone solve for all active
    samples, and one more solve for those in the cone-kernel rescue.  A
    sample's rescue moves 2 D(u, K) are its X_1 = (u, xi) times the cone's
    cached ``kernel_cup``.  A sample that fails leaves the active rows and
    the shared defect state.  A tolerance, defect or residual that is not
    finite raises FloatingPointError once the chunk is lifted, naming the
    first order it shows at.  Every product that involves a sample follows
    the merge rule of :func:`~repvar.cohomology.rowwise`: a factor all
    samples share on the right is one gemm with the samples as its rows,
    everything else is formed per stack row.  So a sample's outcome does
    not depend on the samples lifted with it wherever the BLAS rounds each
    row of a gemm as a gemm of that row alone would (OpenBLAS 0.3.31 on
    SkylakeX, which the tests check and whose core the test header
    names).  The rescue's fit drops singular values below cc.rank_rtol times
    each sample's largest: numpy's default cut, 1e-15, would invert rounding
    where the fit is rank-deficient (a U(2)+U(2) point) and stop cone
    directions there at order 2 or 3."""
    n, q, n_gen, count = cc.rep.rank, cc.q, cc.n_gen, len(cc.jet_bases)
    b = len(active)
    u = np.asarray(umats[active], dtype=complex)
    uvecs = vec_skew(u).reshape(b, -1)
    tol = tolerance * np.linalg.norm(uvecs, axis=1) ** 2
    rows, limits = active, tol
    xis, xi_resid = cc.canonical_xi(u)
    rel = rowwise(uvecs, cc.d1_cone[:cc.n_rel * q, :n_gen * q].T).reshape(b, cc.n_rel, q)
    residuals = np.zeros((b, order))
    residuals[:, 0] = np.maximum(xi_resid, np.linalg.norm(rel, axis=2).max(axis=1, initial=0.0))
    # X_1..X_order of every generator, then of every conjugator; zero until solved
    jets = np.zeros((b, count, order, n, n), dtype=complex)
    jets[:, :n_gen, 0], jets[:, n_gen:, 0] = u, xis
    state = DefectState(cc, b, order)
    kernel, coker = cc.cone_kernel, cc.cone_solver.left_null.T
    # per sample, once rescued: 2 D(u, K) and its least-squares fit on the cokernel
    # (an order-2 failure is Q(u) and is never rescued)
    rescued = np.zeros(b, dtype=bool)
    moves = np.zeros((b, coker.shape[1], kernel.shape[1]))
    fit = np.zeros((b, kernel.shape[1], coker.shape[1]))
    for m in range(2, order + 1):
        if not len(active):
            break
        defect = order_defect(cc, state, jets, m)
        x, resid = cc.cone_solver.solve(-defect)
        if m > 2:
            new = (resid > tol) & ~rescued
            if new.any():
                cup = cc.kernel_cup
                first = vec_skew(jets[new, :, 0]).reshape(-1, len(cup))  # (u, xi) of X_1
                moves[new] = 2.0 * rowwise(first, cup.reshape(len(cup), -1)).reshape(
                    -1, *cup.shape[1:]).swapaxes(1, 2)
                fit[new] = -np.linalg.pinv(coker @ moves[new], rcond=cc.rank_rtol) @ coker
                rescued |= new
            if rescued.any():
                c = fit[rescued] @ defect[rescued, :, None]
                jets[rescued, :, m - 2] += unvec_skew((kernel @ c).reshape(-1, count, q), n)
                defect[rescued] += (moves[rescued] @ c)[..., 0]
                x[rescued], resid[rescued] = cc.cone_solver.solve(-defect[rescued])
        failed = resid > tol
        residuals[:, m - 1] = resid
        if failed.any():
            gone = active[failed]
            out.achieved[gone] = m - 1
            out.residuals[gone], out.defects[gone], out.jets[gone] = (
                residuals[failed], defect[failed], jets[failed])
            keep = ~failed
            active, jets, x, tol, residuals, rescued, moves, fit = (
                active[keep], jets[keep], x[keep], tol[keep], residuals[keep], rescued[keep],
                moves[keep], fit[keep])
            state.keep(keep)
        jets[:, :, m - 1] = unvec_skew(x.reshape(-1, count, q), n)
    out.residuals[active], out.jets[active] = residuals, jets
    # a NaN residual compares false against any tolerance and an inf tolerance
    # passes every residual, so either would pass as solved; a defect that is
    # not finite makes its residual so
    finite = np.isfinite(out.residuals[rows]).all(axis=0) & np.isfinite(limits).all()
    if not finite.all():
        raise FloatingPointError(f"lift order {int(np.argmin(finite)) + 1}: a tolerance, "
                                 "defect or residual is not finite")


def lift(cc: ConeComplex, u, order: int, options: LiftOptions | None = None) -> LiftReport:
    """Lift a parabolic cocycle to a jet representation of the given order.

    Sets X_1 = u and the minimal-norm conjugator jets, then solves the exact
    order-m defect equations for m = 2..order by minimal-norm least squares
    against the cone differential: one
    :func:`~repvar.cohomology.order_defect` call per order, all sharing one
    :class:`~repvar.cohomology.DefectState` sized to the lift's order, so an
    order forms only the exponential and word-product coefficients that its
    own degree and the last correction moved.  An unsolvable order-2 defect
    is the obstruction Q(u).  From the first unsolvable order m >= 3 on,
    each order first moves the order-(m-1) correction inside the cone kernel
    K: that order stays solved, and the order-m defect moves by exactly
    2 D(u, K c) (D the cup form of :func:`~repvar.cohomology.cup_form`; the
    square of K c lands at order 2m - 2 > m).  c is the least-squares choice
    that brings the defect into the image of the cone differential.  A later
    order that is still unsolvable is reported with budget_exceeded set.
    Its obstruction is the O^2 class of that order's raw defect, with no
    scale beside it, and can be as small as that defect's rounding
    eps |raw|: at the U(3) sphere with classes (1/q, 2/q, -3/q), q = 5, 7,
    11, 13 (``find`` seed 1, tolerance 1e-11), lifts of tangent basis
    vectors 0, 2, 3, 5 and 7 to order 6 fail at order 3 with |raw| of
    2.5e10 to 4.2e12 and coordinates of 8.6e-5 to 2.5e-3, against eps |raw|
    of 5.5e-6 to 9.2e-4.

    This is the one-sample case of the stacked lift that :func:`probe_cone`
    runs over all its samples at once, where each order forms the defects
    and the cone solves of the whole stack and a failed sample leaves it;
    a sample's outcome there is that of its own lift.
    """
    opts = options or LiftOptions()
    check_tolerance(opts.tolerance)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    umats = cc.cocycle_parts(u)
    lifts = _lift_stack(cc, np.asarray(umats, dtype=complex)[None], order, opts.tolerance)
    got = int(lifts.achieved[0])
    # an order-2 failure is classed by Q itself; a later one by its own defect
    obs = (None if got == order else obstruction(cc, umats) if got == 1
           else obstruction_classes(cc, lifts.defects[0][:, None])[0])
    return LiftReport(
        achieved_order=got,
        residuals=tuple(lifts.residuals[0, :got + (got < order)].tolist()),
        obstruction=obs,
        budget_exceeded=1 < got < order,
        corrections=JetRepresentation(cc.rep, lifts.jets[0, :, :got]),
    )


def probe_cone(cc: ConeComplex, basis: CohomologyBasis, samples: int = 50, order: int = 4,
               seed: int = 0, tolerance: float = 1e-7) -> ConeProbeReport:
    """Sample random tangent directions, compare Q(u) with lifting behavior.

    The directions are the normalized rows of one
    ``numpy.random.default_rng(seed).standard_normal((samples, len(basis)))``,
    sample i being row i, so a probe's first k samples are those of a
    k-sample probe at the same seed.

    The quadraticity prediction is an empty off-diagonal contingency: cone
    directions (Q at most tolerance * |u|^2) never fail at order 2 and
    non-cone directions never lift past order 2.  Every direction
    u = sum c_i b_i takes |Q| from the cup form over the basis, which the
    complex keeps per basis (:meth:`~repvar.cohomology.ConeComplex.basis_form`),
    read once by :func:`~repvar.cohomology.q_norms` on the stack of all sample
    coefficients, in the one quotient of the complex; each sample's norm is
    bitwise its own class's.  All samples are lifted as one stack (in chunks
    of bounded memory) by the code that :func:`lift` runs on one: each order
    makes one defect evaluation and one cone solve for the samples still
    lifting, the cone-kernel rescue reads every sample's moves off one cup
    form of the complex, and a failed sample leaves the stack, its outcome
    that of its own lift.  budget_exceeded counts the lifts that failed past
    order 2.
    """
    check_tolerance(tolerance)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    if len(basis) == 0:
        return ConeProbeReport(samples=0, order=order, tolerance=tolerance, seed=seed,
                               rigid=True)
    counts = dict(cone_success=0, cone_fail_order2=0, cone_fail_later=0,
                  noncone_fail_order2=0, noncone_past_order2=0, budget_exceeded=0)
    form = cc.basis_form(basis)
    draws = np.random.default_rng(seed).standard_normal((samples, len(basis)))
    coeffs = draws / row_norms(draws)[:, None]
    uvecs = rowwise(coeffs, basis.matrix.T)
    umats = unvec_skew(uvecs.reshape(samples, cc.n_gen, cc.q), cc.rep.rank)
    lifts = _lift_stack(cc, umats, order, tolerance)
    norms = row_norms(uvecs).tolist()
    qnorms = q_norms(cc, form, coeffs).tolist()
    for qnorm, unorm, got in zip(qnorms, norms, lifts.achieved.tolist()):
        is_cone = qnorm <= tolerance * unorm ** 2
        counts["budget_exceeded"] += 1 < got < order
        if is_cone:
            counts["cone_success" if got == order else
                   "cone_fail_order2" if got == 1 else "cone_fail_later"] += 1
        else:
            counts["noncone_past_order2" if got >= 2 else "noncone_fail_order2"] += 1
    return ConeProbeReport(samples=samples, order=order, tolerance=tolerance, seed=seed,
                           rigid=False, **counts)


def jet_residual_profile(cc: ConeComplex, jrep: JetRepresentation) -> list[float]:
    """Per-order closure residuals of a jet representation over the complex
    at its base: the norms of the relator and conjugated-peripheral defects
    at each order 1..k, from one :class:`~repvar.cohomology.DefectState`
    shared by the orders."""
    state = DefectState(cc, 1, jrep.order)
    return [float(np.linalg.norm(order_defect(cc, state, jrep.series[None], m)))
            for m in range(1, jrep.order + 1)]


def gauge_transform(jrep: JetRepresentation, gauge_jets: Sequence[np.ndarray]) -> JetRepresentation:
    """Conjugate a jet representation by exp(sum t^m Y_m) and renormalize.

    The conjugator jets absorb the gauge factor, so the conjugated peripheral
    values, and hence the per-order residual profile, are unchanged.
    """
    base, k = jrep.base, jrep.order
    g = unitary_generator_jet(np.eye(base.rank), gauge_jets, k)
    ginv = g.dagger()
    series = np.empty_like(jrep.series)
    for s, old in enumerate(jrep.exp_jets()):
        moved = g @ old
        if s < len(base.matrices):  # a generator's jet, over its matrix
            moved = moved @ ginv @ MatrixJet.constant(base.matrices[s].conj().T, k)
        series[s] = project_skew(log_series(moved).coeffs[1:])
    return JetRepresentation(base, series)
