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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cohomology import (
    ConeComplex,
    CohomologyBasis,
    ObstructionClass,
    QuadraticMap,
    as_cone,
    check_tolerance,
    cup_form,
    obstruction_classes,
    order_defect,
)
from .repspace import Representation
from .truncring import MatrixJet, exp_series, log_series, unitary_generator_jet, word_jet
from .unitary import project_skew


@dataclass(frozen=True)
class LiftOptions:
    tolerance: float = 1e-7      # relative to |u|^2, the scale of the defects
    budget: int = 3              # kept for perfbench's audit op; read by nothing
    pre_tolerance: float = 1e-6  # cocycle precondition


@dataclass(frozen=True)
class JetRepresentation:
    base: Representation
    order: int
    generator_jets: tuple[tuple[np.ndarray, ...], ...]   # per generator: X_1..X_k
    conjugator_jets: tuple[tuple[np.ndarray, ...], ...]  # per group: zeta_1..zeta_k

    def matrix_jets(self) -> list[MatrixJet]:
        return [
            unitary_generator_jet(m, list(jets), self.order)
            for m, jets in zip(self.base.matrices, self.generator_jets)
        ]

    def conjugator_exp(self, group: int) -> MatrixJet:
        return exp_series(MatrixJet.from_series(
            list(self.conjugator_jets[group]), self.order, self.base.rank, start=1))


@dataclass(frozen=True)
class LiftReport:
    achieved_order: int
    residuals: tuple[float, ...]
    obstruction: ObstructionClass | None
    budget_exceeded: bool
    corrections: JetRepresentation | None = field(compare=False, default=None)

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


@dataclass(frozen=True)
class ConeProbeReport:
    samples: int
    order: int
    tolerance: float
    budget: int
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
            "budget": self.budget,
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
    return word_jet(jrep.matrix_jets(), word, jrep.order, jrep.base.rank)


def _freeze(base, order, gen_jets, conj_jets) -> JetRepresentation:
    return JetRepresentation(
        base=base, order=order,
        generator_jets=tuple(tuple(m.copy() for m in jets) for jets in gen_jets),
        conjugator_jets=tuple(tuple(m.copy() for m in jets) for jets in conj_jets),
    )


def lift(rep_or_cone, u, order: int, options: LiftOptions | None = None) -> LiftReport:
    """Lift a parabolic cocycle to a jet representation of the given order.

    Sets X_1 = u and the minimal-norm conjugator jets, then solves the exact
    order-m defect equations for m = 2..order by minimal-norm least squares
    against the cone differential.  An unsolvable order-2 defect is the
    obstruction Q(u).  From the first unsolvable order m >= 3 on, each order
    first moves the order-(m-1) correction inside the cone kernel K: that
    order stays solved, and the order-m defect moves by exactly 2 D(u, K c)
    (D the cup form of :func:`~repvar.cohomology.cup_form`; the square of
    K c lands at order 2m - 2 > m).  c is the least-squares choice that
    brings the defect into the image of the cone differential.  A later
    order that is still unsolvable is reported with budget_exceeded set.
    """
    opts = options or LiftOptions()
    check_tolerance(opts.tolerance)
    cc = as_cone(rep_or_cone)
    umats = cc.cocycle_parts(u, opts.pre_tolerance)
    uvec = cc.stack_gen(umats)
    tol_abs = opts.tolerance * float(np.linalg.norm(uvec)) ** 2

    xi, xi_resid = cc.canonical_xi(umats)
    rel_resid = max(
        (float(np.linalg.norm(row @ uvec)) for row in cc.rel_rows), default=0.0
    )
    residuals = [max(xi_resid, rel_resid)]
    gen_jets = [[m.copy()] for m in umats]
    conj_jets = [[x.copy()] for x in xi]
    jets = gen_jets + conj_jets
    moves = fit = None  # 2 D(u, K) and its least-squares fit on the cokernel
    for m in range(2, order + 1):
        defect = order_defect(cc, gen_jets, conj_jets, m)
        if fit is None:
            x, resid = cc.cone_solver.solve(-defect)
            if resid > tol_abs and m > 2:
                moves = 2.0 * cup_form(cc, [(umats, xi)] + cc.cone_kernel_parts)[0, 1:].T
                coker = cc.cone_solver.left_null.T
                fit = -np.linalg.pinv(coker @ moves) @ coker
        if fit is not None:
            c = fit @ defect
            d_gen, d_conj = cc.unstack_cone(cc.cone_kernel @ c)
            for series, d in zip(jets, d_gen + d_conj):
                series[m - 2] = series[m - 2] + d
            defect = defect + moves @ c
            x, resid = cc.cone_solver.solve(-defect)
        if resid > tol_abs:
            # an order-2 failure is classed by Q itself; a later one by its own defect
            qmap = QuadraticMap(cc, [umats])
            obs = obstruction_classes(cc, [qmap.form[0, 0] if m == 2 else defect],
                                      qmap.pooled_shifts())[0]
            residuals.append(resid)
            return LiftReport(
                achieved_order=m - 1,
                residuals=tuple(residuals),
                obstruction=obs,
                budget_exceeded=m > 2,
                corrections=_freeze(cc.rep, m - 1, gen_jets, conj_jets),
            )
        gen_corr, conj_corr = cc.unstack_cone(x)
        for series, corr in zip(jets, gen_corr + conj_corr):
            series.append(corr)
        residuals.append(resid)
    return LiftReport(
        achieved_order=order,
        residuals=tuple(residuals),
        obstruction=None,
        budget_exceeded=False,
        corrections=_freeze(cc.rep, order, gen_jets, conj_jets),
    )


def probe_cone(rep_or_cone, basis: CohomologyBasis, samples: int = 50, order: int = 4,
               seed: int = 0, tolerance: float = 1e-7, budget: int = 3) -> ConeProbeReport:
    """Sample random tangent directions, compare Q(u) with lifting behavior.

    The quadraticity prediction is an empty off-diagonal contingency: cone
    directions (Q at most tolerance * |u|^2) never fail at order 2 and
    non-cone directions never lift past order 2.  A direction that fails at
    order 2 takes Q from the lift's own failure report; every other direction
    u = sum c_i b_i takes it from one :class:`~repvar.cohomology.QuadraticMap`
    over the basis, built once per call.  budget is echoed in the report and
    changes no lift; budget_exceeded counts the lifts that failed past
    order 2.
    """
    check_tolerance(tolerance)
    cc = as_cone(rep_or_cone)
    if len(basis) == 0:
        return ConeProbeReport(samples=0, order=order, tolerance=tolerance,
                               budget=budget, seed=seed, rigid=True)
    counts = dict(cone_success=0, cone_fail_order2=0, cone_fail_later=0,
                  noncone_fail_order2=0, noncone_past_order2=0, budget_exceeded=0)
    qmap = QuadraticMap(cc, [list(v) for v in basis.vectors])
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        coeffs = rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        uvec = basis.matrix @ coeffs
        umats = cc.unstack_gen(uvec)
        unorm = float(np.linalg.norm(uvec))
        report = lift(cc, umats, order, LiftOptions(tolerance=tolerance))
        q = report.obstruction if report.achieved_order == 1 else qmap(coeffs)
        is_cone = q.norm <= tolerance * unorm ** 2
        counts["budget_exceeded"] += report.budget_exceeded
        got = report.achieved_order
        if is_cone:
            counts["cone_success" if got == order else
                   "cone_fail_order2" if got == 1 else "cone_fail_later"] += 1
        else:
            counts["noncone_past_order2" if got >= 2 else "noncone_fail_order2"] += 1
    return ConeProbeReport(samples=samples, order=order, tolerance=tolerance,
                           budget=budget, seed=seed, rigid=False, **counts)


def jet_residual_profile(jrep: JetRepresentation, cone: ConeComplex | None = None) -> list[float]:
    """Per-order closure residuals of a jet representation: the norms of the
    relator and conjugated-peripheral defects at each order 1..k."""
    cc = cone if cone is not None else ConeComplex(jrep.base)
    gen_jets = [list(j) for j in jrep.generator_jets]
    conj_jets = [list(j) for j in jrep.conjugator_jets]
    return [
        float(np.linalg.norm(order_defect(cc, gen_jets, conj_jets, m)))
        for m in range(1, jrep.order + 1)
    ]


def gauge_transform(jrep: JetRepresentation, gauge_jets: Sequence[np.ndarray]) -> JetRepresentation:
    """Conjugate a jet representation by exp(sum t^m Y_m) and renormalize.

    The conjugator jets absorb the gauge factor, so the conjugated peripheral
    values, and hence the per-order residual profile, are unchanged.
    """
    base = jrep.base
    n = base.rank
    k = jrep.order
    g = exp_series(MatrixJet.from_series(list(gauge_jets), k, n, start=1))
    ginv = g.dagger()
    new_gen = []
    for mat, jets in zip(base.matrices, jrep.generator_jets):
        old = unitary_generator_jet(mat, list(jets), k)
        moved = g @ old @ ginv
        s = log_series(moved @ MatrixJet.constant(mat.conj().T, k))
        new_gen.append(tuple(project_skew(s.coeff(m)) for m in range(1, k + 1)))
    new_conj = []
    for gi in range(len(jrep.conjugator_jets)):
        moved = g @ jrep.conjugator_exp(gi)
        s = log_series(moved)
        new_conj.append(tuple(project_skew(s.coeff(m)) for m in range(1, k + 1)))
    return JetRepresentation(base=base, order=k, generator_jets=tuple(new_gen),
                             conjugator_jets=tuple(new_conj))
