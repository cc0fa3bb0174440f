import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repvar import cohomology, jets, truncring
from repvar.cohomology import (DefectState, coboundary, cocycle_form, cocycle_transport,
                               h1_basis, obstruction, order_defect, q_norms)
from repvar.jets import (
    JetRepresentation,
    LiftOptions,
    gauge_transform,
    jet_residual_profile,
    jet_word,
    lift,
    probe_cone,
)
from repvar.presentation import parse_presentation
from repvar.repspace import evaluate_word, find_representation
from repvar.unitary import random_skew, vec_skew

from conftest import random_cocycle
from oracles import cone_direction, genus2_direct_sum, oracle_defect_profile


def test_jet_word_zero_jets_is_constant(genus2_irr):
    jrep = JetRepresentation(genus2_irr, np.zeros((4, 3, 2, 2)))
    w = genus2_irr.presentation.relators[0]
    out = jet_word(jrep, w)
    assert np.allclose(out.coeff(0), evaluate_word(genus2_irr, w))
    assert np.max(np.abs(out.coeffs[1:])) == 0.0


def test_jet_word_order1_matches_transport(corpus_points):
    # the key cross-module oracle: first-order jet coefficients reproduce the
    # Fox-calculus transport times the word value
    rng = np.random.default_rng(70)
    for name, rep in corpus_points.items():
        n_gen = len(rep.presentation.generators)
        u = [random_skew(rng, rep.rank, 0.8) for _ in range(n_gen)]
        series = np.zeros((n_gen + len(rep.presentation.groups), 1, rep.rank, rep.rank),
                          dtype=complex)
        series[:n_gen, 0] = u
        jrep = JetRepresentation(rep, series)
        words = list(rep.presentation.relators) + [p.word for p in rep.presentation.peripherals]
        for w in words:
            expected = cocycle_transport(rep, u, w) @ evaluate_word(rep, w)
            got = jet_word(jrep, w).coeff(1)
            assert np.linalg.norm(got - expected) <= 1e-12, name


def test_jet_unitarity_over_ring(genus2_irr):
    rng = np.random.default_rng(71)
    jetsets = [[random_skew(rng, 2, 0.5) for _ in range(4)] for _ in range(4)]
    jrep = JetRepresentation(genus2_irr, jetsets)
    for mj in jrep.exp_jets():
        prod = mj.dagger() @ mj
        expected = np.zeros_like(prod.coeffs)
        expected[0] = np.eye(2)
        assert np.max(np.abs(prod.coeffs - expected)) <= 1e-12


def test_lift_coboundary_any_order(sphere4_rep, sphere4_cc):
    rng = np.random.default_rng(72)
    x = random_skew(rng, 2, 0.8)
    cb = coboundary(sphere4_rep, x)
    report = lift(sphere4_cc, cb.generator_part, 8)
    assert report.succeeded
    assert report.achieved_order == 8
    assert max(report.residuals) <= 1e-11


def test_lift_basis_vectors_genus2_irr(genus2_irr_cc):
    basis = h1_basis(genus2_irr_cc)
    for v in basis.vectors:
        report = lift(genus2_irr_cc, v, 6)
        assert report.succeeded
        assert max(report.residuals) <= 1e-9


def test_lift_failure_matches_obstruction(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    failures = 0
    for v in basis.vectors:
        obs = obstruction(genus2_red_cc, v)
        report = lift(genus2_red_cc, v, 4)
        if obs.norm > 1e-7:
            failures += 1
            assert not report.succeeded
            assert report.achieved_order == 1
            assert not report.budget_exceeded
            agree = np.linalg.norm(obs.coordinates - report.obstruction.coordinates)
            assert agree <= 1e-8
        else:
            assert report.succeeded
    assert failures > 0


def test_lift_failure_obstruction_is_bitwise_q(genus2_red_cc):
    # a lift that fails at order 2 reports Q(u) as its obstruction, so it must
    # be exactly the class that obstruction() computes
    basis = h1_basis(genus2_red_cc)
    rng = np.random.default_rng(75)
    for _ in range(30):
        u = random_cocycle(genus2_red_cc, basis, rng)
        report = lift(genus2_red_cc, u, 3)
        assert report.achieved_order == 1
        obs = obstruction(genus2_red_cc, u)
        assert report.obstruction.norm == obs.norm
        assert np.array_equal(report.obstruction.coordinates, obs.coordinates)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-7, float("inf")])
def test_bad_tolerance_rejected(genus2_red_cc, tol):
    basis = h1_basis(genus2_red_cc)
    with pytest.raises(ValueError, match="tolerance"):
        lift(genus2_red_cc, basis.vectors[0], 3, LiftOptions(tolerance=tol))
    with pytest.raises(ValueError, match="tolerance"):
        probe_cone(genus2_red_cc, basis, samples=2, order=3, tolerance=tol)
    with pytest.raises(ValueError, match="tolerance"):
        cohomology.pairing_tensor(genus2_red_cc, basis, tolerance=tol)


@pytest.mark.parametrize("samples, order", [(0, 3), (-3, 3), (2, 1), (2, 0)])
def test_bad_sample_count_or_order_rejected(genus2_red_cc, samples, order):
    # the bounds the CLI applies: at least one sample, probe order at least 2
    basis = h1_basis(genus2_red_cc)
    name = "samples" if samples < 1 else "order"
    with pytest.raises(ValueError, match=name):
        probe_cone(genus2_red_cc, basis, samples=samples, order=order)


@pytest.mark.parametrize("order", [0, -2])
def test_bad_lift_order_rejected(genus2_red_cc, order):
    basis = h1_basis(genus2_red_cc)
    with pytest.raises(ValueError, match="order"):
        lift(genus2_red_cc, basis.vectors[0], order)
    assert lift(genus2_red_cc, basis.vectors[0], 1).achieved_order == 1


def test_lift_of_non_finite_defects_raises(sphere4_cc):
    # at 1e200 the tolerance 1e-7 |u|^2 is inf and the defects NaN, which
    # compares false against any tolerance: unchecked, the lift would pass
    u = [1e200 * m for m in h1_basis(sphere4_cc).vectors[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="lift order 1: "):
            lift(sphere4_cc, u, 4)


def test_order2_equivalence_sampled(corpus_points):
    # lift succeeds at order 2 iff the obstruction norm is below the threshold
    rng = np.random.default_rng(73)
    checked = 0
    for name, rep in corpus_points.items():
        cc = cohomology.assemble_complex(rep)
        basis = h1_basis(cc)
        if len(basis) == 0:
            continue
        for _ in range(20):
            u = random_cocycle(cc, basis, rng)
            unorm = float(np.linalg.norm(np.concatenate([vec_skew(m) for m in u])))
            q = obstruction(cc, u)
            report = lift(cc, u, 2)
            assert (q.norm <= 1e-7 * unorm ** 2) == report.succeeded, name
            checked += 1
    assert checked >= 60


def test_lift_report_invariant(genus2_red_cc, genus2_irr_cc):
    basis = h1_basis(genus2_red_cc)
    for v in basis.vectors[:4]:
        report = lift(genus2_red_cc, v, 3)
        assert (report.achieved_order == 3) == (report.obstruction is None)


def test_lift_profile_matches_reported_residuals(genus2_irr_cc):
    basis = h1_basis(genus2_irr_cc)
    report = lift(genus2_irr_cc, basis.vectors[0], 5)
    profile = jet_residual_profile(genus2_irr_cc, report.corrections)
    for m in range(2, 6):
        assert profile[m - 1] == pytest.approx(report.residuals[m - 1], abs=1e-10)


def test_jet_representation_takes_one_series_array(sphere4_cc):
    # one (n_gen + groups, order, N, N) array per jet representation: short
    # (ragged) series and every other shape are rejected, and the array is
    # a read-only copy
    rep = sphere4_cc.rep
    zero = np.zeros((2, 2))
    bad = [[[zero] * 4, [zero] * 2] + [[zero] * 4] * 6,  # ragged: one series is short
           np.zeros((7, 3, 2, 2)), np.zeros((8, 3, 3, 3)), np.zeros((8, 3, 2, 3)),
           np.zeros((8, 0, 2, 2)), np.zeros((8, 2, 2)), np.zeros((1, 8, 3, 2, 2)), 0.0]
    for series in bad:
        with pytest.raises(ValueError):
            JetRepresentation(rep, series)
    series = np.ones((8, 3, 2, 2))
    jrep = JetRepresentation(rep, series)
    series[0, 0] = 5.0
    assert jrep.order == 3 and jrep.series.dtype == complex and (jrep.series == 1).all()
    with pytest.raises(ValueError):
        jrep.series[0, 0, 0, 0] = 2.0
    report = lift(sphere4_cc, h1_basis(sphere4_cc).vectors[0], 4)
    assert not report.corrections.series.flags.writeable
    with pytest.raises(ValueError):
        report.corrections.series[0, 0] = zero


@pytest.mark.parametrize("point, order", [("sphere4_cc", 30), ("genus2_irr_cc", 12)],
                         ids=["sphere4", "genus2_irr"])
def test_lift_order30_profile_matches_oracle_ring(point, order, request):
    # one full-order evaluation in the naive ring reproduces every per-order
    # defect of the truncated evaluations behind jet_residual_profile; the
    # genus-2 point has no peripherals, so the stack of conjugators is empty
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    u = random_cocycle(cc, basis, np.random.default_rng(76))
    report = lift(cc, u, order)
    assert report.achieved_order == order
    jrep = report.corrections
    profile = jet_residual_profile(cc, jrep)
    oracle = oracle_defect_profile(cc, jrep.series[:cc.n_gen], jrep.series[cc.n_gen:], order)
    assert max(oracle) <= 1e-11
    assert np.allclose(profile, oracle, rtol=0, atol=1e-12)
    # off the solution every order has a defect of size about 1e-3
    rng = np.random.default_rng(77)
    n = cc.rep.rank
    series = [[x + random_skew(rng, n, 1e-3) for x in jets] for jets in jrep.series]
    moved = jet_residual_profile(cc, JetRepresentation(jrep.base, series))
    oracle = oracle_defect_profile(cc, series[:cc.n_gen], series[cc.n_gen:], order)
    assert min(oracle) >= 1e-5
    assert np.allclose(moved, oracle, rtol=1e-10, atol=0)


@pytest.mark.parametrize("point", ["sphere4_cc", "genus2_irr_cc"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(2, 6),
       scale=st.sampled_from([0.05, 0.3, 1.0]))
def test_shared_defect_state_follows_edited_jets(point, seed, order, scale, request):
    # one state driven through orders 1..k while a random degree at or below
    # the last order is edited between calls, as the cone-kernel rescue and
    # the appended corrections do: every defect matches a fresh evaluation
    # and the naive-ring oracle
    cc = request.getfixturevalue(point)
    rng = np.random.default_rng(seed)
    n = cc.rep.rank
    gen = [[random_skew(rng, n, scale) for _ in range(order)] for _ in range(cc.n_gen)]
    conj = [[random_skew(rng, n, scale) for _ in range(order)] for _ in cc.groups]
    state = DefectState(cc, 1, order)
    for m in range(1, order + 1):
        stack = np.array(gen + conj, dtype=complex)[None]  # a one-sample stack
        shared = order_defect(cc, state, stack, m)
        fresh = order_defect(cc, DefectState(cc, 1, m), stack, m)
        size = float(np.linalg.norm(fresh))
        assert np.linalg.norm(shared - fresh) <= 1e-13 * size
        oracle = oracle_defect_profile(cc, gen, conj, m)[m - 1]
        assert abs(float(np.linalg.norm(shared)) - oracle) <= 1e-13 * oracle
        d = int(rng.integers(0, m))
        for series in gen + conj:
            series[d] = series[d] + random_skew(rng, n, scale)


EDGE_WORDS = """group edge_words
rank 2
generators a b c
relator a b a' b'
relator c
relator a a'
peripheral P = a b' : 1/5, -1/5
"""


@pytest.fixture(scope="module")
def edge_words_cc():
    # a relator with inverse letters, a one-letter relator, an empty one
    # (a a' reduces away) and a two-letter peripheral with an inverse letter
    rep = find_representation(parse_presentation(EDGE_WORDS), seed=0, target_tolerance=1e-11)
    return cohomology.assemble_complex(rep)


@pytest.mark.parametrize("point", ["torus_cc", "edge_words_cc"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(2, 6),
       scale=st.sampled_from([0.05, 0.3, 1.0]))
def test_defect_state_on_edge_words(point, seed, order, scale, request):
    # the state shared across orders, with a degree at or below the last
    # order edited between calls, against a fresh state and the naive-ring
    # oracle, on the words test_shared_defect_state_follows_edited_jets does
    # not meet: a U(1) point with no relator and a four-letter peripheral of
    # inverse letters, and the edge words above.  At U(1) numpy forms the
    # products by gemv or a dot product, so fresh and shared states agree to
    # rounding, not bitwise; and its jets commute, so every defect there is
    # rounding of zero, on the unit scale of the base matrices
    cc = request.getfixturevalue(point)
    rng = np.random.default_rng(seed)
    n = cc.rep.rank
    floor = 1.0 if n == 1 else 0.0
    gen = [[random_skew(rng, n, scale) for _ in range(order)] for _ in range(cc.n_gen)]
    conj = [[random_skew(rng, n, scale) for _ in range(order)] for _ in cc.groups]
    state = DefectState(cc, 1, order)
    for m in range(1, order + 1):
        stack = np.array(gen + conj, dtype=complex)[None]
        shared = order_defect(cc, state, stack, m)
        fresh = order_defect(cc, DefectState(cc, 1, m), stack, m)
        size = float(np.linalg.norm(fresh))
        assert np.linalg.norm(shared - fresh) <= 1e-13 * max(size, floor)
        oracle = oracle_defect_profile(cc, gen, conj, m)[m - 1]
        assert abs(float(np.linalg.norm(shared)) - oracle) <= 1e-13 * max(oracle, floor)
        d = int(rng.integers(0, m))
        for series in gen + conj:
            series[d] = series[d] + random_skew(rng, n, scale)


@pytest.mark.parametrize("point", ["sphere4_cc", "genus2_irr_cc", "torus_cc", "edge_words_cc"])
@pytest.mark.parametrize("order", [1, 2, 6, 30])
def test_defect_state_size_is_its_allocation(point, order, request):
    # the memory rule that chunks a stacked lift counts every array a
    # state holds, before and after samples leave it; the exponential's
    # bases are the complex's own, shared by every sample
    cc = request.getfixturevalue(point)
    state = DefectState(cc, 3, order)
    for mask in (None, np.array([True, False, True])):
        if mask is not None:
            state.keep(mask)
        exp = state.exp
        assert exp.bases is cc.jet_bases
        held = exp.powers.size + exp.coeffs.size + state.buffer.size
        assert DefectState.size(cc, order) * len(state.buffer) == held


@pytest.mark.parametrize("point, order, rescued", [("degenerate_u3_cc", 5, False),
                                                   ("genus2_red_cc", 6, True)])
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_lift_defect_state_matches_fresh_and_oracle(point, order, rescued, seed,
                                                            request):
    # every defect a stacked lift reads off its shared state, after failed
    # samples left the stack (DefectState.keep) and, at the reducible point,
    # after a rescue moved a lower degree of the samples that stay, matches
    # a fresh state and, per sample, the naive-ring oracle.  The degenerate
    # point's conjugator parts reach 1e5, so its defects (up to 1e9) cancel
    # products of up to (1 + sum_d |X_d|)^m, about 1e15: the oracle, which
    # sums in another order, agrees on that scale
    cc = request.getfixturevalue(point)
    stack = _stack_directions(point, cc, h1_basis(cc), np.random.default_rng(seed))
    seen = []

    def checked(cc, state, stacked, m):
        shared = order_defect(cc, state, stacked, m)
        seen.append((m, len(stacked), state.exp.low))
        fresh = order_defect(cc, DefectState(cc, len(stacked), m), stacked, m)
        assert np.linalg.norm(shared - fresh) <= 1e-13 * np.linalg.norm(fresh)
        gen_jets, conj_jets = stacked[:, :cc.n_gen], stacked[:, cc.n_gen:]
        series = stacked[:, :, :m]
        units = (1.0 + np.abs(series).max(axis=(1, 3, 4)).sum(axis=1)) ** m
        for defect, g, c, unit in zip(shared, gen_jets, conj_jets, units):
            oracle = oracle_defect_profile(cc, g, c, m)[m - 1]
            assert abs(float(np.linalg.norm(defect)) - oracle) <= 1e-13 * max(oracle, unit)
        return shared

    with mock.patch.object(jets, "order_defect", checked):
        jets._lift_stack(cc, np.array(stack), order, 1e-7)
    assert any(rows < len(stack) for _, rows, _ in seen)
    assert any(low < m - 1 for m, _, low in seen[1:]) == rescued


def test_lift_makes_one_defect_call_per_order_and_no_full_exponential(sphere4_cc, monkeypatch):
    orders = []

    def counting(cc, state, stack, m):
        orders.append(m)
        return order_defect(cc, state, stack, m)

    def forbidden(*args, **kwargs):
        raise AssertionError("lift re-exponentiated a whole series")

    monkeypatch.setattr(jets, "order_defect", counting)
    for module in (truncring, cohomology, jets):
        monkeypatch.setattr(module, "unitary_generator_jet", forbidden)
    for module in (truncring, cohomology):  # jets binds no exp_series
        monkeypatch.setattr(module, "exp_series", forbidden)
    report = lift(sphere4_cc, h1_basis(sphere4_cc).vectors[0], 12)
    assert report.succeeded
    assert orders == list(range(2, 13))


def test_benchmark_tracer_covers_lift_and_probe(sphere4_cc, monkeypatch):
    # perfbench's tracer rebinds the layer functions by name in every repvar
    # module and checks that a successful lift makes exactly k - 1
    # order_defect calls; a probe makes one call per order for all samples
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    basis = h1_basis(sphere4_cc)
    tracer = Tracer()
    tracer.install()  # raises CoverageError on a binding it cannot wrap
    try:
        tracer.start_op("lift")
        assert jets.lift(sphere4_cc, basis.vectors[0], 5).succeeded
        tracer.start_op("probe")
        probe = jets.probe_cone(sphere4_cc, basis, samples=8, order=4, seed=1)
    finally:
        tracer.restore()
    assert probe.cone_success == 8
    totals, problems = tracer.layer_totals()
    assert problems == []
    assert totals["jets.lift.calls"] == 1
    assert totals["jets.lift.exact_count_lifts"] == 1
    assert totals["jets.lift.order_defect_per_order"] == 1.0
    assert totals["cohomology.order_defect.calls"] == 4 + 3


def test_removed_keywords_raise_type_error(sphere4_rep, sphere4_cc):
    # the rank threshold is set once, where the complex is assembled, and the
    # cocycle precondition is the constant cohomology.COCYCLE_TOL; keywords
    # that no caller set are constants: find's iteration count is refine's
    # default, and the branch-cut margin, the unitarity bound, the diagonal
    # representations' tolerance, a presentation's starting warnings and the
    # punctured torus's angles are fixed; a jet representation is one series
    # array, its order read off the array's shape
    from repvar import corpus
    from repvar.presentation import Presentation
    from repvar.repspace import refine
    from repvar.unitary import is_unitary, principal_log
    basis = h1_basis(sphere4_cc)
    u = basis.vectors[0]
    jrep = lift(sphere4_cc, u, 2).corrections
    calls = [lambda: lift(sphere4_cc, u, 4, rank_rtol=1e-8),
             lambda: probe_cone(sphere4_cc, basis, samples=2, rank_rtol=1e-8),
             lambda: cohomology.pairing_tensor(sphere4_cc, basis, rank_rtol=1e-8),
             lambda: refine(sphere4_rep, rank_rtol=1e-8),
             lambda: jet_residual_profile(sphere4_cc, jrep, rank_rtol=1e-8),
             lambda: h1_basis(sphere4_cc, 1e-8),
             lambda: cohomology.h_dims(sphere4_cc, 1e-8),
             lambda: obstruction(sphere4_cc, u, pre_tolerance=1e-6),
             lambda: cohomology.common_obstruction(sphere4_cc, [u], pre_tolerance=1e-6),
             lambda: LiftOptions(pre_tolerance=1e-6),
             lambda: find_representation(sphere4_rep.presentation, max_iterations=80),
             lambda: principal_log(sphere4_rep.matrices[0], angle_tol=1e-8),
             lambda: corpus.diagonal_representation(sphere4_rep.presentation, [[0.1, 0.2]] * 4,
                                                    tolerance=1e-12),
             lambda: is_unitary(sphere4_rep.matrices[0], tol=1e-10),
             lambda: Presentation("g", 1, ["a"], warnings=()),
             lambda: corpus.torus_puncture_representation(alpha=0.3),
             lambda: JetRepresentation(base=sphere4_rep, order=2, generator_jets=(),
                                       conjugator_jets=()),
             lambda: JetRepresentation(sphere4_rep, np.zeros((8, 2, 2, 2)), order=2),
             lambda: JetRepresentation(sphere4_rep, generator_jets=(), conjugator_jets=())]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert not hasattr(cohomology, "as_cone")


def test_lift_shares_one_factorization(genus2_irr_cc, monkeypatch):
    # the order-m systems share the order-zero matrix: lifting must reuse the
    # factorization built at assembly and never build another
    calls = []
    original = cohomology._LstsqSolver.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cohomology._LstsqSolver, "__init__", counting)
    basis = h1_basis(genus2_irr_cc)
    solver_before = genus2_irr_cc.cone_solver
    report = lift(genus2_irr_cc, basis.vectors[1], 6)
    assert report.succeeded
    assert genus2_irr_cc.cone_solver is solver_before
    assert not calls


def test_lift_budget_exceeded_reported(sphere4_cc, monkeypatch):
    # force an unsolvable order-3 system: the cone-kernel rescue must fail
    # too and the failure must be flagged, never silent
    basis = h1_basis(sphere4_cc)
    solver = sphere4_cc.cone_solver
    original = solver.solve
    calls = {"n": 0}

    def failing(b):
        calls["n"] += 1
        x, resid = original(b)
        return (x, resid) if calls["n"] == 1 else (x, resid + 1.0)

    monkeypatch.setattr(solver, "solve", failing)
    report = lift(sphere4_cc, basis.vectors[0], 4, LiftOptions(budget=2))
    assert not report.succeeded
    assert report.budget_exceeded
    assert report.achieved_order == 2
    assert report.obstruction is not None
    assert calls["n"] == 3  # order 2, order 3, and the rescue's solve


@pytest.mark.parametrize("blocks", [((2, 1), (1, 2)), ((2, 1), (2, 2))], ids=["u2+u1", "u2+u2"])
def test_cone_directions_lift_at_direct_sums(blocks):
    # directions with Q = 0 at a reducible point are tangents of curves, so
    # they lift; a rescue fit at numpy's default cut inverts rounding here
    # and stops them at order 2 or 3.  A direction off the cone stops at
    # order 1
    cc = cohomology.assemble_complex(genus2_direct_sum(blocks))
    basis = h1_basis(cc)
    pairing = cohomology.pairing_tensor(cc, basis)
    rng = np.random.default_rng(0)
    for _ in range(4):
        c, q = cone_direction(pairing, rng)
        assert q <= 1e-15
        report = lift(cc, cc.unstack_gen(basis.matrix @ c), 8)
        assert report.achieved_order == 8, report.residuals
    c = rng.standard_normal(len(basis))
    assert lift(cc, cc.unstack_gen(basis.matrix @ c / np.linalg.norm(c)), 8).achieved_order == 1


def test_probe_takes_no_budget(genus2_red_cc):
    # budget changed no lift: it is no option of probe_cone or field of its report
    with pytest.raises(TypeError):
        probe_cone(genus2_red_cc, h1_basis(genus2_red_cc), samples=2, budget=3)
    report = jets.ConeProbeReport(samples=0, order=4, tolerance=1e-7, seed=0, rigid=True)
    assert "budget" not in report.to_json()


def test_gauge_action_preserves_profile(sphere4_cc, sphere4_rep):
    basis = h1_basis(sphere4_cc)
    rng = np.random.default_rng(74)
    for order, scale in ((5, 0.4), (30, 0.1)):
        report = lift(sphere4_cc, basis.vectors[0], order)
        assert report.succeeded
        before = jet_residual_profile(sphere4_cc, report.corrections)
        gauge = [random_skew(rng, 2, scale) for _ in range(order)]
        moved = gauge_transform(report.corrections, gauge)
        after = jet_residual_profile(sphere4_cc, moved)
        assert max(abs(a - b) for a, b in zip(before, after)) <= 1e-10


def _cone_cocycle(cc, basis, seed, scale=1.0):
    """A cocycle on the zero cone of Q, with the |Q| of its unit direction."""
    c, q = cone_direction(cohomology.pairing_tensor(cc, basis), np.random.default_rng(seed))
    return cc.unstack_gen(scale * (basis.matrix @ c)), q


def test_cone_directions_lift_at_singular_point(genus2_red_cc):
    # quadraticity at the singular reducible point: every direction with
    # Q(u) = 0 lifts to all orders once the earlier corrections move inside
    # the cone kernel, and the returned jets close order by order
    basis = h1_basis(genus2_red_cc)
    for seed in range(10):
        u, q = _cone_cocycle(genus2_red_cc, basis, seed)
        assert q <= 1e-14
        report = lift(genus2_red_cc, u, 12)
        assert report.succeeded and report.achieved_order == 12
        assert not report.budget_exceeded
        assert max(report.residuals) <= 1e-12
        assert max(jet_residual_profile(genus2_red_cc, report.corrections)) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.25, 4.0))
def test_cone_directions_lift_property(genus2_red_cc, seed, scale):
    basis = h1_basis(genus2_red_cc)
    u, _ = _cone_cocycle(genus2_red_cc, basis, seed, scale)
    report = lift(genus2_red_cc, u, 8)
    assert report.succeeded
    bound = 1e-12 * max(1.0, scale) ** 8
    assert max(report.residuals) <= bound
    assert max(jet_residual_profile(genus2_red_cc, report.corrections)) <= bound


def _stack_directions(point, cc, basis, rng):
    """A mixed stack of cocycles at one point, in random order: at sphere4
    random directions that lift to the full order; at the reducible genus-2
    point random directions that fail at order 2 and Gauss-Newton cone
    directions that need the cone-kernel rescue; at the degenerate U(3)
    point probe-like random directions."""
    scales = [0.3, 1.0, 2.0]
    if point == "genus2_red_cc":
        pairing = cohomology.pairing_tensor(cc, basis)
        stack = [cone_direction(pairing, rng)[0] * s for s in scales]
        stack += [rng.standard_normal(len(basis)) for _ in range(3)]
    else:
        stack = [rng.standard_normal(len(basis)) for _ in range(6)]
        stack = [c * scales[i % 3] / np.linalg.norm(c) for i, c in enumerate(stack)]
    return [cc.unstack_gen(basis.matrix @ c) for c in rng.permutation(stack)]


@pytest.mark.parametrize("chunk", [None, 1, 3], ids=["whole", "chunk1", "chunk3"])
@pytest.mark.parametrize("point, order", [("sphere4_cc", 6), ("genus2_red_cc", 6),
                                          ("degenerate_u3_cc", 5)])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_lift_matches_single_lifts(point, order, chunk, seed, request):
    # each sample of a stack, lifted whole or in chunks, has the outcome of
    # its own lift: a failed sample leaves the stack, and a rescue moves only
    # the sample it was fitted to
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    stack = _stack_directions(point, cc, basis, np.random.default_rng(seed))
    per_sample = DefectState.size(cc, order)
    limit = jets._STACK_CACHE_LIMIT if chunk is None else chunk * per_sample
    assert chunk is not None or limit >= len(stack) * per_sample
    with mock.patch.object(jets, "_STACK_CACHE_LIMIT", limit):
        lifts = jets._lift_stack(cc, np.array(stack), order, 1e-7)
    for i, u in enumerate(stack):
        single = lift(cc, u, order)
        got = int(lifts.achieved[i])
        assert got == single.achieved_order
        assert (1 < got < order) == single.budget_exceeded
        # past the order a sample failed at, nothing more is recorded for it
        residuals = np.zeros(order)
        residuals[:len(single.residuals)] = single.residuals
        assert np.max(np.abs(lifts.residuals[i] - residuals)) <= 1e-14
        want = single.corrections.series
        assert np.max(np.abs(lifts.jets[i, :, :got] - want)) <= 1e-12 * np.max(np.abs(want))
        assert not lifts.jets[i, :, got:].any()


def test_u1_stacked_lift_is_bitwise_its_single_lifts(torus_cc):
    # at U(1) numpy forms the products by gemv, whose rounding depends on the
    # memory layout of the operands: a stacked sample must still get the
    # bits of its own lift
    basis = h1_basis(torus_cc)
    rng = np.random.default_rng(12)
    stack = np.array([torus_cc.unstack_gen(basis.matrix @ rng.standard_normal(len(basis)))
                      for _ in range(5)])
    lifts = jets._lift_stack(torus_cc, stack, 6, 1e-7)
    for i, u in enumerate(stack):
        single = jets._lift_stack(torus_cc, u[None], 6, 1e-7)
        assert np.array_equal(single.jets[0], lifts.jets[i])
        assert np.array_equal(single.residuals[0], lifts.residuals[i])


def test_probe_abelian_all_cone_success(torus_cc):
    basis = h1_basis(torus_cc)
    report = probe_cone(torus_cc, basis, samples=50, order=6, seed=3)
    assert report.cone_success == 50
    assert report.prediction_holds
    assert report.budget_exceeded == 0


def test_probe_smooth_point_with_peripherals(sphere4_cc):
    # every direction at the smooth sphere4 point is a cone direction and
    # lifts to the full order, none failing past order 2
    basis = h1_basis(sphere4_cc)
    report = probe_cone(sphere4_cc, basis, samples=40, order=6, seed=11)
    assert report.cone_success == 40
    assert report.budget_exceeded == 0
    assert report.prediction_holds


@pytest.mark.parametrize("point", ["sphere4_cc", "genus2_irr_cc", "genus2_red_cc"])
def test_probe_q_matches_obstruction(point, request):
    # probe_cone reads |Q| of every direction, failing ones included, off one
    # stacked norms read of the cup form over the basis; it must agree with
    # obstruction()
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    form = cocycle_form(cc, [list(v) for v in basis.vectors])
    rng = np.random.default_rng(78)
    rows = rng.standard_normal((50, len(basis)))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    for coeffs, qnorm in zip(rows, q_norms(cc, form, rows).tolist()):
        want = obstruction(cc, cc.unstack_gen(basis.matrix @ coeffs)).norm
        assert abs(qnorm - want) <= 1e-12 * max(1.0, want)


def test_probe_rigid_flagged(sphere3_cc):
    basis = h1_basis(sphere3_cc)
    report = probe_cone(sphere3_cc, basis, samples=10, order=4, seed=3)
    assert report.rigid
    assert report.samples == 0


def test_probe_reducible_contingency(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    report = probe_cone(genus2_red_cc, basis, samples=30, order=4, seed=5)
    assert report.prediction_holds
    assert report.noncone_fail_order2 == 30
    assert report.budget_exceeded == 0


def test_probe_deterministic(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    a = probe_cone(genus2_red_cc, basis, samples=10, order=3, seed=9)
    b = probe_cone(genus2_red_cc, basis, samples=10, order=3, seed=9)
    assert a == b


def _row_probe(cc, basis, rows, order, seed, tolerance=1e-7):
    """The probe report of the directions rows (samples, h), one at a time:
    each row normalized, lifted alone by lift() and classed by the norm of
    its Q over the basis against tolerance * |u|^2."""
    counts = dict(cone_success=0, cone_fail_order2=0, cone_fail_later=0,
                  noncone_fail_order2=0, noncone_past_order2=0, budget_exceeded=0)
    form = cc.basis_form(basis)
    for row in rows:
        coeffs = row / np.linalg.norm(row)
        uvec = coeffs @ basis.matrix.T
        got = lift(cc, cc.unstack_gen(uvec), order).achieved_order
        counts["budget_exceeded"] += 1 < got < order
        if q_norms(cc, form, coeffs[None])[0] <= tolerance * np.linalg.norm(uvec) ** 2:
            counts["cone_success" if got == order else
                   "cone_fail_order2" if got == 1 else "cone_fail_later"] += 1
        else:
            counts["noncone_past_order2" if got >= 2 else "noncone_fail_order2"] += 1
    return jets.ConeProbeReport(samples=len(rows), order=order, tolerance=tolerance,
                                seed=seed, rigid=False, **counts)


def test_probe_draws_row_i_of_one_generator_as_sample_i(degenerate_u3_cc):
    # a probe at seed s samples the rows of default_rng(s).standard_normal
    # ((samples, h)) in order, so a smaller probe samples a prefix of a
    # larger one's directions.  At the degenerate U(3) point outcomes depend
    # on the direction, so the seeds' reports differ and tell draws apart
    cc = degenerate_u3_cc
    basis = h1_basis(cc)
    wants = []
    for seed in (1, 2, 3):
        rows = np.random.default_rng(seed).standard_normal((12, len(basis)))
        wants.append(_row_probe(cc, basis, rows, 5, seed))
        assert probe_cone(cc, basis, samples=12, order=5, seed=seed) == wants[-1]
        assert probe_cone(cc, basis, samples=5, order=5, seed=seed) == \
            _row_probe(cc, basis, rows[:5], 5, seed)
    assert len({want._replace(seed=0) for want in wants}) > 1


def _reordered(basis, order):
    return cohomology.CohomologyBasis(vectors=tuple(basis.vectors[i] for i in order),
                                      matrix=basis.matrix[:, order], dims=basis.dims)


def test_probe_reads_the_kept_form_per_basis(genus2_red, monkeypatch):
    # the complex keeps the form of a basis under its content: a pairing and
    # two probes walk the words once, a copy of equal content not again, a
    # reordered or changed basis once more, and what the reordered basis
    # reads is what a fresh complex computes for it
    cc = cohomology.assemble_complex(genus2_red)
    cc.kernel_cup  # the rescue's own cup forms, formed once per complex
    calls = []
    real = cohomology.cup_form
    monkeypatch.setattr(cohomology, "cup_form",
                        lambda *args: calls.append(1) or real(*args))
    basis = h1_basis(cc)
    cohomology.pairing_tensor(cc, basis)
    first = probe_cone(cc, basis, samples=12, order=4, seed=1)
    probe_cone(cc, basis, samples=12, order=4, seed=2)
    assert len(calls) == 1
    copy = cohomology.CohomologyBasis(
        vectors=tuple(tuple(m.copy() for m in v) for v in basis.vectors),
        matrix=basis.matrix.copy(), dims=basis.dims)
    assert probe_cone(cc, copy, samples=12, order=4, seed=1) == first
    assert len(calls) == 1

    moved = _reordered(basis, np.roll(np.arange(len(basis)), 1))
    got = probe_cone(cc, moved, samples=12, order=4, seed=1)
    assert len(calls) == 2
    fresh = cohomology.assemble_complex(genus2_red)
    assert got == probe_cone(fresh, moved, samples=12, order=4, seed=1)
    rows = np.random.default_rng(83).standard_normal((20, len(basis)))
    assert (q_norms(cc, cc.basis_form(moved), rows).tobytes()
            == q_norms(fresh, fresh.basis_form(moved), rows).tobytes())
    a, b = (cohomology.pairing_tensor(c, moved).entries for c in (cc, fresh))
    assert np.array(a.norms).tobytes() == np.array(b.norms).tobytes()
    assert all(a[k].coordinates.tobytes() == b[k].coordinates.tobytes() for k in a)
    assert len(calls) == 3  # the fresh complex's one walk

    copy.vectors[0][0][0, 1] *= 2.0  # a basis changed in place is another basis
    cc.basis_form(copy)
    assert len(calls) == 4


@pytest.mark.parametrize("point", ["sphere4_cc", "genus2_red_cc"])
def test_warm_complex_is_bitwise_a_fresh_one(point, request):
    warm = request.getfixturevalue(point)
    basis = h1_basis(warm)
    cohomology.pairing_tensor(warm, basis)
    probe_cone(warm, basis, samples=5, order=3, seed=30)
    fresh = cohomology.assemble_complex(warm.rep)
    fresh_basis = h1_basis(fresh)
    for seed in (31, 32):
        assert (repr(probe_cone(warm, basis, samples=25, order=4, seed=seed))
                == repr(probe_cone(fresh, fresh_basis, samples=25, order=4, seed=seed)))
    a, b = (cohomology.pairing_tensor(c, bs).entries
            for c, bs in ((warm, basis), (fresh, fresh_basis)))
    assert np.array(a.norms).tobytes() == np.array(b.norms).tobytes()
    assert all(a[k].coordinates.tobytes() == b[k].coordinates.tobytes() for k in a)


def test_probes_on_one_cold_complex_from_threads(genus2_red):
    # threads on a cold complex may each build a form, and two bases that
    # alternate replace the kept pair again and again; each reader takes a
    # whole (key, form) pair, so every probe returns the serial report and
    # every Q read the norms of its own basis
    serial = cohomology.assemble_complex(genus2_red)
    basis = h1_basis(serial)
    moved = _reordered(basis, np.roll(np.arange(len(basis)), 1))
    rows = np.random.default_rng(84).standard_normal((10, len(basis)))
    seeds = (40, 41, 42, 43)
    want = [probe_cone(serial, basis, samples=15, order=4, seed=s) for s in seeds]
    want_norms = [q_norms(serial, serial.basis_form(b), rows).tobytes() for b in (basis, moved)]
    cc = cohomology.assemble_complex(genus2_red)
    start = threading.Barrier(len(seeds), timeout=60)
    got, norms = {}, {}

    def probe(seed):
        start.wait()
        got[seed] = probe_cone(cc, basis, samples=15, order=4, seed=seed)
        norms[seed] = [q_norms(cc, cc.basis_form(b), rows).tobytes()
                       for _ in range(10) for b in (basis, moved)]

    workers = [threading.Thread(target=probe, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert [got.get(s) for s in seeds] == want
    assert all(norms[s] == want_norms * 10 for s in seeds)


def _lift_bytes(report):
    """A lift report's JSON, its floats in repr, and the bytes of its corrections."""
    return repr(report.to_json()), report.corrections.series.tobytes()


def test_lifts_on_a_warm_complex_are_bitwise_fresh_ones(sphere4_rep, sphere4_cc, genus2_red_cc):
    # lifts at interleaved orders on a warm complex, and a stack that the
    # cone-kernel rescue moves, give the bytes of the same lifts on a fresh
    # complex: nothing a lift leaves behind changes the next one
    u = h1_basis(sphere4_cc).vectors[0]
    warm = [_lift_bytes(lift(sphere4_cc, u, k)) for k in (30, 10, 20, 30)]
    stack = np.array(_stack_directions("genus2_red_cc", genus2_red_cc, h1_basis(genus2_red_cc),
                                       np.random.default_rng(0)))
    moved = []  # m - lo of every order past the first: 2 where a rescue moved degree m - 2

    def recording(cc, state, stacked, m):
        defect = order_defect(cc, state, stacked, m)
        moved.append(m - state.exp.low)
        return defect

    with mock.patch.object(jets, "order_defect", recording):
        warm_stack = jets._lift_stack(genus2_red_cc, stack, 6, 1e-7)
    assert max(moved[1:]) == 2
    for k, want in zip((30, 10, 20, 30), warm):
        fresh = cohomology.assemble_complex(sphere4_rep)
        assert _lift_bytes(lift(fresh, h1_basis(fresh).vectors[0], k)) == want
    fresh_stack = jets._lift_stack(cohomology.assemble_complex(genus2_red_cc.rep), stack, 6, 1e-7)
    for field in ("achieved", "residuals", "defects", "jets"):
        assert getattr(fresh_stack, field).tobytes() == getattr(warm_stack, field).tobytes()


def test_lifts_on_one_cold_complex_from_threads(sphere4_rep):
    # four threads lift at orders 10, 20 and 30 on one cold complex, each in
    # its own order: what the complex builds on first use is built whole
    # before it is shared, so every lift is the serial one
    serial = cohomology.assemble_complex(sphere4_rep)
    u = h1_basis(serial).vectors[0]
    want = {k: _lift_bytes(lift(serial, u, k)) for k in (10, 20, 30)}
    cc = cohomology.assemble_complex(sphere4_rep)
    orders = [(10, 20, 30), (30, 20, 10), (20, 30, 10), (10, 30, 20)]
    start = threading.Barrier(len(orders), timeout=60)
    got = {}

    def lifts(i):
        start.wait()
        got[i] = {k: _lift_bytes(lift(cc, u, k)) for k in orders[i]}

    workers = [threading.Thread(target=lifts, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(got.get(i) == want for i in range(len(orders)))
