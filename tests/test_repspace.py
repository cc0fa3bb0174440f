from fractions import Fraction

import numpy as np
import pytest

from repvar import repspace
from repvar.cohomology import cocycle_transport
from repvar.presentation import ConjugacyClassSpec, Peripheral, Presentation
from repvar.repspace import (
    NoConvergenceError,
    NotFoundError,
    Representation,
    commutant_dimension,
    conjugate,
    constraint_residual,
    evaluate_word,
    find_representation,
    is_valid,
    perturb,
    refine,
    rep_from_json,
    rep_to_json,
)
from repvar.unitary import class_distance, class_of, class_residual, haar_from_rng, random_skew

from oracles import image_algebra_rank, random_word


def infeasible_n1():
    # commutators in U(1) are trivial; the class {1/2} is unreachable
    word = ((0, 1), (1, 1), (0, -1), (1, -1))
    return Presentation(
        "infeasible", 1, ["a", "b"],
        peripherals=[Peripheral("P", word, ConjugacyClassSpec([Fraction(1, 2)]))],
    )


def test_evaluate_word_empty_and_cancelling(genus2_irr):
    n = genus2_irr.rank
    assert np.allclose(evaluate_word(genus2_irr, ()), np.eye(n))
    assert np.allclose(evaluate_word(genus2_irr, ((0, 1), (0, -1))), np.eye(n))


def test_evaluate_word_homomorphism(genus2_irr):
    rng = np.random.default_rng(30)
    for _ in range(50):
        u = random_word(rng, 4, 12)
        v = random_word(rng, 4, 12)
        lhs = evaluate_word(genus2_irr, u + v)
        rhs = evaluate_word(genus2_irr, u) @ evaluate_word(genus2_irr, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_evaluate_word_inversion(genus2_irr):
    from repvar.presentation import invert_word

    rng = np.random.default_rng(37)
    for _ in range(50):
        w = random_word(rng, 4, 12)
        lhs = evaluate_word(genus2_irr, invert_word(w))
        rhs = np.linalg.inv(evaluate_word(genus2_irr, w))
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_constraint_residual_exact(genus2_irr, sphere4_rep):
    assert constraint_residual(genus2_irr).max <= 1e-12
    assert constraint_residual(sphere4_rep).max <= 1e-11


def test_constraint_residual_first_order(sphere4_rep):
    eps = 1e-3
    rng = np.random.default_rng(31)
    pert = perturb(sphere4_rep, rng, eps)
    r = constraint_residual(pert).max
    assert r <= 20 * eps
    assert r > eps / 1000


def test_constraint_residual_is_norm_of_each_gap(corpus_points, sphere4_rep):
    # the shared gap blocks give exactly the direct per-word distances
    pert = perturb(sphere4_rep, np.random.default_rng(33), 1e-3)
    for rep in [*corpus_points.values(), pert]:
        eye = np.eye(rep.rank)
        res = constraint_residual(rep)
        assert res.relator_residuals == tuple(
            float(np.linalg.norm(evaluate_word(rep, r) - eye)) for r in rep.presentation.relators)
        assert res.peripheral_residuals == tuple(class_residual(evaluate_word(rep, p.word), p.klass)
                                                 for p in rep.presentation.peripherals)


def test_trivial_rep_misses_class(sphere3_pres):
    n = sphere3_pres.rank
    triv = Representation(sphere3_pres, [np.eye(n)] * 3)
    res = constraint_residual(triv)
    assert min(res.peripheral_residuals) > 0.1


def test_refine_exact_is_unchanged(genus2_irr):
    out = refine(genus2_irr, 10, 1e-10)
    assert out is genus2_irr


def test_refine_recovers_perturbation(genus2_irr):
    rng = np.random.default_rng(32)
    pert = perturb(genus2_irr, rng, 1e-2)
    trace = []
    out = refine(pert, 8, 1e-12, trace=trace)
    assert constraint_residual(out).max <= 1e-12
    assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(repspace, name)
    monkeypatch.setattr(repspace, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_refine_forms_gaps_once_per_trial(genus2_irr, sphere4_rep, monkeypatch):
    pert = perturb(genus2_irr, np.random.default_rng(32), 1e-2)
    gaps = _count_calls(monkeypatch, "_residual_blocks")
    trials = _count_calls(monkeypatch, "_retract")
    jacobians = _count_calls(monkeypatch, "_residual_jacobian")
    trace = []
    refine(pert, 8, 1e-12, trace=trace)
    # no step rejected: the start and each accepted iterate, one Jacobian per iteration
    assert len(trials) == len(trace) - 1
    assert len(gaps) == len(trace)
    assert len(jacobians) == len(trace) - 1
    # an unreachable target rejects steps: still one gap evaluation per trial point
    for calls in (gaps, trials, jacobians):
        calls.clear()
    with pytest.raises(NoConvergenceError):
        refine(sphere4_rep, 3, 1e-30)
    assert len(trials) > len(jacobians)
    assert len(gaps) == 1 + len(trials)


def test_residual_jacobian_evaluates_each_word_once(corpus_points, monkeypatch):
    calls = _count_calls(monkeypatch, "evaluate_word")
    for rep in corpus_points.values():
        calls.clear()
        repspace._residual_jacobian(rep)
        assert len(calls) == len(rep.presentation.relators) + len(rep.presentation.peripherals)


def test_refine_infeasible_raises():
    pres = infeasible_n1()
    mats = [np.array([[np.exp(0.4j)]]), np.array([[np.exp(1.1j)]])]
    with pytest.raises(NoConvergenceError) as err:
        refine(Representation(pres, mats), 20, 1e-10)
    assert err.value.residuals.max > 1.0
    assert err.value.residuals == constraint_residual(err.value.best)


def test_find_sphere4(sphere4_rep, sphere4_pres):
    assert is_valid(sphere4_rep, 1e-10)
    for p in sphere4_pres.peripherals:
        got = class_of(evaluate_word(sphere4_rep, p.word))
        want = ConjugacyClassSpec(p.klass.as_floats())
        assert class_distance(got, want) <= 1e-9


def test_find_torus_immediate(torus_pres):
    rep = find_representation(torus_pres, seed=9, attempts=1)
    assert constraint_residual(rep).max <= 1e-10


def test_find_infeasible():
    with pytest.raises(NotFoundError):
        find_representation(infeasible_n1(), seed=3, attempts=5)


def test_find_deterministic(sphere4_pres):
    a = find_representation(sphere4_pres, seed=5, attempts=20, target_tolerance=1e-10)
    b = find_representation(sphere4_pres, seed=5, attempts=20, target_tolerance=1e-10)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma, mb)


def test_commutant_dimension_examples(genus2_pres, genus2_irr, genus2_red):
    triv = Representation(genus2_pres, [np.eye(2)] * 4)
    assert commutant_dimension(triv) == 4
    assert commutant_dimension(genus2_irr) == 1
    assert commutant_dimension(genus2_red) == 2


def test_commutant_agrees_with_image_algebra(genus2_irr, genus2_red, sphere4_rep):
    rng = np.random.default_rng(33)
    for rep in (genus2_irr, genus2_red, sphere4_rep):
        n2 = rep.rank ** 2
        full = image_algebra_rank(rep, rng) == n2
        assert full == (commutant_dimension(rep) == 1)


def test_commutant_conjugation_invariant(genus2_red):
    rng = np.random.default_rng(34)
    g = haar_from_rng(rng, 2)
    assert commutant_dimension(conjugate(genus2_red, g)) == commutant_dimension(genus2_red)


def test_conjugate_identity_and_residuals(sphere4_rep):
    same = conjugate(sphere4_rep, np.eye(2))
    for ma, mb in zip(same.matrices, sphere4_rep.matrices):
        assert np.allclose(ma, mb)
    rng = np.random.default_rng(35)
    g = haar_from_rng(rng, 2)
    moved = conjugate(sphere4_rep, g)
    base = constraint_residual(sphere4_rep)
    res = constraint_residual(moved)
    assert abs(res.max - base.max) <= 1e-12
    for p in sphere4_rep.presentation.peripherals:
        a = class_of(evaluate_word(sphere4_rep, p.word))
        b = class_of(evaluate_word(moved, p.word))
        assert class_distance(a, b) <= 1e-9


def test_transport_matches_finite_difference(genus2_irr):
    # cross-check the Fox transport against a left-log finite difference
    from repvar.unitary import principal_log

    rng = np.random.default_rng(36)
    eps = 1e-6
    word = random_word(rng, 4, 8)
    u = [random_skew(rng, 2, 0.5) for _ in range(4)]
    from repvar.unitary import exponential

    mats = [exponential(eps * x) @ m for x, m in zip(u, genus2_irr.matrices)]
    pert = Representation(genus2_irr.presentation, mats)
    w0 = evaluate_word(genus2_irr, word)
    w1 = evaluate_word(pert, word)
    fd = principal_log(w1 @ w0.conj().T) / eps
    an = cocycle_transport(genus2_irr, u, word)
    assert np.linalg.norm(fd - an) <= 1e-5


def test_rep_json_round_trip(sphere4_rep, sphere4_pres):
    data = rep_to_json(sphere4_rep)
    back = rep_from_json(sphere4_pres, data)
    for ma, mb in zip(back.matrices, sphere4_rep.matrices):
        assert np.array_equal(ma, mb)
    assert back.tolerance == sphere4_rep.tolerance


def test_rep_json_name_mismatch(sphere4_rep, torus_pres):
    data = rep_to_json(sphere4_rep)
    with pytest.raises(ValueError):
        rep_from_json(torus_pres, data)
