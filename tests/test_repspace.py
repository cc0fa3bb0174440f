from fractions import Fraction

import numpy as np
import pytest

from repvar import repspace
from repvar.cohomology import cocycle_transport
from repvar.presentation import (ConjugacyClassSpec, Peripheral, Presentation, normalize_word,
                                 parse_presentation)
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
    word_transport_terms,
)
from repvar.unitary import (
    class_distance,
    class_of,
    class_residual,
    exponential,
    haar_from_rng,
    random_skew,
    skew_basis,
)

from oracles import image_algebra_rank, random_word, word_directions_per_term


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


def test_refine_forms_gaps_once_per_trial(genus2_irr, monkeypatch):
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
    # an unreachable target rejects steps: still one gap evaluation per trial point.
    # In U(1) the commutator is constant: the Jacobian vanishes, the step is
    # zero and every halving is rejected, whatever the rounding.
    for calls in (gaps, trials, jacobians):
        calls.clear()
    mats = [np.array([[np.exp(0.4j)]]), np.array([[np.exp(1.1j)]])]
    with pytest.raises(NoConvergenceError):
        refine(Representation(infeasible_n1(), mats), 3, 1e-30)
    assert len(trials) > len(jacobians)
    assert len(gaps) == 1 + len(trials)


def test_refine_builds_its_layout_and_class_targets_once(corpus_points, monkeypatch):
    # one refine call builds one chain layout (its start's chain) and looks
    # its class targets up once, whatever its number of trial points; every
    # trial chain shares the start's index arrays, and the counts above
    # hold: one gap evaluation and one chain per trial point and at the
    # start, one Jacobian per iteration
    chains, layouts = [], []
    word_chain = repspace._word_chain

    def counted_chain(*args):
        layouts.append(len(args) == 1 or args[1] is None)
        chains.append(word_chain(*args))
        return chains[-1]

    monkeypatch.setattr(repspace, "_word_chain", counted_chain)
    targets = _count_calls(monkeypatch, "class_coefficients")
    gaps = _count_calls(monkeypatch, "_residual_blocks")
    trials = _count_calls(monkeypatch, "_retract")
    jacobians = _count_calls(monkeypatch, "_residual_jacobian")
    rng = np.random.default_rng(44)
    starts = [(perturb(rep, rng, 1e-2), 8, 1e-12) for rep in corpus_points.values()]
    # every step rejected: about 40 trial points in one iteration
    mats = [np.array([[np.exp(0.4j)]]), np.array([[np.exp(1.1j)]])]
    starts.append((Representation(infeasible_n1(), mats), 3, 1e-30))
    for start, iterations, target in starts:
        for calls in (chains, layouts, targets, gaps, trials, jacobians):
            calls.clear()
        trace = []
        try:
            refine(start, iterations, target, trace=trace)
        except NoConvergenceError:
            assert len(jacobians) == 1 and len(trials) > 30
        else:
            assert len(jacobians) == len(trials) == len(trace) - 1
        assert layouts[0] and sum(layouts) == 1
        assert len(targets) == 1
        assert len(chains) == len(gaps) == 1 + len(trials)
        for chain in chains:
            assert all(a is b for a, b in zip(chain[1:4], chains[0][1:4]))  # word, gen, sign
            assert chain.rounds is chains[0].rounds


def test_refine_evaluates_each_word_once_per_trial(corpus_points, monkeypatch):
    # one word chain per trial point and one at the start; the Jacobian
    # reads the chain of the accepted trial point and forms no word product
    chains = _count_calls(monkeypatch, "_word_chain")
    walks = [_count_calls(monkeypatch, name) for name in ("evaluate_word", "word_transport_terms")]
    trials = _count_calls(monkeypatch, "_retract")
    jacobian = repspace._residual_jacobian

    def no_words(*args):
        before = [len(chains)] + [len(w) for w in walks]
        out = jacobian(*args)
        assert [len(chains)] + [len(w) for w in walks] == before
        return out

    monkeypatch.setattr(repspace, "_residual_jacobian", no_words)
    steps = {}
    for i, (name, rep) in enumerate(corpus_points.items()):
        pert = perturb(rep, np.random.default_rng(40 + i), 1e-3)
        chains.clear()
        trials.clear()
        refine(pert, 8, 1e-12)
        assert len(chains) == 1 + len(trials)
        steps[name] = len(trials)
    assert steps["genus2_irr"] > 0 and steps["sphere4"] > 0


def test_residual_jacobian_matches_central_differences(genus2_irr, sphere4_rep):
    lines = ["group sphere4_u3", "rank 3", "generators x0 x1 x2 x3", "relator x0 x1 x2 x3"]
    lines += [f"peripheral Px{i} = x{i} : 1/{q}, 2/{q}, -3/{q}"
              for i, q in enumerate((7, 11, 13, 17))]
    u3 = parse_presentation("\n".join(lines) + "\n")
    eps = 1e-5
    for rep in (genus2_irr, sphere4_rep, find_representation(u3, seed=1, target_tolerance=1e-11)):
        n = rep.rank
        basis = skew_basis(n)
        jac = repspace._residual_jacobian(rep, repspace._word_chain(rep))
        for col in range(jac.shape[1]):
            i, a = divmod(col, n * n)
            ends = []
            for t in (eps, -eps):
                mats = list(rep.matrices)
                mats[i] = exponential(t * basis[a]) @ mats[i]
                ends.append(repspace._residual_vector(
                    repspace._residual_blocks(Representation(rep.presentation, mats))))
            fd = (ends[0] - ends[1]) / (2 * eps)
            assert np.linalg.norm(fd - jac[:, col]) <= 1e-6 * np.linalg.norm(jac[:, col])


def test_word_directions_match_per_term_oracle():
    # all words of a presentation in one batched form, relators then
    # peripheral words, bitwise the per-term einsums word by word; the
    # chain's word values are bitwise evaluate_word's
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        words = [(), ((1, -1),), ((0, 1), (0, 1), (2, -1), (0, -1), (2, -1))]
        words += [random_word(rng, 3, 12) for _ in range(10)]
        klass = ConjugacyClassSpec([Fraction(0)] * n)
        peripherals = [Peripheral(f"P{i}", w, klass)
                       for i, w in enumerate(words[1::2]) if normalize_word(w)]
        pres = Presentation("free3", n, ["a", "b", "c"], relators=words[::2],
                            peripherals=peripherals)
        rep = Representation(pres, [haar_from_rng(rng, n) for _ in range(3)])
        chain = repspace._word_chain(rep)
        got = repspace._word_directions(rep, chain)
        all_words = list(pres.relators) + [p.word for p in pres.peripherals]
        assert len(got) == len(chain.values) == len(all_words)
        for word, w_val, dirs in zip(all_words, chain.values, got):
            assert w_val.tobytes() == evaluate_word(rep, word).tobytes()
            assert np.array_equal(dirs, word_directions_per_term(rep, word, w_val))


def test_word_chain_on_a_shared_layout_is_bitwise_the_per_word_walks(corpus_points):
    # a chain on another point's layout, as refine's trial points are, holds
    # bitwise the word values of evaluate_word and the prefixes, generators
    # and signs of one word_transport_terms walk per word: the corpus
    # (inverse letters at genus2, a multi-letter peripheral at
    # torus_puncture), an empty relator, and a presentation with no
    # generators; the shared index arrays are read-only, and round r holds
    # the r-th term of every (word, generator) block, so one add per round
    # adds each block's terms in term order
    rng = np.random.default_rng(45)
    free = Presentation("free2", 2, ["a", "b"], relators=[(), ((0, 1), (1, -1), (0, 1))],
                        peripherals=[Peripheral("P", ((1, -1), (0, -1)),
                                                ConjugacyClassSpec([Fraction(1, 3)] * 2))])
    none = Presentation("none", 2, [], relators=[()])
    reps = [*corpus_points.values(), Representation(free, [haar_from_rng(rng, 2) for _ in "ab"])]
    for rep in reps + [Representation(none, [])]:
        layout = repspace._word_chain(perturb(rep, rng, 0.1) if rep.matrices else rep)
        chain = repspace._word_chain(rep, layout)
        pres, n = rep.presentation, rep.rank
        words = [*pres.relators, *(p.word for p in pres.peripherals)]
        walks = [word_transport_terms(rep.matrices, word, n)[1] for word in words]
        terms = [(w, gen, float(sign), prefix) for w, (word, walk) in enumerate(zip(words, walks))
                 for (gen, sign), prefix in zip(word, walk)]
        values = [evaluate_word(rep, word) for word in words]
        assert chain.values.tobytes() == np.array(values, dtype=complex).tobytes()
        assert chain.prefixes.tobytes() == np.array([t[3] for t in terms], dtype=complex).tobytes()
        for index, k, dtype in ((chain.word, 0, np.intp), (chain.gen, 1, np.intp),
                                (chain.sign, 2, float)):
            assert index.tobytes() == np.array([t[k] for t in terms], dtype=dtype).tobytes()
            assert index.dtype == dtype and not index.flags.writeable
        assert all(a is b for a, b in zip(chain[1:4], layout[1:4]))  # word, gen, sign
        assert chain.rounds is layout.rounds
        assert len(chain.values) == len(words) and len(chain.prefixes) == len(terms)
        block_terms = {}
        for t, (w, gen, *_) in enumerate(terms):
            block_terms.setdefault((w, gen), []).append(t)
        rounds = [[ts[r] for ts in block_terms.values() if r < len(ts)]
                  for r in range(max(map(len, block_terms.values()), default=0))]
        assert [sorted(r.tolist()) for r in chain.rounds] == [sorted(r) for r in rounds]
        assert all(r.dtype == np.intp and not r.flags.writeable for r in chain.rounds)


def test_retract_holds_its_exponential_stack_read_only(corpus_points):
    # a trial point holds the rows of the batched exponential's product as
    # they are, read-only: bitwise what the checked, copying constructor
    # gives, with the same presentation and tolerance
    rng = np.random.default_rng(46)
    for rep in corpus_points.values():
        n, n_gen = rep.rank, len(rep.matrices)
        step = 1e-2 * rng.standard_normal(n_gen * n * n)
        trial = repspace._retract(rep, step)
        x = [exponential(sum(c * b for c, b in zip(s, skew_basis(n))))
             for s in step.reshape(n_gen, n * n)]
        want = Representation(rep.presentation, trial.matrices, rep.tolerance)
        assert trial.presentation is rep.presentation and trial.tolerance == rep.tolerance
        assert len(trial.matrices) == n_gen
        for got, copy, ex, m in zip(trial.matrices, want.matrices, x, rep.matrices):
            assert got.tobytes() == copy.tobytes() and got.shape == (n, n)
            assert got.dtype == complex and not got.flags.writeable
            assert np.allclose(got, ex @ m, atol=1e-14)
            with pytest.raises(ValueError):
                got[0, 0] = 0.0


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
