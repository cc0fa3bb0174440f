import json
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repvar import cli, cohomology, corpus
from repvar.cohomology import (
    IllConditionedError,
    NotACocycleError,
    ObstructionClass,
    QuadraticMap,
    _LstsqSolver,
    _rank_cut,
    assemble_complex,
    coboundary,
    cocycle_transport,
    common_obstruction,
    cup_form,
    h1_basis,
    h_dims,
    obstruction,
    obstruction_classes,
    pairing_tensor,
)
from repvar.jets import lift
from repvar.presentation import parse_presentation
from repvar.repspace import (Representation, commutant_dimension, evaluate_word,
                             find_representation, rep_to_json)
from repvar.unitary import (exponential, matrix_to_json, principal_log, random_skew, unvec_skew,
                            vec_skew)

from conftest import random_cocycle
from oracles import (eager_pairing_entries, fd_h1_par, jet_order2_defect,
                     per_column_basis_vectors, random_word, sample_q)


def test_transport_single_letter(genus2_irr):
    rng = np.random.default_rng(50)
    u = [random_skew(rng, 2) for _ in range(4)]
    for i in range(4):
        got = cocycle_transport(genus2_irr, u, ((i, 1),))
        assert np.allclose(got, u[i])


def test_transport_cancelling_word(genus2_irr):
    rng = np.random.default_rng(51)
    u = [random_skew(rng, 2) for _ in range(4)]
    got = cocycle_transport(genus2_irr, u, ((2, 1), (2, -1)))
    assert np.linalg.norm(got) <= 1e-14


def test_transport_finite_difference(sphere4_rep):
    rng = np.random.default_rng(52)
    eps = 1e-6
    for _ in range(10):
        word = random_word(rng, 4, 10)
        u = [random_skew(rng, 2, 0.5) for _ in range(4)]
        mats = [exponential(eps * x) @ m for x, m in zip(u, sphere4_rep.matrices)]
        pert = Representation(sphere4_rep.presentation, mats)
        w0 = evaluate_word(sphere4_rep, word)
        w1 = evaluate_word(pert, word)
        fd = principal_log(w1 @ w0.conj().T) / eps
        assert np.linalg.norm(fd - cocycle_transport(sphere4_rep, u, word)) <= 1e-5


def test_coboundary_zero_and_abelian(torus_rep, genus2_irr):
    z = coboundary(genus2_irr, np.zeros((2, 2)))
    assert all(np.linalg.norm(m) == 0 for m in z.generator_part)
    rng = np.random.default_rng(53)
    x = random_skew(rng, 1)
    cb = coboundary(torus_rep, x)
    assert all(np.linalg.norm(m) <= 1e-15 for m in cb.generator_part)
    assert np.allclose(cb.conjugator_part[0], x)


def test_coboundary_killed_by_d1_cone(corpus_points):
    rng = np.random.default_rng(54)
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        for _ in range(5):
            x = random_skew(rng, rep.rank)
            cb = coboundary(rep, x)
            v = np.concatenate([
                cc.stack_gen(cb.generator_part),
                np.concatenate([vec_skew(m) for m in cb.conjugator_part])
                if cb.conjugator_part else np.zeros(0),
            ])
            assert np.linalg.norm(cc.d1_cone @ v) <= 1e-10, name


def test_complex_property_on_corpus(corpus_points):
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        assert cc.complex_defect <= 1e-10, name
        par_of_gen = cc.d1_par @ cc.d0_gen
        assert np.linalg.norm(par_of_gen) <= 1e-10, name


def test_assemble_torus_structure(torus_cc):
    assert np.linalg.norm(torus_cc.d1_cone) <= 1e-14
    assert np.linalg.norm(torus_cc.d1_par) <= 1e-14
    assert torus_cc._svd_d0_full.rank == 1


def test_assemble_genus2_d0_rank(genus2_irr_cc):
    assert genus2_irr_cc._svd_d0_full.rank == 3


def test_h_dims_torus(torus_cc):
    d = h_dims(torus_cc)
    assert (d.h0, d.c0, d.b1) == (0, 1, 0)
    assert (d.h1_par, d.h1_cone, d.o2) == (2, 2, 1)


def test_h_dims_genus2_irr(genus2_irr_cc, genus2_irr):
    d = h_dims(genus2_irr_cc)
    assert (d.h1_par, d.o2, d.c0) == (10, 1, 1)
    assert d.h0 == 1  # no peripherals: the centralizer survives
    assert fd_h1_par(genus2_irr) == 10


def test_h_dims_sphere3(sphere3_cc, sphere3_rep):
    d = h_dims(sphere3_cc)
    assert (d.h1_par, d.h1_cone, d.o2) == (0, 5, 1)
    assert fd_h1_par(sphere3_rep) == 0


def test_h_dims_sphere4(sphere4_cc, sphere4_rep):
    d = h_dims(sphere4_cc)
    assert d.h1_par == 2
    assert fd_h1_par(sphere4_rep) == 2


def test_h_dims_reducible(genus2_red_cc):
    d = h_dims(genus2_red_cc)
    assert (d.h1_par, d.o2, d.c0) == (12, 2, 2)


def test_o2_is_the_obstruction_quotient_width(genus2_red_cc):
    # two rank decisions on Im(d1_par): h_dims cuts the singular values of
    # d1_par, the quotient cuts those of its normalized columns; tangent's o2
    # and the length of obstruct's coordinates are these two numbers
    points = [("torus_puncture", seed) for seed in range(40)]
    points += [(name, seed) for name in ("sphere3", "sphere4", "genus2") for seed in range(5)]
    ccs = [assemble_complex(find_representation(corpus.load(name), seed=seed))
           for name, seed in points]
    for (name, seed), cc in zip(points + [("genus2_reducible", None)], ccs + [genus2_red_cc]):
        assert h_dims(cc).o2 == cc.obstruction_quotient.shape[1], (name, seed)


def test_cone_identity_singleton_groups(corpus_points):
    # h1_cone - h1_par = sum_i dim ker(Id - Ad rho(gamma_i)) - c0 at irreducible
    # points with peripherals (all corpus groups are singletons)
    for name, rep in corpus_points.items():
        if not rep.presentation.peripherals:
            continue
        if commutant_dimension(rep) != 1:
            continue
        cc = assemble_complex(rep)
        d = h_dims(cc)
        ker_sum = sum(gd.nullspace.shape[1] for gd in cc.group_data)
        assert d.h1_cone - d.h1_par == ker_sum - d.c0, name


def test_h1_parity_at_irreducible_points(corpus_points):
    for name, rep in corpus_points.items():
        if commutant_dimension(rep) != 1:
            continue
        assert h_dims(rep).h1_par % 2 == 0, name


def test_h1_basis_rigid_empty(sphere3_cc):
    basis = h1_basis(sphere3_cc)
    assert len(basis) == 0
    assert basis.matrix.shape == (12, 0)


def test_h1_basis_torus_coordinates(torus_cc):
    basis = h1_basis(torus_cc)
    assert len(basis) == 2
    # the coordinate cocycles u(a)=i, u(b)=0 and u(a)=0, u(b)=i span the basis
    for target in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        proj = basis.matrix @ (basis.matrix.T @ target)
        assert np.linalg.norm(proj - target) <= 1e-10


def test_h1_basis_orthonormal_cocycles(corpus_points):
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        basis = h1_basis(cc)
        if len(basis) == 0:
            continue
        gram = basis.matrix.T @ basis.matrix
        assert np.linalg.norm(gram - np.eye(len(basis))) <= 1e-10, name
        assert np.linalg.norm(cc.d1_par @ basis.matrix) <= 1e-10, name
        # orthogonal to the coboundary space
        cb = cc._svd_d0_gen.u_r
        assert np.linalg.norm(cb.T @ basis.matrix) <= 1e-10, name


def test_obstruction_zero_for_abelian(torus_cc):
    basis = h1_basis(torus_cc)
    rng = np.random.default_rng(55)
    for _ in range(10):
        u = random_cocycle(torus_cc, basis, rng)
        assert obstruction(torus_cc, u).norm <= 1e-12


def test_obstruction_zero_on_coboundaries(corpus_points):
    rng = np.random.default_rng(56)
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        for _ in range(3):
            x = random_skew(rng, rep.rank)
            cb = coboundary(rep, x)
            assert obstruction(cc, cb.generator_part).norm <= 1e-9, name


def test_obstruction_nonzero_at_reducible(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    norms = [obstruction(genus2_red_cc, v).norm for v in basis.vectors]
    assert max(norms) > 10 * 1e-7


def test_obstruction_rejects_non_cocycle(genus2_irr_cc):
    rng = np.random.default_rng(57)
    u = [random_skew(rng, 2) for _ in range(4)]
    with pytest.raises(NotACocycleError):
        obstruction(genus2_irr_cc, u)


def test_obstruction_scaling_law(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    rng = np.random.default_rng(58)
    for _ in range(20):
        u = random_cocycle(genus2_red_cc, basis, rng)
        q1, q2 = common_obstruction(genus2_red_cc, [u, [2 * m for m in u]])
        assert np.linalg.norm(q2.coordinates - 4 * q1.coordinates) <= 1e-9


def test_obstruction_gauge_invariance(corpus_points):
    rng = np.random.default_rng(59)
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        basis = h1_basis(cc)
        if len(basis) == 0:
            continue
        for _ in range(5):
            u = random_cocycle(cc, basis, rng)
            x = random_skew(rng, rep.rank, 0.7)
            shifted = [a + b for a, b in zip(u, coboundary(rep, x).generator_part)]
            qa, qb = common_obstruction(cc, [u, shifted])
            assert np.linalg.norm(qa.coordinates - qb.coordinates) <= 1e-8, name


def test_pairing_torus_smooth(torus_cc):
    tensor = pairing_tensor(torus_cc, h1_basis(torus_cc))
    assert tensor.verdict
    assert tensor.max_norm() <= 1e-12


def test_pairing_genus2_irr_smooth(genus2_irr_cc):
    tensor = pairing_tensor(genus2_irr_cc, h1_basis(genus2_irr_cc))
    assert tensor.verdict
    assert tensor.max_norm() <= 1e-9


def test_pairing_genus2_red_not_smooth(genus2_red_cc):
    tensor = pairing_tensor(genus2_red_cc, h1_basis(genus2_red_cc))
    assert not tensor.verdict
    assert tensor.max_norm() > 1e-3


def test_pairing_polarization_symmetric(genus2_red_cc):
    # B(u, v) - B(v, u) vanishes identically: the polarization formula is
    # symmetric term by term
    basis = h1_basis(genus2_red_cc)
    cc = genus2_red_cc
    rng = np.random.default_rng(60)
    for _ in range(5):
        u = random_cocycle(cc, basis, rng)
        v = random_cocycle(cc, basis, rng)
        uv = [a + b for a, b in zip(u, v)]
        vu = [b + a for a, b in zip(u, v)]
        quv, qu, qv, qvu = common_obstruction(cc, [uv, u, v, vu])
        buv = 0.5 * (quv.coordinates - qu.coordinates - qv.coordinates)
        bvu = 0.5 * (qvu.coordinates - qu.coordinates - qv.coordinates)
        assert np.linalg.norm(buv - bvu) <= 1e-12


def test_pairing_diagonal_matches_obstruction(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    tensor = pairing_tensor(genus2_red_cc, basis)
    for i, v in enumerate(basis.vectors):
        assert tensor.entries[(i, i)].norm == pytest.approx(
            obstruction(genus2_red_cc, v).norm, abs=1e-10)


def test_joint_simultaneity_group(sphere4_rep):
    # joining Pa and Pb into one group asks for a single conjugator returning
    # both peripheral words to their base values: a strictly stronger
    # first-order condition than per-peripheral class membership
    from repvar import corpus, jets
    from repvar.presentation import parse_presentation

    pres = parse_presentation(corpus.SPHERE4 + "together Pa Pb\n")
    assert pres.groups == ((0, 1), (2,), (3,))
    rep = Representation(pres, sphere4_rep.matrices, sphere4_rep.tolerance)
    cc = assemble_complex(rep)
    joint = cc.group_data[0]
    # generic pair: the joint centralizer is the center alone
    assert joint.nullspace.shape[1] == 1
    assert joint.rank == 3
    assert cc.complex_defect <= 1e-10
    d = h_dims(cc)
    # one tangent dimension of the separate-constraints problem is cut
    assert d.h1_par == h_dims(sphere4_rep).h1_par - 1 == 1
    basis = h1_basis(cc)
    xi, solve_residual = cc.canonical_xi(basis.vectors[0])
    assert len(xi) == 3
    assert solve_residual <= 1e-11
    q = obstruction(cc, basis.vectors[0])
    result = jets.lift(cc, basis.vectors[0], 4)
    assert (q.norm <= 1e-7) == result.succeeded
    assert result.succeeded and max(result.residuals) <= 1e-11


def test_group_listed_out_of_order(sphere4_rep):
    # a group's peripheral rows are gathered and scattered in the order its
    # members are listed: "together Pc Pa" (members (2, 0)) must give the
    # complex of "together Pa Pc" (members (0, 2)) on the same matrices
    cones = []
    for line in ("together Pc Pa\n", "together Pa Pc\n"):
        pres = parse_presentation(corpus.SPHERE4 + line)
        cones.append(assemble_complex(Representation(pres, sphere4_rep.matrices,
                                                     sphere4_rep.tolerance)))
    listed, ascending = cones
    assert listed.groups[0] == (2, 0) and ascending.groups[0] == (0, 2)
    assert h_dims(listed) == h_dims(ascending)  # the integers; gaps do not compare
    assert [pairing_tensor(cc, h1_basis(cc)).verdict for cc in cones] == [True, True]
    for cc in cones:
        assert cc.complex_defect <= 1e-10
    # Q vanishes at this smooth point, so its norms compare at the scale |u|^2 = 1
    for v in h1_basis(ascending).vectors:
        a, b = (obstruction(cc, v).norm for cc in cones)
        assert abs(a - b) <= 1e-12 * max(a, b, 1.0)
    # the classes of arbitrary degree-2 cochains, and the projection itself
    rng = np.random.default_rng(16)
    v = rng.standard_normal((listed.d1_cone.shape[0], 4))
    a, b = (np.array([c.norm for c in obstruction_classes(cc, v[None])[0]]) for cc in cones)
    assert np.all(a > 1e-3)
    assert np.all(np.abs(a - b) <= 1e-12 * a)
    once = [cc.project_peripheral(v) for cc in cones]
    assert np.abs(once[0] - once[1]).max() <= 1e-12
    for cc, p in zip(cones, once):
        assert np.abs(cc.project_peripheral(p) - p).max() <= 1e-12


def test_rank_cut_diagnostics():
    gaps = {}
    assert _rank_cut(np.array([1.0, 0.5, 1e-12]), 1e-8, "clean", gaps) == 2
    assert gaps["clean"] > 1e10
    with pytest.raises(IllConditionedError) as err:
        _rank_cut(np.array([1.0, 3e-8, 1e-12]), 1e-8, "fuzzy")
    assert err.value.candidates == (1, 2)
    assert _rank_cut(np.zeros(0), 1e-8, "empty") == 0


def test_rank_cut_below_rounding_floor(sphere4_rep, sphere4_cc):
    # a threshold under eps * 3 * s[0] would count rounding noise as rank,
    # even on a spectrum whose default cut is clean
    s = np.array([1.0, 0.5, 1e-17])
    assert _rank_cut(s, 1e-8, "clean") == 2
    with pytest.raises(IllConditionedError) as err:
        _rank_cut(s, 1e-20, "below floor")
    assert err.value.candidates == (2, 3)
    # a tall matrix: the floor scales with its larger dimension, so a
    # threshold above eps * 3 * s[0] but under eps * 200 * s[0] is rejected
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((200, 3)))
    tall = q * s
    assert _LstsqSolver(tall, 1e-8, "clean").rank == 2
    assert _rank_cut(np.linalg.svd(tall, compute_uv=False), 1e-14, "square floor") == 2
    with pytest.raises(IllConditionedError, match="ambiguous rank"):
        _LstsqSolver(tall, 1e-14, "tall floor")
    # tangent, pairing and probe all assemble the complex first; check
    # counts the commutant, which the scalars keep at least 1-dimensional
    basis = h1_basis(sphere4_cc)
    for call in (lambda: h_dims(sphere4_rep, 1e-20),
                 lambda: pairing_tensor(sphere4_rep, basis, rank_rtol=1e-20),
                 lambda: assemble_complex(sphere4_rep, 1e-20),
                 lambda: commutant_dimension(sphere4_rep, rank_rtol=1e-20)):
        with pytest.raises(IllConditionedError, match="ambiguous rank"):
            call()


def test_u1_rank_decisions_ignore_rounding_of_zero(torus_pres):
    # at U(1) the punctured-torus differentials are zero in exact arithmetic,
    # but find leaves entries of a few eps in them: every rank stays 0, so
    # every point has c0 = 1, h1_par = h1_cone = 2, the commutant count
    # agrees, and a lift makes no correction past order 1
    for seed in range(200):
        cc = assemble_complex(find_representation(torus_pres, seed=seed))
        dims = h_dims(cc)
        assert (dims.c0, dims.h1_par, dims.h1_cone) == (1, 2, 2), seed
        assert commutant_dimension(cc.rep) == dims.c0
        for u in h1_basis(cc).vectors:
            report = lift(cc, u, 4)
            assert report.succeeded, seed
            jets = report.corrections
            assert all(np.array_equal(x, np.zeros_like(x))
                       for series in jets.generator_jets + jets.conjugator_jets
                       for x in series[1:]), seed


# -- the closed-form cup product against the jet oracle, over generated points --

point_cases = settings(max_examples=25, deadline=None, derandomize=True)
POINT_TEXTS = {**corpus.TEXTS, "sphere4_joint": corpus.SPHERE4 + "together Pa Pb\n"}
point_names = st.sampled_from(sorted(POINT_TEXTS) + ["genus2_reducible"])
find_seeds = st.integers(1, 4)
draw_seeds = st.integers(0, 2 ** 32 - 1)


@lru_cache(maxsize=None)
def _point(name, seed):
    """Complex and h1 basis at a corpus presentation's point found from the
    seed, or at the fixed reducible genus-2 point."""
    if name == "genus2_reducible":
        rep = corpus.genus2_reducible()
    else:
        rep = find_representation(parse_presentation(POINT_TEXTS[name]), seed=seed,
                                  attempts=50, target_tolerance=1e-11)
    cc = assemble_complex(rep)
    return cc, h1_basis(cc)


def _with_xi(cc, u):
    return u, cc.canonical_xi(u)[0]


def _kernel_vectors(cc):
    """(0, kappa) for each joint-centralizer kernel column kappa of each group."""
    n = cc.rep.rank
    zero = np.zeros((n, n), dtype=complex)
    out = []
    for g, gd in enumerate(cc.group_data):
        for col in gd.nullspace.T:
            xi = [zero] * len(cc.groups)
            xi[g] = unvec_skew(col, n)
            out.append(([zero] * cc.n_gen, xi))
    return out


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


@point_cases
@given(point_names, find_seeds, draw_seeds)
def test_cup_form_matches_jet_oracle(name, seed, draw):
    # raw defects on the diagonal, polarized defects off it, and the
    # conjugator-kernel shifts 2 D(u, kappa) + D(kappa, kappa), each against
    # degree-2 jet arithmetic; the last vector (u, xi) is arbitrary, so the
    # form is checked off the cocycles too
    cc, basis = _point(name, seed)
    rng = np.random.default_rng(draw)
    n = cc.rep.rank
    cocycles = [_with_xi(cc, random_cocycle(cc, basis, rng, scale))
                for scale in (1.0, 2.5)] if len(basis) else []
    kernel = _kernel_vectors(cc)
    arbitrary = ([random_skew(rng, n) for _ in range(cc.n_gen)],
                 [random_skew(rng, n) for _ in cc.groups])
    vectors = cocycles + kernel + [arbitrary]
    form = cup_form(cc, vectors)
    raws = [jet_order2_defect(cc, u, xi) for u, xi in vectors]
    for i, (u, xi) in enumerate(vectors):
        assert np.linalg.norm(form[i, i] - raws[i]) <= 1e-12 * (1 + np.linalg.norm(raws[i]))
        for j in range(i + 1, len(vectors)):
            v, eta = vectors[j]
            both = jet_order2_defect(cc, _add(u, v), _add(xi, eta))
            scale = 1 + max(np.linalg.norm(x) for x in (raws[i], raws[j], both))
            polar = 0.5 * (both - raws[i] - raws[j])
            assert np.linalg.norm(form[i, j] - polar) <= 1e-12 * scale
    for i, (u, xi) in enumerate(cocycles):
        for k, (_, kappa) in enumerate(kernel, start=len(cocycles)):
            moved = jet_order2_defect(cc, u, _add(xi, kappa))
            shift = 2 * form[i, k] + form[k, k]
            scale = 1 + max(np.linalg.norm(raws[i]), np.linalg.norm(moved))
            assert np.linalg.norm(shift - (moved - raws[i])) <= 1e-12 * scale


@point_cases
@given(point_names, find_seeds, draw_seeds)
def test_pairing_symmetric_with_q_on_diagonal(name, seed, draw):
    cc, basis = _point(name, seed)
    if len(basis) == 0:
        return
    rng = np.random.default_rng(draw)
    u, v = (random_cocycle(cc, basis, rng) for _ in range(2))
    form = cup_form(cc, [_with_xi(cc, w) for w in (u, v, _add(u, v))])
    assert np.array_equal(form, form.transpose(1, 0, 2))
    polarized = form[2, 2] - form[0, 0] - form[1, 1] - 2 * form[0, 1]
    assert np.linalg.norm(polarized) <= 1e-12 * (1 + np.linalg.norm(form[2, 2]))
    tensor = pairing_tensor(cc, basis)
    for i, q in enumerate(common_obstruction(cc, basis.vectors)):
        gap = np.linalg.norm(tensor.entries[(i, i)].coordinates - q.coordinates)
        assert gap <= 1e-12 * (1 + q.norm)


@point_cases
@given(point_names, find_seeds, draw_seeds, st.floats(0.1, 4.0), st.sampled_from([1, -1]))
def test_q_quadratic_and_zero_on_coboundaries(name, seed, draw, size, sign):
    cc, basis = _point(name, seed)
    rng = np.random.default_rng(draw)
    cb = coboundary(cc.rep, random_skew(rng, cc.rep.rank)).generator_part
    assert obstruction(cc, cb).norm <= 1e-9 * (1 + np.linalg.norm(cc.stack_gen(cb)) ** 2)
    if len(basis) == 0:
        return
    lam = sign * size
    u = random_cocycle(cc, basis, rng)
    q1, q2 = common_obstruction(cc, [u, [lam * m for m in u]])
    assert np.linalg.norm(q2.coordinates - lam ** 2 * q1.coordinates) <= 1e-9 * lam ** 2


U3_DIAGONAL = """\
group sphere4_u3_diagonal
rank 3
generators a b c d
relator a b c d
peripheral Pa = a : 1/5, 1/5, -2/5
peripheral Pb = b : 1/7, 2/7, -3/7
peripheral Pc = c : 1/11, 3/11, -4/11
peripheral Pd = d : -167/385, -292/385, 459/385
"""


@lru_cache(maxsize=None)
def _u3_diagonal():
    """A U(3) four-punctured sphere at a diagonal point built from exact
    fractions: d's angles are minus the sums of the others, so a b c d
    closes exactly, and Pa repeats an eigenvalue.  There o2 = 3."""
    angles = [[Fraction(1, 5), Fraction(1, 5), Fraction(-2, 5)],
              [Fraction(1, 7), Fraction(2, 7), Fraction(-3, 7)],
              [Fraction(1, 11), Fraction(3, 11), Fraction(-4, 11)]]
    angles.append([-sum(col) for col in zip(*angles)])
    rep = corpus.diagonal_representation(parse_presentation(U3_DIAGONAL), angles)
    cc = assemble_complex(rep)
    return rep, cc, h1_basis(cc)


def _near_cocycle(cc, basis):
    """An exact unit combination u of the basis and a fixed skew tangent n of
    unit norm, which is no cocycle."""
    rng = np.random.default_rng(90)
    c = rng.standard_normal(len(basis))
    u = cc.unstack_gen(basis.matrix @ (c / np.linalg.norm(c)))
    n = [random_skew(rng, cc.rep.rank) for _ in range(cc.n_gen)]
    size = np.linalg.norm(cc.stack_gen(n))
    return u, [x / size for x in n]


def test_near_cocycle_keeps_every_quotient_coordinate(tmp_path):
    # Q of u + eps n moves by O(eps): the quotient is the complement of
    # Im(d1_par) alone, so a near-cocycle keeps all o2 = 3 coordinates and
    # its rank decision does not depend on eps
    rep, cc, basis = _u3_diagonal()
    assert h_dims(cc).o2 == 3
    u, n = _near_cocycle(cc, basis)
    q0 = obstruction(cc, u)
    assert q0.coordinates.shape == (3,)
    for eps in (1e-11, 1e-9, 1e-8):
        q = obstruction(cc, [a + eps * b for a, b in zip(u, n)])
        assert q.coordinates.shape == (3,)
        assert np.linalg.norm(q.coordinates - q0.coordinates) <= 10 * eps
    files = {"grp": U3_DIAGONAL, "rep": json.dumps(rep_to_json(rep)),
             "cochain": json.dumps({"generator_part": {
                 name: matrix_to_json(a + 1e-9 * b)
                 for name, a, b in zip(rep.presentation.generators, u, n)},
                 "conjugator_part": {}})}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.run(["obstruct", *(str(tmp_path / name) for name in files)]) == 0


def _projected_kernel_moves(cc, u):
    """The largest |project_peripheral(2 D(u, kappa) + D(kappa, kappa))| over
    the conjugator-kernel cochains (0, kappa), from cup_form, and the floor
    1e-12 (1 + |u| + max |xi|) at the canonical xi."""
    kernel = _kernel_vectors(cc)
    assert kernel
    u, xi = _with_xi(cc, u)
    form = cup_form(cc, [(u, xi)] + kernel)
    moves = [np.linalg.norm(cc.project_peripheral(2.0 * form[0, k] + form[k, k]))
             for k in range(1, len(form))]
    floor = 1e-12 * (1.0 + np.linalg.norm(cc.stack_gen(u)) + max(np.linalg.norm(x) for x in xi))
    return max(moves), floor


@point_cases
@given(st.sampled_from(["sphere4", "sphere4_joint", "sphere4_u3_diagonal"]), find_seeds,
       draw_seeds, st.floats(0.1, 4.0))
def test_conjugator_kernel_moves_vanish_on_cocycles(name, seed, draw, scale):
    # moving xi by kappa moves peripheral row i by 1/2 [a_1, kappa] with
    # a_1 = (Id - Ad P_i) xi on a cocycle, which the projection removes, so
    # Q does not depend on the choice of xi
    cc, basis = _u3_diagonal()[1:] if name == "sphere4_u3_diagonal" else _point(name, seed)
    u = random_cocycle(cc, basis, np.random.default_rng(draw), scale)
    move, floor = _projected_kernel_moves(cc, u)
    assert move <= floor


def test_conjugator_kernel_moves_seen_off_cocycles():
    # the negative control: u + 1e-8 n is no cocycle, and its move is seen
    _, cc, basis = _u3_diagonal()
    u, n = _near_cocycle(cc, basis)
    move, floor = _projected_kernel_moves(cc, u)
    assert move <= floor
    v = [a + 1e-8 * b for a, b in zip(u, n)]
    assert np.linalg.norm(cc.d1_par @ cc.stack_gen(v)) > 1e-9
    move, floor = _projected_kernel_moves(cc, v)
    assert move > floor


def test_no_shift_directions_at_degenerate_class_point(degenerate_u3_cc):
    # The class (1/5, 2/5, -3/5) repeats an eigenvalue (-3/5 = 2/5 mod 1).  At
    # the point that find seed 1 returns, group 0 keeps a singular value of
    # 3e-6, so the canonical xi is about 1e5.  Even there the projected moves
    # of the raw defect along the conjugator kernel stay under the floor.
    cc = degenerate_u3_cc
    group0 = cc.group_data[0]
    assert np.linalg.svd(group0.map, compute_uv=False)[group0.rank - 1] < 1e-5
    basis = h1_basis(cc)
    assert len(basis) == 8
    rng = np.random.default_rng(91)
    for v in list(basis.vectors) + [random_cocycle(cc, basis, rng) for _ in range(4)]:
        xi, _ = cc.canonical_xi(v)
        assert max(np.linalg.norm(x) for x in xi) > 1e3
        move, floor = _projected_kernel_moves(cc, v)
        assert move <= floor


def test_scalar_class_gets_rank_zero():
    # Pa = (1/2, 1/2) makes rho(a) = -I, so Id - Ad rho(a) is zero up to
    # rounding (singular values 2e-16): its rank is 0, not 2.  By hand u_a = 0,
    # the b, c, d parts are off-diagonal (6 dimensions), the relator removes
    # 2 and the coboundaries 2, so h1_par = 2.
    text = ("group sphere4_scalar\nrank 2\ngenerators a b c d\nrelator a b c d\n"
            "peripheral Pa = a : 1/2, 1/2\nperipheral Pb = b : 1/7, -1/7\n"
            "peripheral Pc = c : 1/5, -1/5\nperipheral Pd = d : 11/70, -11/70\n")
    angles = [(0.5, 0.5), (1 / 7, -1 / 7), (1 / 5, -1 / 5), (11 / 70, -11 / 70)]
    rep = corpus.diagonal_representation(parse_presentation(text), angles)
    cc = assemble_complex(rep)
    assert cc.group_data[0].rank == 0
    basis = h1_basis(cc)
    assert len(basis) == 2
    for v in basis.vectors:
        assert max(np.linalg.norm(x) for x in cc.canonical_xi(v)[0]) <= 10
        assert obstruction(cc, v).norm <= 10


def test_abelian_point_from_find_has_no_coboundaries():
    # at U(1), Id - Ad rho(x) is zero up to the rounding of |rho(x)|^2 = 1,
    # so d0 has rank 0 and h1_par = 2 at every point, as at the exact one
    rep = find_representation(corpus.load("torus_puncture"), seed=1, target_tolerance=1e-10)
    dims = h_dims(rep)
    assert (dims.b1, dims.c0, dims.h1_par) == (0, 1, 2)


def test_pairing_at_rigid_point(sphere3_cc):
    # h1_par = 0: the pairing has no entries and the verdict is smooth
    tensor = pairing_tensor(sphere3_cc, h1_basis(sphere3_cc))
    assert tensor.entries == {} and tensor.verdict
    assert common_obstruction(sphere3_cc, []) == []


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("point", ["genus2_irr_cc", "genus2_red_cc", "sphere4_cc",
                                   "degenerate_u3_cc"])
def test_pairing_entries_match_eager_oracle(point, request, monkeypatch):
    # the entries are a read-only mapping whose classes are built on first
    # access from one batched reduction: bitwise the classes built all at once
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    h = len(basis)
    want = eager_pairing_entries(cc, basis)
    built = []
    monkeypatch.setattr(cohomology, "ObstructionClass",
                        lambda **kw: built.append(kw) or ObstructionClass(**kw))
    tensor = pairing_tensor(cc, basis)
    assert tensor.verdict == all(e.norm <= tensor.tolerance for e in want.values())
    assert tensor.max_norm() == max(e.norm for e in want.values())
    assert built == []  # the verdict and max_norm read the norms alone
    entries = tensor.entries
    assert len(entries) == h * (h + 1) // 2
    assert list(entries) == list(want)
    for key, w in want.items():
        got = entries[key]
        assert entries[key] is got
        assert got.norm == w.norm
        assert _same_bits(got.coordinates, w.coordinates)
        assert _same_bits(got.defect, w.defect)
        rep = got.representative
        oracle = cc.unstack_target(w.defect[:, None])[0]
        for part, oracle_part in ((rep.relator_part, oracle.relator_part),
                                  (rep.peripheral_part, oracle.peripheral_part)):
            assert len(part) == len(oracle_part)
            assert all(_same_bits(x, y) for x, y in zip(part, oracle_part))
    assert len(built) == len(want)
    with pytest.raises(KeyError):
        entries[h, h]
    with pytest.raises(KeyError):
        entries[1, 0]
    with pytest.raises(TypeError):
        entries[0, 0] = want[0, 0]


def test_pairing_entries_shared_across_threads(genus2_irr_cc):
    # threads reading the same entries concurrently all get the one class
    # stored per key, even when two of them build it at the same time
    basis = h1_basis(genus2_irr_cc)
    tensors = [pairing_tensor(genus2_irr_cc, basis) for _ in range(20)]
    keys = list(tensors[0].entries)
    seen = []
    start = threading.Barrier(6, timeout=60)

    def read():
        got = []
        for t in tensors:
            start.wait()  # every thread on the same fresh tensor at once
            got.append([t.entries[k] for k in keys])
        seen.append(got)

    workers = [threading.Thread(target=read) for _ in range(6)]
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
    assert len(seen) == len(workers)
    for t, classes in zip(tensors, seen[0]):
        assert all(t.entries[k] is c for k, c in zip(keys, classes))  # stored, not rebuilt
    for got in seen:
        for ours, first in zip(got, seen[0]):
            assert len(ours) == len(keys)
            assert all(a is b for a, b in zip(ours, first))


def test_h1_basis_vectors_match_per_column_oracle(corpus_points, degenerate_u3_cc):
    # all basis vectors come from one unstacking of the basis matrix: bitwise
    # the matrices of unstacking each column alone, rigid sphere3 included
    cones = [assemble_complex(rep) for rep in corpus_points.values()] + [degenerate_u3_cc]
    sizes = []
    for cc in cones:
        basis = h1_basis(cc)
        want = per_column_basis_vectors(cc, basis)
        sizes.append(len(basis))
        assert len(basis.vectors) == len(want)
        for got_v, want_v in zip(basis.vectors, want):
            assert isinstance(got_v, tuple) and len(got_v) == len(want_v) == cc.n_gen
            assert all(_same_bits(x, y) for x, y in zip(got_v, want_v))
    assert 0 in sizes


def _assert_rows_match_oracle(qmap, rows):
    """Every row's stacked class is bitwise the per-row oracle's, and the
    norms-only read is bitwise the classes' norms."""
    classes = qmap(rows)
    assert len(classes) == len(rows)
    assert qmap.norms(rows).tolist() == [got.norm for got in classes]
    for c, got in zip(rows, classes):
        want = sample_q(qmap, c)
        assert got.norm == want.norm
        assert got.coordinates.shape == want.coordinates.shape
        assert np.array_equal(got.coordinates, want.coordinates)
        assert np.array_equal(got.defect, want.defect)


@pytest.mark.parametrize("point", ["sphere4_cc", "genus2_irr_cc", "genus2_red_cc",
                                   "degenerate_u3_cc"])
def test_stacked_q_matches_per_sample_oracle(point, request):
    # Q of a stack of coefficient rows is one batched evaluation with one
    # product per row, so each row's class is bitwise the one the row gets
    # alone, whatever it is stacked with
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    qmap = QuadraticMap(cc, [list(v) for v in basis.vectors])
    rng = np.random.default_rng(81)
    for size in (1, 7, 40):
        rows = rng.standard_normal((size, len(basis)))
        _assert_rows_match_oracle(qmap, rows / np.linalg.norm(rows, axis=1)[:, None])
    c = rng.standard_normal(len(basis))
    for lam in (-3.0, 0.25, 2.0):
        _assert_rows_match_oracle(qmap, np.array([c, lam * c]))


def test_representative_built_on_first_access(sphere4_cc):
    # the representative is the projected raw defect as a Cochain2; it is
    # built when first read, not for every class
    basis = h1_basis(sphere4_cc)
    u = random_cocycle(sphere4_cc, basis, np.random.default_rng(79))
    q = obstruction(sphere4_cc, u)
    assert "representative" not in vars(q)
    rep = q.representative
    assert q.representative is rep
    assert len(rep.relator_part) == sphere4_cc.n_rel
    assert len(rep.peripheral_part) == sphere4_cc.n_per
    got = np.concatenate([vec_skew(x) for x in rep.relator_part + rep.peripheral_part])
    raw = jet_order2_defect(sphere4_cc, u, sphere4_cc.canonical_xi(u)[0])
    want = sphere4_cc.project_peripheral(raw)
    assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(raw))


def test_relator_that_reduces_to_nothing(genus2_irr, genus2_irr_cc):
    # a relator that freely reduces to nothing is kept with no letters: no Fox
    # terms, a zero block of the form, and the same pairing verdict
    pres = parse_presentation(corpus.GENUS2 + "relator a a'\n")
    assert pres.relators[1] == ()
    cc = assemble_complex(Representation(pres, genus2_irr.matrices, genus2_irr.tolerance))
    basis = h1_basis(cc)
    form = cup_form(cc, [_with_xi(cc, list(v)) for v in basis.vectors])
    assert not form[:, :, cc.q:].any()
    assert pairing_tensor(cc, basis).verdict == pairing_tensor(
        genus2_irr_cc, h1_basis(genus2_irr_cc)).verdict
