import gc
import json
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repvar import cli, cohomology, corpus, repspace
from repvar.cohomology import (
    IllConditionedError,
    NotACocycleError,
    ObstructionClass,
    _LstsqSolver,
    _rank_cut,
    assemble_complex,
    coboundary,
    cocycle_form,
    cocycle_transport,
    common_obstruction,
    cup_form,
    h1_basis,
    h_dims,
    obstruction,
    obstruction_classes,
    pairing_tensor,
    q_norms,
)
from repvar.jets import lift, probe_cone
from repvar.presentation import Presentation, parse_presentation
from repvar.repspace import (Representation, commutant_dimension, conjugate,
                             constraint_residual, evaluate_word, find_representation,
                             rep_to_json)
from repvar.unitary import (exponential, haar_from_rng, matrix_to_json, principal_log, random_skew,
                            unvec_skew, vec_skew)

from conftest import DIRECT_SUMS, random_cocycle
from oracles import (complex_defect, d0_cone, eager_pairing_entries, einsum_unstack_target,
                     fd_h1_par, jet_order2_defect, list_kernel_cup, pair_arrays,
                     per_column_basis_vectors, per_cocycle_cup_form, per_word_transport_matrix,
                     random_word, sample_q, svd_dims, whole_cup_form)


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
        assert complex_defect(cc) <= 1e-10, name
        par_of_gen = cc.d1_par @ cc.d0_gen
        assert np.linalg.norm(par_of_gen) <= 1e-10, name


def test_assemble_torus_structure(torus_cc):
    assert np.linalg.norm(torus_cc.d1_cone) <= 1e-14
    assert np.linalg.norm(torus_cc.d1_par) <= 1e-14
    assert np.linalg.matrix_rank(d0_cone(torus_cc)) == 1
    assert h_dims(torus_cc).h0 == 0


def test_assemble_genus2_d0_rank(genus2_irr_cc):
    assert np.linalg.matrix_rank(d0_cone(genus2_irr_cc)) == 3
    assert h_dims(genus2_irr_cc).h0 == 1


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


def test_h_dims_matches_svd_oracle(corpus_points, degenerate_u3_cc, sphere4_rep):
    # h_dims reads the rank of d0 on the cone off the groups (q with one,
    # d0 on the generators without); the oracle factors it by its own SVD
    together = parse_presentation(corpus.SPHERE4 + "together Pa Pc\n")
    free = Presentation("free1", 2, ["a"])
    points = {**corpus_points, "degenerate_u3": degenerate_u3_cc.rep,
              "together_pa_pc": Representation(together, sphere4_rep.matrices,
                                               sphere4_rep.tolerance),
              "no_generators": Representation(Presentation("empty", 2, []), []),
              "empty_relator": Representation(Presentation("none", 2, [], relators=[()]), []),
              "no_relators": Representation(free, [haar_from_rng(np.random.default_rng(3), 2)])}
    for name, point in points.items():
        cc = assemble_complex(point)
        got, want = h_dims(cc), svd_dims(cc)
        assert got == want, name  # the integers
        assert list(got.gaps.items()) == list(want.gaps.items()), name
        assert got.to_json() == want.to_json(), name
    assert constraint_residual(points["empty_relator"]).max == 0


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
        assert h_dims(assemble_complex(rep)).h1_par % 2 == 0, name


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


def test_cocycle_check_rejects_misshapen_and_non_skew_parts(sphere4_cc):
    # the coordinates of a part drop its Hermitian half and a reshape of its
    # entries, so the cocycle check reads both off the parts themselves
    u = h1_basis(sphere4_cc).vectors[0]
    flat = [m.reshape(1, 4) for m in u]
    for call in (obstruction, lambda cc, parts: lift(cc, parts, 3)):
        with pytest.raises(ValueError, match=r"shapes \[\(1, 4\)"):
            call(sphere4_cc, flat)
    shifted = [m + np.eye(2) for m in u]
    with pytest.raises(NotACocycleError):
        obstruction(sphere4_cc, shifted)
    with pytest.raises(NotACocycleError):
        lift(sphere4_cc, shifted, 3)
    assert lift(sphere4_cc, u, 3).achieved_order == 3


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


@pytest.mark.parametrize("name", sorted(DIRECT_SUMS))
def test_direct_sum_closed_forms(name, direct_sum_cc):
    # two non-isomorphic irreducible blocks: the commutant and H^2 are
    # 2-dimensional (the centre of each block), and the point is singular
    blocks, h1 = DIRECT_SUMS[name]
    assert h1 == 2 * sum(n for n, _ in blocks) ** 2 + 2 * len(blocks)
    cc = direct_sum_cc(name)
    basis = h1_basis(cc)
    assert (basis.dims.c0, basis.dims.o2, basis.dims.h1_par) == (2, 2, h1)
    tensor = pairing_tensor(cc, basis)
    assert not tensor.verdict
    # Q has rank k - 1 = 1 in O^2, and its one nonzero functional has
    # signature ((2g - 2) n1 n2, (2g - 2) n1 n2), read off the pairing
    # coordinates.  Both cuts sit inside the measured gaps: nonzero singular
    # values and eigenvalues were at least 0.34 of the largest, zero ones at
    # most 4e-15 of it
    coords = np.zeros((h1, h1, 2))
    for (i, j), entry in tensor.entries.items():
        coords[i, j] = coords[j, i] = entry.coordinates
    _, s, vt = np.linalg.svd(coords.reshape(h1 * h1, 2), full_matrices=False)
    assert np.sum(s > 1e-7 * s[0]) == 1
    eig = np.linalg.eigvalsh(coords @ vt[0])
    cut = 1e-7 * np.abs(eig).max()
    half = 2 * blocks[0][0] * blocks[1][0]
    assert (np.sum(eig > cut), np.sum(eig < -cut)) == (half, half)


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
    assert complex_defect(cc) <= 1e-10
    d = h_dims(cc)
    # one tangent dimension of the separate-constraints problem is cut
    assert d.h1_par == h_dims(assemble_complex(sphere4_rep)).h1_par - 1 == 1
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
        assert complex_defect(cc) <= 1e-10
    # Q vanishes at this smooth point, so its norms compare at the scale |u|^2 = 1
    for v in h1_basis(ascending).vectors:
        a, b = (obstruction(cc, v).norm for cc in cones)
        assert abs(a - b) <= 1e-12 * max(a, b, 1.0)
    # the classes of arbitrary degree-2 cochains, and the projection itself
    for cc in cones:
        _assert_o2_map_is_the_quotient_chain(cc)
    rng = np.random.default_rng(16)
    v = rng.standard_normal((listed.d1_cone.shape[0], 4))
    a, b = (np.array([c.norm for c in obstruction_classes(cc, v)]) for cc in cones)
    assert np.all(a > 1e-3)
    assert np.all(np.abs(a - b) <= 1e-12 * a)
    once = [cc.project_peripheral(v) for cc in cones]
    assert np.abs(once[0] - once[1]).max() <= 1e-12
    for cc, p in zip(cones, once):
        assert np.abs(cc.project_peripheral(p) - p).max() <= 1e-12


def _assert_o2_map_is_the_quotient_chain(cc):
    """o2_map @ raw is the chain it replaced, the quotient coordinates of the
    projected raw defect, and pt_basis pt_basis^T is project_peripheral,
    within fixed tolerances (measured: 1.7e-16 * max(1, |raw|) and 1e-15),
    on random defects and on the raw pairing defects of the h1 basis."""
    dim = cc.d1_cone.shape[0]
    raw = np.random.default_rng(17).standard_normal((dim, 6))
    basis = h1_basis(cc)
    if len(basis):
        raw = np.hstack([raw, cc.basis_form(basis).reshape(-1, dim).T])
    chain = cc.obstruction_quotient.T @ (cc.pt_basis.T @ cc.project_peripheral(raw))
    gap = np.abs(cc.o2_map @ raw - chain).max(axis=0)
    assert np.all(gap <= 1e-14 * np.maximum(1.0, np.linalg.norm(raw, axis=0)))
    assert np.abs(cc.pt_basis @ cc.pt_basis.T - cc.project_peripheral(np.eye(dim))).max() <= 1e-14


@pytest.mark.parametrize("point", ["torus_cc", "genus2_irr_cc", "genus2_red_cc", "sphere3_cc",
                                   "sphere4_cc", "degenerate_u3_cc", "genus2_u8_cc", "u2+u1",
                                   "u2+u2"])
def test_o2_map_is_the_quotient_chain(point, request, direct_sum_cc):
    # the one functional the classes read, at every fixture point; the
    # multi-member group is checked in test_group_listed_out_of_order
    cc = direct_sum_cc(point) if point in DIRECT_SUMS else request.getfixturevalue(point)
    assert cc.o2_map.shape == (h_dims(cc).o2, cc.d1_cone.shape[0])
    _assert_o2_map_is_the_quotient_chain(cc)


def test_rank_cut_diagnostics():
    rank, gap = _rank_cut(np.array([1.0, 0.5, 1e-12]), 1e-8, "clean")
    assert rank == 2
    assert gap > 1e10
    with pytest.raises(IllConditionedError) as err:
        _rank_cut(np.array([1.0, 3e-8, 1e-12]), 1e-8, "fuzzy")
    assert err.value.candidates == (1, 2)
    assert _rank_cut(np.zeros(0), 1e-8, "empty") == (0, None)


def test_rank_cut_below_rounding_floor(sphere4_rep):
    # a threshold under eps * 3 * s[0] would count rounding noise as rank,
    # even on a spectrum whose default cut is clean
    s = np.array([1.0, 0.5, 1e-17])
    assert _rank_cut(s, 1e-8, "clean") == (2, 0.5 / 1e-17)
    with pytest.raises(IllConditionedError) as err:
        _rank_cut(s, 1e-20, "below floor")
    assert err.value.candidates == (2, 3)
    # a tall matrix: the floor scales with its larger dimension, so a
    # threshold above eps * 3 * s[0] but under eps * 200 * s[0] is rejected
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((200, 3)))
    tall = q * s
    assert _LstsqSolver(tall, 1e-8, "clean").rank == 2
    rank, gap = _rank_cut(np.linalg.svd(tall, compute_uv=False), 1e-14, "square floor")
    assert rank == 2
    assert gap > 1e10
    with pytest.raises(IllConditionedError, match="ambiguous rank"):
        _LstsqSolver(tall, 1e-14, "tall floor")
    # tangent, pairing and probe all assemble the complex first; check
    # counts the commutant, which the scalars keep at least 1-dimensional
    for call in (lambda: assemble_complex(sphere4_rep, 1e-20),
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
    form = cup_form(cc, *pair_arrays(cc, vectors))
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
@given(point_names, find_seeds, draw_seeds, st.integers(1, 13))
def test_cup_form_is_bitwise_per_cocycle(name, seed, draw, count):
    # the stacked right conjugations g x g^H (one gemm of all cocycles
    # against g^H) against one conjugation per cocycle, on vectors that
    # need not be cocycles
    cc, _ = _point(name, seed)
    rng = np.random.default_rng(draw)
    n = cc.rep.rank
    vectors = [([random_skew(rng, n) for _ in range(cc.n_gen)],
                [random_skew(rng, n) for _ in cc.groups]) for _ in range(count)]
    assert (cup_form(cc, *pair_arrays(cc, vectors)).tobytes()
            == per_cocycle_cup_form(cc, vectors).tobytes())


@point_cases
@given(point_names, find_seeds, draw_seeds)
def test_dims_and_verdict_invariant_under_conjugation(name, seed, draw):
    # conjugating every generator by one Haar unitary moves the point along
    # its orbit: the seven dimensions (Dims equality leaves out the gaps)
    # and the pairing verdict stay
    cc, basis = _point(name, seed)
    moved = assemble_complex(conjugate(cc.rep, haar_from_rng(np.random.default_rng(draw),
                                                             cc.rep.rank)))
    assert h_dims(moved) == h_dims(cc)
    assert pairing_tensor(moved, h1_basis(moved)).verdict == pairing_tensor(cc, basis).verdict


@point_cases
@given(point_names, find_seeds, draw_seeds)
def test_pairing_symmetric_with_q_on_diagonal(name, seed, draw):
    cc, basis = _point(name, seed)
    if len(basis) == 0:
        return
    rng = np.random.default_rng(draw)
    u, v = (random_cocycle(cc, basis, rng) for _ in range(2))
    form = cup_form(cc, *pair_arrays(cc, [_with_xi(cc, w) for w in (u, v, _add(u, v))]))
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
    form = cup_form(cc, *pair_arrays(cc, [(u, xi)] + kernel))
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
    dims = h_dims(assemble_complex(rep))
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


def test_unstack_target_is_bitwise_the_einsum(corpus_points):
    # one real gemm of every column's coordinates against the basis, against
    # the einsum on the complex basis, zero signs included, at U(1) .. U(6):
    # the corpus points, then Haar points of a one-relator, one-peripheral
    # presentation
    cones = [assemble_complex(rep) for rep in corpus_points.values()]
    rng = np.random.default_rng(81)
    for n in range(3, 7):
        angles = ", ".join(f"{k}/{2 * n + 1}" for k in range(n))
        pres = parse_presentation(f"group free_u{n}\nrank {n}\ngenerators a b\n"
                                  f"relator a b a' b' b\nperipheral P = a b : {angles}\n")
        cones.append(assemble_complex(Representation(pres, [haar_from_rng(rng, n) for _ in "ab"])))
    for cc in cones:
        v = rng.standard_normal((cc.d1_cone.shape[0], 5))
        v[rng.random(v.shape) < 0.3] = 0.0
        v[rng.random(v.shape) < 0.2] = -0.0
        got = cc.unstack_target(v)
        want = einsum_unstack_target(cc, v)
        assert len(got) == len(want) == 5
        for cochain, blocks in zip(got, want):
            assert len(cochain.relator_part) == cc.n_rel
            assert _same_bits(np.array(cochain.relator_part + cochain.peripheral_part), blocks)
    assert {cc.rep.rank for cc in cones} == set(range(1, 7))


def _assert_rows_match_oracle(cc, form, rows):
    """Every row's stacked norm is bitwise the per-row oracle's class norm."""
    norms = q_norms(cc, form, rows).tolist()
    assert len(norms) == len(rows)
    for c, got in zip(rows, norms):
        assert got == sample_q(cc, form, c).norm


@pytest.mark.parametrize("point", ["sphere4_cc", "genus2_irr_cc", "genus2_red_cc",
                                   "degenerate_u3_cc"])
def test_stacked_q_matches_per_sample_oracle(point, request):
    # |Q| of a stack of coefficient rows is one batched evaluation with one
    # product per row, so each row's norm is bitwise that of the class the
    # row gets alone, whatever it is stacked with
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    form = cocycle_form(cc, [list(v) for v in basis.vectors])
    rng = np.random.default_rng(81)
    for size in (1, 7, 40):
        rows = rng.standard_normal((size, len(basis)))
        _assert_rows_match_oracle(cc, form, rows / np.linalg.norm(rows, axis=1)[:, None])
    c = rng.standard_normal(len(basis))
    for lam in (-3.0, 0.25, 2.0):
        _assert_rows_match_oracle(cc, form, np.array([c, lam * c]))


def test_q_norm_invariant_under_centralizer(genus2_red_cc):
    # Z(rho) at the reducible genus-2 point is the diagonal torus: Ad_k for
    # k = diag(1, e^(i theta)) fixes rho, maps cocycles and coboundaries to
    # themselves isometrically, so it keeps the span of the H^1 basis and
    # |Q|, both through obstruction() and through q_norms on the kept form
    cc = genus2_red_cc
    basis = h1_basis(cc)
    form = cc.basis_form(basis)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        k = np.diag([1.0, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))])
        u = cc.unstack_gen(basis.matrix @ c)
        moved = [k @ x @ k.conj().T for x in u]
        c_moved = basis.matrix.T @ cc.stack_gen(moved)
        assert np.linalg.norm(basis.matrix @ c_moved - cc.stack_gen(moved)) <= 1e-12
        a, b = (obstruction(cc, v).norm for v in (u, moved))
        assert a > 1e-3 and abs(a - b) <= 1e-12 * max(a, b)
        qa, qb = q_norms(cc, form, np.array([c, c_moved])).tolist()
        assert abs(qa - qb) <= 1e-12 * max(qa, qb)
    # the negative control: a Haar unitary does not commute with rho, and
    # moves u off the cocycles
    g = haar_from_rng(rng, 2)
    with pytest.raises(NotACocycleError):
        obstruction(cc, [g @ x @ g.conj().T for x in u])


@pytest.mark.parametrize("point", ["genus2_red_cc", "degenerate_u3_cc", "sphere4_cc", "torus_cc"])
def test_kernel_cup_is_bitwise_the_list_oracle(point, request):
    # the unit and kernel cochains unstacked in one go each, against one
    # (u, xi) pair of matrix lists per cochain converted to arrays per chunk
    cc = request.getfixturevalue(point)
    want = list_kernel_cup(cc)
    assert want.shape[1] > 0
    assert _same_bits(cc.kernel_cup, want)


@pytest.mark.parametrize("vectors_per_block", [1, 3, None], ids=["block1", "block3", "rule"])
@pytest.mark.parametrize("point", ["sphere4_cc", "degenerate_u3_cc", "genus2_red_cc", "torus_cc"])
def test_cup_form_row_blocks_are_bitwise_the_whole_form(point, vectors_per_block, request):
    # pair products formed in row blocks of vectors, the coordinates written
    # into each word's slice of the form and the block pairs symmetrized in
    # place, against one gemm, one transposed copy and one sum per word; at
    # U(1) (the torus) there is one block whatever the limit
    cc = request.getfixturevalue(point)
    rng = np.random.default_rng(31)
    n, b = cc.rep.rank, 13
    vectors = [([random_skew(rng, n) for _ in range(cc.n_gen)],
                [random_skew(rng, n) for _ in cc.groups]) for _ in range(b)]
    limit = (cohomology._STACK_CACHE_LIMIT if vectors_per_block is None
             else vectors_per_block * b * n * n)
    with mock.patch.object(cohomology, "_STACK_CACHE_LIMIT", limit):
        step = cohomology._row_block(b, n)
        got = cup_form(cc, *pair_arrays(cc, vectors))
    assert step == (b if n == 1 or vectors_per_block is None else vectors_per_block)
    assert _same_bits(got, whole_cup_form(cc, *pair_arrays(cc, vectors)))


@pytest.mark.parametrize("point, blocks", [("genus2_u8_cc", 5), ("torus_cc", 1)])
def test_basis_forms_are_bitwise_the_whole_cup_form(point, blocks, request):
    # the kept form and a cocycle form over the basis, at genus-2 U(8),
    # whose 130 vectors take at least five row blocks under the memory rule,
    # and at the U(1) torus, one block
    cc = request.getfixturevalue(point)
    basis = h1_basis(cc)
    h = len(basis)
    count = -(-h // cohomology._row_block(h, cc.rep.rank))
    assert (count >= blocks) if blocks > 1 else (count == 1)
    umats = np.asarray(basis.vectors, dtype=complex)
    want = whole_cup_form(cc, umats, cc.canonical_xi(umats)[0])
    assert _same_bits(cocycle_form(cc, basis.vectors), want)
    assert _same_bits(cc.basis_form(basis), want)


def test_kernel_cup_without_cone_kernel():
    # one generator pinned by a one-letter relator: the cone differential is
    # injective, so there is no kernel column to pair a unit with
    pres = parse_presentation("group pinned\nrank 2\ngenerators a\nrelator a\n")
    cc = assemble_complex(Representation(pres, [np.eye(2, dtype=complex)]))
    cols = cc.d1_cone.shape[1]
    assert cols > 0 and cc.cone_kernel.shape == (cols, 0)
    assert cc.kernel_cup.shape == (cols, 0, cc.d1_cone.shape[0])


def _cup_working_bytes(cc, b):
    """The bytes a cup form over b vectors works in besides its result and
    its coordinates, by design: the complex pair array (b, b, n, n), one row
    block of pair products, six word stacks (b, k, n, n) at the word of most
    factors k (its Fox terms, their strict prefix sums, the concatenated
    left and right factors and their transposed copies, held at once while
    the factors are built) and the ufunc buffers of numpy (three operands of
    np.getbufsize() doubles)."""
    n = cc.rep.rank
    terms = np.bincount(cc.chain.word, minlength=len(cc.chain.values))
    k = max(terms + 2 * (np.arange(len(terms)) >= cc.n_rel))
    block = cohomology._row_block(b, n) * n * b * n
    return 16 * (b * b * n * n + block + 6 * b * k * n * n) + 3 * 8 * np.getbufsize()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_cup_holds_its_cross_blocks_alone(degenerate_u3_cc):
    # the rescue's cup forms hold the result, one chunk's coordinates of all
    # (2k)^2 pairs and the working arrays of one cup form over the chunk,
    # besides the unit and kernel cochains; a (2k, 2k, target dim) chunk form
    # (1.13 MB here, against a 0.73 MB result) is not among them
    cc = assemble_complex(degenerate_u3_cc.rep)
    cols, kernel = cc.cone_kernel.shape
    b, dim, count = 2 * kernel, cc.d1_cone.shape[0], len(cc.jet_bases)
    cochains = 16 * (cols + kernel + b) * count * cc.q
    bound = 8 * (cols * kernel * dim + b * b * cc.q) + _cup_working_bytes(cc, b) + cochains
    assert _traced_peak(lambda: cc.kernel_cup) <= bound


def test_basis_form_holds_its_working_arrays_alone(genus2_u8_cc):
    # a basis form at genus-2 U(8) (130 vectors, five row blocks) holds the
    # form, into whose word slices the coordinates go, and the working
    # arrays of one cup form, besides two copies of the basis vectors (the
    # stacked vectors and the key the complex keeps the form under); the
    # whole (b n, b n) product of all pairs and its transposed copy are not
    # among them
    cc = assemble_complex(genus2_u8_cc.rep)
    basis = h1_basis(cc)
    h = len(basis)
    vectors = 16 * h * cc.n_gen * cc.q
    bound = 8 * h * h * cc.d1_cone.shape[0] + _cup_working_bytes(cc, h) + 2 * vectors
    assert _traced_peak(lambda: cc.basis_form(basis)) <= bound


def test_pairing_tensor_holds_no_copy_of_the_pair_defects(genus2_u8_cc):
    # on a warm complex (basis form and o2_map built), the pairing reads
    # every pair's O^2 coordinates off the kept form: it peaks under one
    # (target dim, h (h + 1) / 2) float64 set of pair defects (4.4 MB here)
    cc = genus2_u8_cc
    basis = h1_basis(cc)
    pairing_tensor(cc, basis)
    h, dim = len(basis), cc.d1_cone.shape[0]
    assert _traced_peak(lambda: pairing_tensor(cc, basis)) < 8 * dim * h * (h + 1) // 2


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
    form = cup_form(cc, *pair_arrays(cc, [_with_xi(cc, list(v)) for v in basis.vectors]))
    assert not form[:, :, cc.q:].any()
    assert pairing_tensor(cc, basis).verdict == pairing_tensor(
        genus2_irr_cc, h1_basis(genus2_irr_cc)).verdict


# Presentations around the word chain's edge cases: inverse letters, a
# generator four times in one word (so that the order of its terms' adds
# shows), a multi-letter peripheral and a together group; no words at all;
# a relator that reduces to the empty word; a one-letter relator beside a
# two-member together group.
_CHAIN_TEXTS = {
    "mixed": "generators a b c\nrelator a b a' b' c\nrelator c c a'\nrelator a b a c a b' a' c\n"
             "peripheral Pa = a : {angles}\nperipheral Pbc = b c' : {angles}\n"
             "peripheral Pc = c : {angles}\ntogether Pa Pbc\n",
    "free": "generators a b\n",
    "empty_relator": "generators a b\nrelator a a'\nperipheral Pa = a : {angles}\n",
    "one_letter": "generators a b c\nrelator c\nperipheral Pa = a : {angles}\n"
                  "peripheral Pb = b : {angles}\ntogether Pa Pb\n",
}


def _chain_point(name, n, rng):
    angles = ", ".join(f"{k}/{2 * n + 1}" for k in range(n))
    pres = parse_presentation(f"group {name}\nrank {n}\n"
                              + _CHAIN_TEXTS[name].format(angles=angles))
    return Representation(pres, [haar_from_rng(rng, n) for _ in pres.generators])


@pytest.mark.parametrize("name", sorted(_CHAIN_TEXTS))
def test_complex_word_data_is_bitwise_the_per_word_walks(name):
    # the d1 rows and the word values that a complex reads off its one word
    # chain are bitwise those of one walk per word: one per-word transport
    # matrix and one evaluate_word each, at Haar points of U(1) .. U(5)
    rng = np.random.default_rng(97)
    for n in range(1, 6):
        rep = _chain_point(name, n, rng)
        cc = assemble_complex(rep)
        words = list(rep.presentation.relators) + [p.word for p in rep.presentation.peripherals]
        rows = [per_word_transport_matrix(rep, w) for w in words]
        unprojected = np.vstack(rows) if rows else np.zeros((0, cc.n_gen * cc.q))
        assert cc.d1_cone[:, :cc.n_gen * cc.q].tobytes() == unprojected.tobytes()
        assert cc.d1_par.tobytes() == cc.project_peripheral(unprojected).tobytes()
        assert len(cc.per_rows) == cc.n_per
        for got, want in zip(cc.per_rows, rows[cc.n_rel:]):
            assert got.tobytes() == want.tobytes()
        values = np.array([evaluate_word(rep, w) for w in words], dtype=complex).reshape(-1, n, n)
        assert cc.word_values_h.tobytes() == values.conj().swapaxes(1, 2).tobytes()
        assert np.array(cc.periph_values).tobytes() == values[cc.n_rel:].tobytes()


def test_complex_walks_each_word_once(sphere4_rep, monkeypatch):
    # assembling a complex walks every constraint word once, in one word
    # chain, and makes one transport_matrix call; Q, the pairing, the probe
    # and the cone-kernel cup form then read that chain and walk no word
    calls = {}
    for module, name in ((cohomology, "_word_chain"), (repspace, "_word_chain"),
                         (cohomology, "word_transport_terms"),
                         (repspace, "word_transport_terms"), (repspace, "evaluate_word"),
                         (cohomology, "transport_matrix")):
        seen = calls.setdefault(name, [])
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, seen=seen, original=original:
                            seen.append(1) or original(*args))
    cc = assemble_complex(sphere4_rep)
    words = len(sphere4_rep.presentation.relators) + len(sphere4_rep.presentation.peripherals)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "_word_chain": 1, "word_transport_terms": words, "evaluate_word": 0,
        "transport_matrix": 1}
    for seen in calls.values():
        seen.clear()
    basis = h1_basis(cc)
    pairing_tensor(cc, basis)
    probe_cone(cc, basis, samples=10, order=4)
    obstruction(cc, basis.vectors[0])
    assert cc.kernel_cup.shape[1] == cc.cone_kernel.shape[1] > 0
    assert all(not seen for seen in calls.values())


def test_kept_basis_form_is_read_only(genus2_irr):
    # the form a complex keeps for its basis is what the next call reads, so
    # no caller may write into it; a form built directly is the caller's own
    cc = assemble_complex(genus2_irr)
    basis = h1_basis(cc)
    for form in (cc.basis_form(basis), cc.basis_form(basis)):
        with pytest.raises(ValueError):
            form[0, 0, 0] = 1.0
    cocycle_form(cc, basis.vectors)[0, 0, 0] = 1.0


def test_kept_basis_form_leaves_complex_acyclic(genus2_red):
    # the complex keeps its basis form as a plain array, which holds no
    # reference back to it, so a dropped complex is freed at once, not by
    # the cycle collector
    cc = assemble_complex(genus2_red)
    basis = h1_basis(cc)
    pairing_tensor(cc, basis)
    probe_cone(cc, basis, samples=4, order=3, seed=1)
    gone = weakref.ref(cc)
    gc.disable()
    try:
        del cc
        assert gone() is None
    finally:
        gc.enable()
