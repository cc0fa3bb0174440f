"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import subprocess
import sys

import numpy as np

from repvar import repspace
from repvar.cohomology import (
    assemble_complex,
    coboundary,
    common_obstruction,
    h1_basis,
    h_dims,
    obstruction,
    pairing_tensor,
)
from repvar.jets import lift, probe_cone
from repvar.repspace import commutant_dimension, constraint_residual, perturb, refine
from repvar.unitary import random_skew, vec_skew

from conftest import CORPUS_DIR, random_cocycle
from oracles import fd_h1_par


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


def test_c01_abelian_ground_truth(torus_cc):
    dims = h_dims(torus_cc)
    assert dims.h1_par == 2
    assert dims.o2 == 1
    basis = h1_basis(torus_cc)
    tensor = pairing_tensor(torus_cc, basis)
    assert tensor.verdict, "expected the smooth verdict"
    worst = 0.0
    for child in np.random.SeedSequence(101).spawn(50):
        rng = np.random.default_rng(child)
        u = random_cocycle(torus_cc, basis, rng)
        result = lift(torus_cc, u, 10)
        assert result.succeeded and result.achieved_order == 10
        worst = max(worst, max(result.residuals))
    assert worst <= 1e-11
    probe = probe_cone(torus_cc, basis, samples=50, order=10, seed=101)
    assert probe.cone_success == 50
    report(f"C1 abelian ground truth (h1_par=2, o2=1, smooth, 50 lifts to order 10, "
           f"worst residual {worst:.1e})")


def test_c02_dimension_oracle_agreement(genus2_irr, sphere3_rep, sphere4_rep):
    expected = {"genus2 irreducible": (genus2_irr, 10),
                "3-punctured sphere": (sphere3_rep, 0),
                "4-punctured sphere": (sphere4_rep, 2)}
    for name, (rep, want) in expected.items():
        fox = h_dims(assemble_complex(rep)).h1_par
        fd = fd_h1_par(rep, eps=1e-6, threshold=1e-5)
        assert fox == fd == want, (name, fox, fd, want)
    report("C2 dimension oracle agreement (Fox = finite-difference = 10, 0, 2)")


def test_c03_cone_complex_identity(corpus_points):
    checked = []
    for name, rep in corpus_points.items():
        if not rep.presentation.peripherals or commutant_dimension(rep) != 1:
            continue
        cc = assemble_complex(rep)
        dims = h_dims(cc)
        ker_sum = sum(gd.nullspace.shape[1] for gd in cc.group_data)
        assert dims.h1_cone - dims.h1_par == ker_sum - dims.c0, name
        checked.append(name)
    assert checked
    report(f"C3 cone-complex identity on {sorted(checked)}")


def test_c04_obstruction_oracle_equivalence(corpus_points):
    rng = np.random.default_rng(104)
    sampled = 0
    failures = 0
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        basis = h1_basis(cc)
        if len(basis) == 0:
            continue
        for _ in range(50):
            u = random_cocycle(cc, basis, rng)
            unorm = float(np.linalg.norm(np.concatenate([vec_skew(m) for m in u])))
            q = obstruction(cc, u)
            result = lift(cc, u, 2)
            small = q.norm <= 1e-7 * unorm ** 2
            assert small == result.succeeded, (name, q.norm, result.residuals)
            if not result.succeeded:
                failures += 1
                gap = np.linalg.norm(q.coordinates - result.obstruction.coordinates)
                assert gap <= 1e-8, (name, gap)
            sampled += 1
    assert sampled >= 200
    assert failures > 0
    report(f"C4 obstruction oracle equivalence ({sampled} samples, "
           f"{failures} obstructed, coordinates agree)")


def test_c05_quadraticity_probe(genus2_red_cc):
    basis = h1_basis(genus2_red_cc)
    probe = probe_cone(genus2_red_cc, basis, samples=100, order=4, seed=7)
    assert probe.cone_fail_order2 == 0
    assert probe.noncone_past_order2 == 0
    assert probe.prediction_holds
    assert probe.budget_exceeded == 0
    report(f"C5 quadraticity probe at the reducible point "
           f"(contingency {probe.contingency()}, budget_exceeded=0)")


def test_c06_smoothness_criterion(genus2_irr_cc, genus2_red_cc):
    basis = h1_basis(genus2_irr_cc)
    tensor = pairing_tensor(genus2_irr_cc, basis)
    assert tensor.verdict
    assert tensor.max_norm() <= 1e-9
    for v in basis.vectors:
        result = lift(genus2_irr_cc, v, 6)
        assert result.succeeded and result.achieved_order == 6
    red_tensor = pairing_tensor(genus2_red_cc, h1_basis(genus2_red_cc))
    assert not red_tensor.verdict
    assert red_tensor.max_norm() > 1e-3
    report(f"C6 smoothness criterion (irreducible: entries <= {tensor.max_norm():.1e}, "
           f"all 10 basis vectors lift to 6; reducible: max entry "
           f"{red_tensor.max_norm():.2e})")


def test_c07_gauge_and_scaling_laws(corpus_points):
    rng = np.random.default_rng(107)
    instances = 0
    worst_gauge = worst_scale = 0.0
    for name, rep in corpus_points.items():
        cc = assemble_complex(rep)
        basis = h1_basis(cc)
        if len(basis) == 0:
            continue
        for _ in range(25):
            u = random_cocycle(cc, basis, rng)
            x = random_skew(rng, rep.rank, 0.6)
            shifted = [a + b for a, b in zip(u, coboundary(rep, x).generator_part)]
            qu, qshift, q2 = common_obstruction(cc, [u, shifted, [2 * m for m in u]])
            worst_gauge = max(worst_gauge, float(
                np.linalg.norm(qu.coordinates - qshift.coordinates)))
            worst_scale = max(worst_scale, float(
                np.linalg.norm(q2.coordinates - 4 * qu.coordinates)))
            instances += 1
    assert instances >= 100
    assert worst_gauge <= 1e-8
    assert worst_scale <= 1e-9
    report(f"C7 gauge and scaling laws ({instances} instances, gauge gap "
           f"{worst_gauge:.1e}, scaling gap {worst_scale:.1e})")


def test_c08_refinement_contract(sphere4_rep):
    successes = 0
    for s in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([108, s]))
        start = perturb(sphere4_rep, rng, 1e-2)
        try:
            refined = refine(start, max_iterations=8, target_tolerance=1e-12)
        except repspace.NoConvergenceError:
            continue
        if constraint_residual(refined).max <= 1e-12:
            successes += 1
    assert successes >= 95
    report(f"C8 refinement contract ({successes}/100 perturbed starts recovered "
           f"to 1e-12 within 8 iterations)")


def test_c09_cli_determinism(tmp_path, genus2_irr, genus2_red, genus2_irr_cc):
    genus2 = str(CORPUS_DIR / "genus2.grp")
    irr_path = tmp_path / "irr.json"
    irr_path.write_text(json.dumps(repspace.rep_to_json(genus2_irr), sort_keys=True))
    red_path = tmp_path / "red.json"
    red_path.write_text(json.dumps(repspace.rep_to_json(genus2_red), sort_keys=True))
    from repvar.unitary import matrix_to_json

    basis = h1_basis(genus2_irr_cc)
    cocycle_path = tmp_path / "cocycle.json"
    cocycle_path.write_text(json.dumps({
        "generator_part": {
            name: matrix_to_json(m)
            for name, m in zip(genus2_irr.presentation.generators, basis.vectors[0])
        },
        "conjugator_part": {},
    }))
    commands = [
        ("validate", genus2),
        ("find", str(CORPUS_DIR / "sphere4.grp"), "--seed", "1"),
        ("check", genus2, str(irr_path)),
        ("tangent", genus2, str(irr_path)),
        ("pairing", genus2, str(red_path)),
        ("obstruct", genus2, str(irr_path), str(cocycle_path)),
        ("lift", genus2, str(irr_path), str(cocycle_path), "--order", "4"),
        ("probe", genus2, str(red_path), "--samples", "10", "--order", "3", "--seed", "5"),
    ]
    for cmd in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "repvar", *cmd],
                           capture_output=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, cmd[0]
        assert runs[0].returncode == runs[1].returncode, cmd[0]
    report("C9 CLI determinism (all 8 verbs byte-identical across repeat runs)")


def test_c10_parity_check(corpus_points):
    checked = []
    for name, rep in corpus_points.items():
        if commutant_dimension(rep) != 1:
            continue
        h1 = h_dims(assemble_complex(rep)).h1_par
        assert h1 % 2 == 0, (name, h1)
        checked.append((name, h1))
    assert checked
    report(f"C10 parity check (h1_par even at irreducible points: {sorted(checked)})")


def test_readme_sketch_runs():
    # the one documented library path: the README's python block, run as
    # written, prints what its comments state
    readme = (CORPUS_DIR.parent / "README.md").read_text(encoding="utf-8")
    source = readme.split("```python\n", 1)[1].split("```", 1)[0]
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", source],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    dims, verdict, lifted = run.stdout.splitlines()
    assert "h1_par=10," in dims and "o2=1," in dims, dims
    assert verdict == "True"
    assert lifted.split()[0] == "6", lifted
    report("README sketch (h1_par=10, o2=1, smooth verdict, lift to order 6)")
