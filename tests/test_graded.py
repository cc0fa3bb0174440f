"""Graded equivalence: results of the cohomology and jet layers at a fixed
set of points, against a record made at an earlier tree.

A rewrite that reassociates sums moves results by rounding, so they are
compared by grade, not bit by bit:

* integers exactly: every integer field of h_dims, the pairing verdict, the
  achieved orders of the lifts of the first three tangent basis vectors to
  order 4, and the contingency counts of probes (8 samples to order 4 at
  seed 0 at every point with a tangent space; at the degenerate U(3) rung
  also the 12 probes, 20 samples to order 5, that the probe_mix benchmark
  workload runs there at its seeds 1, 3 and 13, four draws each);
* Q by basis-invariant data: the singular values of the (h^2, o2) matrix of
  pairing coordinates, which an orthogonal change of the h1 basis or of O^2
  keeps, each within SPECTRUM_RTOL * max(1, scale), where scale is the
  largest raw pairing defect |D(u_i, u_j)| in the record.

The tolerances come from measured rounding spreads: over 40 random
orthogonal rotations of the h1 basis per point (one BLAS thread), the
spectrum moved by at most 1.8e-15 * max(1, scale) at the regular points
(genus2_reducible the largest) and by 9.6e-12 * max(1, scale) at the
degenerate U(3) rung, whose Q is rounding (scale 1.75e5 there).  They are
about five times those spreads.

The record is graded_record.json next to this file.  Running this file as
a script rewrites it from the tree it runs on:

    PYTHONPATH=src python tests/test_graded.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repvar import corpus, jets
from repvar.cohomology import h1_basis, pairing_tensor

RECORD = Path(__file__).with_name("graded_record.json")

# the recorded points, by the session fixture that builds each complex; the
# direct sums come from the direct_sum_cc fixture
FIXTURES = {"torus_puncture": "torus_cc", "genus2_irr": "genus2_irr_cc",
            "genus2_reducible": "genus2_red_cc", "sphere3": "sphere3_cc",
            "sphere4": "sphere4_cc", "degenerate_u3": "degenerate_u3_cc",
            "u2+u1": None, "u2+u2": None}

SPECTRUM_RTOL = {"degenerate_u3": 5e-11}
DEFAULT_SPECTRUM_RTOL = 1e-14

PROBE_COUNTS = ("cone_success", "cone_fail_order2", "cone_fail_later", "noncone_fail_order2",
                "noncone_past_order2", "budget_exceeded")


def _counts(report) -> dict:
    return {name: getattr(report, name) for name in PROBE_COUNTS}


def measure(cc, probe_seeds=()) -> dict:
    """The graded results at one complex; probe_seeds are the seeds of the
    extra 20-sample, order-5 probes."""
    basis = h1_basis(cc)
    h = len(basis)
    tensor = pairing_tensor(cc, basis)
    coords = np.zeros((h, h, basis.dims.o2))
    for (i, j), entry in tensor.entries.items():
        coords[i, j] = coords[j, i] = entry.coordinates
    spectrum = np.linalg.svd(coords.reshape(h * h, -1), compute_uv=False) if h else []
    form = cc.basis_form(basis)
    return {
        "dims": {k: v for k, v in basis.dims.to_json().items() if k != "rank_gaps"},
        "verdict": tensor.verdict,
        "spectrum": [float(s) for s in spectrum],
        "scale": float(np.linalg.norm(form, axis=-1).max(initial=0.0)),
        "lift_orders": [jets.lift(cc, v, 4).achieved_order for v in basis.vectors[:3]],
        "probe": _counts(jets.probe_cone(cc, basis, samples=8, order=4, seed=0)) if h else None,
        "probe_mix": [{"seed": s, "counts": _counts(jets.probe_cone(cc, basis, samples=20,
                                                                    order=5, seed=s))}
                      for s in probe_seeds],
    }


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_graded_equivalence_with_record(name, request):
    want = json.loads(RECORD.read_text())[name]
    fixture = FIXTURES[name]
    cc = (request.getfixturevalue(fixture) if fixture
          else request.getfixturevalue("direct_sum_cc")(name))
    got = measure(cc, [p["seed"] for p in want["probe_mix"]])
    for key in ("dims", "verdict", "lift_orders", "probe", "probe_mix"):
        assert got[key] == want[key], key
    tol = SPECTRUM_RTOL.get(name, DEFAULT_SPECTRUM_RTOL) * max(1.0, want["scale"])
    assert len(got["spectrum"]) == len(want["spectrum"])
    assert np.all(np.abs(np.subtract(got["spectrum"], want["spectrum"])) <= tol), (
        got["spectrum"], want["spectrum"], tol)


def _write() -> None:
    import sys

    import conftest
    from oracles import genus2_direct_sum
    from repvar.cohomology import assemble_complex

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.instances import derive_seed

    reps = {"torus_puncture": corpus.torus_puncture_representation(),
            "genus2_irr": conftest.genus2_irreducible(corpus.load("genus2")),
            "genus2_reducible": corpus.genus2_reducible(),
            "sphere3": conftest.sphere_point(corpus.load("sphere3")),
            "sphere4": conftest.sphere_point(corpus.load("sphere4")),
            "degenerate_u3": conftest.degenerate_u3()}
    reps.update((name, genus2_direct_sum(conftest.DIRECT_SUMS[name][0]))
                for name in FIXTURES if FIXTURES[name] is None)
    # the probe_mix workload's draws at the degenerate rung
    seeds = [derive_seed(seed, "probe", "sphere4_u3_degenerate", k) % 2 ** 31
             for seed in (1, 3, 13) for k in range(4)]
    record = {name: measure(assemble_complex(reps[name]),
                            seeds if name == "degenerate_u3" else ())
              for name in sorted(FIXTURES)}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    _write()
