import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repvar import cli, cohomology
from repvar.repspace import Representation, rep_to_json
from repvar.unitary import exponential, matrix_to_json

from conftest import CORPUS_DIR

GENUS2 = str(CORPUS_DIR / "genus2.grp")
SPHERE4 = str(CORPUS_DIR / "sphere4.grp")
TORUS = str(CORPUS_DIR / "torus_puncture.grp")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repvar", *args],
        capture_output=True, text=True,
    )


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory, genus2_irr, genus2_red, sphere4_rep,
              genus2_irr_cc, genus2_red_cc):
    root = tmp_path_factory.mktemp("cli")

    def dump(name, payload):
        path = root / name
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return str(path)

    basis_irr = cohomology.h1_basis(genus2_irr_cc)
    basis_red = cohomology.h1_basis(genus2_red_cc)
    obstructed = next(
        v for v in basis_red.vectors
        if cohomology.obstruction(genus2_red_cc, v).norm > 1e-3
    )

    def cochain(vec, pres):
        return {
            "generator_part": {
                name: matrix_to_json(m) for name, m in zip(pres.generators, vec)
            },
            "conjugator_part": {},
        }

    nan_rep = rep_to_json(genus2_irr)
    nan_rep["generators"]["a"][0][0]["re"] = float("nan")
    huge_rep = rep_to_json(genus2_irr)
    huge_rep["generators"]["a"][0][0]["re"] = 1e300
    scaled_rep = rep_to_json(genus2_irr)
    scaled_rep["generators"]["b"][1][1]["re"] = 3.0

    # 1e-8 away from genus2_reducible, still unitary: the d0 rank cut is ambiguous
    e = exponential(1e-8 * np.array([[0, 1], [-1, 0]], dtype=complex))
    mats = list(genus2_red.matrices)
    mats[0] = e @ mats[0] @ e.conj().T @ exponential(1e-8 * np.array([[0, 1j], [1j, 0]]))
    ill = Representation(genus2_red.presentation, mats, genus2_red.tolerance)

    nan_angle = root / "nan_angle.grp"
    nan_angle.write_text(Path(SPHERE4).read_text().replace("1/5", "nan"))

    return {
        "genus2_irr": dump("genus2_irr.json", rep_to_json(genus2_irr)),
        "list_rep": dump("list_rep.json", [rep_to_json(genus2_irr)]),
        "null_rank_rep": dump("null_rank_rep.json", {**rep_to_json(genus2_irr), "N": None}),
        "null_tolerance_rep": dump("null_tolerance_rep.json",
                                   {**rep_to_json(genus2_irr), "tolerance": None}),
        "unwritable_out": str(root / "no_such_dir" / "rep.json"),
        "nan_rep": dump("nan_rep.json", nan_rep),
        "huge_rep": dump("huge_rep.json", huge_rep),
        "scaled_rep": dump("scaled_rep.json", scaled_rep),
        "ill_conditioned": dump("ill_conditioned.json", rep_to_json(ill)),
        "genus2_red": dump("genus2_red.json", rep_to_json(genus2_red)),
        "sphere4": dump("sphere4.json", rep_to_json(sphere4_rep)),
        "cocycle_irr": dump(
            "cocycle_irr.json", cochain(basis_irr.vectors[0], genus2_irr.presentation)),
        "cocycle_red": dump(
            "cocycle_red.json", cochain(obstructed, genus2_red.presentation)),
        "bad_cochain": dump(
            "bad_cochain.json",
            cochain([np.diag([1j, 2j]), np.diag([3j, 0]), np.zeros((2, 2)),
                     np.diag([0, 1j])], genus2_irr.presentation)),
        "small_cochain": dump(
            "small_cochain.json", cochain([np.zeros((1, 1))] * 4, genus2_irr.presentation)),
        "hermitian_cochain": dump(
            "hermitian_cochain.json",
            cochain([1j * m for m in basis_irr.vectors[0]], genus2_irr.presentation)),
        "list_cochain": dump("list_cochain.json", {"generator_part": ["a", "b", "c", "d"]}),
        "string_cochain": dump("string_cochain.json", {"generator_part": "abcd"}),
        "nan_angle_grp": str(nan_angle),
    }


def test_validate_echo():
    out = run_cli("validate", TORUS)
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["verb"] == "validate"
    assert "peripheral boundary = a b a' b' : 0" in report["normalized"]


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("group g\nrank 1\ngenerators a\nrelator a x\n")
    out = run_cli("validate", str(bad))
    assert out.returncode == 1
    assert "unknown generator" in out.stderr


def test_missing_file_is_input_error():
    out = run_cli("validate", "/nonexistent/file.grp")
    assert out.returncode == 1


def test_usage_error_exit_1():
    out = run_cli("find", SPHERE4, "--frobnicate")
    assert out.returncode == 1
    assert "frobnicate" in out.stderr


BAD_INPUTS = {
    "nan_entry_check": ("check", GENUS2, "nan_rep"),
    "nan_entry_tangent": ("tangent", GENUS2, "nan_rep"),
    "not_unitary_huge_check": ("check", GENUS2, "huge_rep"),
    "not_unitary_huge_tangent": ("tangent", GENUS2, "huge_rep"),
    "not_unitary_huge_probe": ("probe", GENUS2, "huge_rep", "--samples", "2"),
    "not_unitary_three_pairing": ("pairing", GENUS2, "scaled_rep"),
    "cochain_wrong_shape": ("obstruct", GENUS2, "genus2_irr", "small_cochain"),
    "cochain_not_skew_obstruct": ("obstruct", GENUS2, "genus2_irr", "hermitian_cochain"),
    "cochain_not_skew_lift": ("lift", GENUS2, "genus2_irr", "hermitian_cochain"),
    "cochain_part_list_obstruct": ("obstruct", SPHERE4, "sphere4", "list_cochain"),
    "cochain_part_list_lift": ("lift", SPHERE4, "sphere4", "list_cochain"),
    "cochain_part_string_obstruct": ("obstruct", SPHERE4, "sphere4", "string_cochain"),
    "angle_nan_find": ("find", "nan_angle_grp"),
    "samples_negative": ("probe", GENUS2, "genus2_red", "--samples", "-3"),
    "attempts_zero": ("find", SPHERE4, "--attempts", "0"),
    "order_zero": ("lift", GENUS2, "genus2_irr", "cocycle_irr", "--order", "0"),
    "probe_order_one": ("probe", GENUS2, "genus2_red", "--samples", "2", "--order", "1"),
    "budget_negative": ("lift", GENUS2, "genus2_irr", "cocycle_irr", "--budget", "-1"),
    "rank_tol_nan": ("tangent", GENUS2, "genus2_irr", "--rank-tol", "nan"),
    "rank_tol_one": ("tangent", GENUS2, "genus2_irr", "--rank-tol", "1"),
    "tol_nan_lift": ("lift", GENUS2, "genus2_red", "cocycle_red", "--order", "3", "--tol", "nan"),
    "tol_zero_probe": ("probe", GENUS2, "genus2_red", "--samples", "2", "--tol", "0"),
    "tol_negative_pairing": ("pairing", GENUS2, "genus2_irr", "--tol=-1e-8"),
    "tol_inf_find": ("find", SPHERE4, "--tol", "inf"),
    "tol_nan_check": ("check", GENUS2, "genus2_irr", "--tol", "nan"),
    "rep_json_list": ("check", GENUS2, "list_rep"),
    "rep_rank_null": ("check", GENUS2, "null_rank_rep"),
    "rep_tolerance_null": ("check", GENUS2, "null_tolerance_rep"),
    "find_out_unwritable": ("find", SPHERE4, "--seed", "1", "--out", "unwritable_out"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print a second line
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_1(case, cli_files, capsys):
    argv = [cli_files.get(a, a) for a in BAD_INPUTS[case]]  # cli_files keys name files
    try:
        code = cli.run(argv)
    except SystemExit as exc:  # argparse rejects flags through _Parser.error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_find_out_unwritable_fails_before_search(cli_files, monkeypatch, capsys):
    monkeypatch.setattr(cli, "find_representation",
                        lambda *args, **kwargs: pytest.fail("the search ran"))
    assert cli.run(["find", SPHERE4, "--out", cli_files["unwritable_out"]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("repvar: error: cannot write ")


@pytest.mark.parametrize("verb", ["tangent", "pairing"])
def test_ill_conditioned_exit_2(verb, cli_files, capsys):
    code = cli.run([verb, GENUS2, cli_files["ill_conditioned"]])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    report = json.loads(out)  # one JSON report
    assert report["candidates"] == [2, 3]
    assert "d0_generator: ambiguous rank" in report["error"]


@pytest.mark.parametrize("verb", ["check", "tangent", "pairing", "probe"])
def test_rank_tol_below_rounding_floor_exit_2(verb, cli_files, capsys):
    # 1e-20 is inside (0, 1) but below the SVD rounding floor: no rank cut
    # can be trusted, so the verb reports the ambiguity instead of a result
    code = cli.run([verb, SPHERE4, cli_files["sphere4"], "--rank-tol", "1e-20"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    report = json.loads(out)
    assert "ambiguous rank" in report["error"]
    assert len(report["candidates"]) == 2


def test_find_unreachable_tol_exit_2(capsys):
    # a tiny tolerance is valid input: the search runs and finds nothing
    assert cli.run(["find", SPHERE4, "--tol", "1e-30", "--attempts", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_find_and_check(tmp_path):
    rep_path = tmp_path / "rep.json"
    out = run_cli("find", SPHERE4, "--seed", "1", "--out", str(rep_path))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["found"] is True
    assert report["max_residual"] <= 1e-10
    assert rep_path.exists()

    check = run_cli("check", SPHERE4, str(rep_path))
    assert check.returncode == 0
    data = json.loads(check.stdout)
    assert data["valid"] is True
    assert data["irreducible"] is True


def test_check_accepts_find_envelope(tmp_path):
    out = run_cli("find", SPHERE4, "--seed", "1")
    envelope = tmp_path / "envelope.json"
    envelope.write_text(out.stdout)
    check = run_cli("check", SPHERE4, str(envelope))
    assert check.returncode == 0
    assert json.loads(check.stdout)["valid"] is True


def test_validate_reports_warnings(tmp_path):
    path = tmp_path / "warn.grp"
    path.write_text("group w\nrank 1\ngenerators a\nrelator a a'\n")
    out = run_cli("validate", str(path))
    assert out.returncode == 0
    warnings = json.loads(out.stdout)["warnings"]
    assert warnings and "empty" in warnings[0]


def test_find_not_found(tmp_path):
    bad = tmp_path / "infeasible.grp"
    bad.write_text(
        "group infeasible\nrank 1\ngenerators a b\nperipheral P = a b a' b' : 1/2\n"
    )
    out = run_cli("find", str(bad), "--attempts", "3")
    assert out.returncode == 2
    assert json.loads(out.stdout)["found"] is False


def test_check_rejects_mismatched_rep(cli_files):
    out = run_cli("check", SPHERE4, cli_files["genus2_irr"])
    assert out.returncode == 1


def test_check_invalid_rep_exit_2(tmp_path, sphere4_pres):
    from repvar.repspace import Representation

    trivial = Representation(sphere4_pres, [np.eye(2)] * 4, 1e-10)
    path = tmp_path / "bad_rep.json"
    path.write_text(json.dumps(rep_to_json(trivial)))
    out = run_cli("check", SPHERE4, str(path))
    assert out.returncode == 2
    assert json.loads(out.stdout)["valid"] is False


def test_tangent_reports_h1(cli_files):
    out = run_cli("tangent", GENUS2, cli_files["genus2_irr"])
    assert out.returncode == 0
    assert '"h1_par": 10' in out.stdout
    report = json.loads(out.stdout)
    assert len(report["basis"]) == 10
    assert report["dims"]["o2"] == 1


def test_pairing_verdicts(cli_files):
    smooth = json.loads(run_cli("pairing", GENUS2, cli_files["genus2_irr"]).stdout)
    assert smooth["verdict"] is True
    assert smooth["smooth_by_cup_product_criterion"] is True
    singular = json.loads(run_cli("pairing", GENUS2, cli_files["genus2_red"]).stdout)
    assert singular["verdict"] is False
    assert singular["max_norm"] > 1e-3


def test_obstruct_verb(cli_files):
    out = run_cli("obstruct", GENUS2, cli_files["genus2_red"], cli_files["cocycle_red"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["obstruction"]["norm"] > 1e-3


def test_obstruct_rejects_non_cocycle(cli_files):
    out = run_cli("obstruct", GENUS2, cli_files["genus2_irr"], cli_files["bad_cochain"])
    assert out.returncode == 1
    assert "cocycle" in out.stderr


def test_lift_success_and_failure(cli_files):
    ok = run_cli("lift", GENUS2, cli_files["genus2_irr"], cli_files["cocycle_irr"],
                 "--order", "6")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)["report"]
    assert report["achieved_order"] == 6
    assert report["obstruction"] is None
    assert report["budget_exceeded"] is False

    bad = run_cli("lift", GENUS2, cli_files["genus2_red"], cli_files["cocycle_red"],
                  "--order", "4")
    assert bad.returncode == 2
    report = json.loads(bad.stdout)["report"]
    assert report["achieved_order"] == 1
    assert report["obstruction"] is not None


def test_probe_reducible(cli_files):
    out = run_cli("probe", GENUS2, cli_files["genus2_red"],
                  "--samples", "20", "--order", "4", "--seed", "7")
    assert out.returncode == 0
    report = json.loads(out.stdout)["report"]
    assert report["prediction_holds"] is True
    assert report["contingency"]["noncone"]["failure"] == 20
    assert report["budget_exceeded"] == 0


def test_reports_embed_configuration(cli_files):
    out = run_cli("probe", GENUS2, cli_files["genus2_red"],
                  "--samples", "5", "--order", "3", "--seed", "2")
    cfg = json.loads(out.stdout)["config"]
    for key in ("samples", "order", "seed", "tol", "budget", "rank_threshold", "format"):
        assert key in cfg


def test_text_format(cli_files):
    out = run_cli("check", GENUS2, cli_files["genus2_irr"], "--format", "text")
    assert out.returncode == 0
    assert "commutant_dimension: 1" in out.stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.stdout)
