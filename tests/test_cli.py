import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repvar import cli, cohomology, corpus, repspace
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
              genus2_irr_cc, genus2_red_cc, sphere4_cc):
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
    # a JSON integer past the float range, and JSON booleans, as entry parts
    huge_int_entry_rep = rep_to_json(genus2_irr)
    huge_int_entry_rep["generators"]["a"][0][0]["re"] = 10 ** 400
    huge_int_entry_cochain = cochain(basis_irr.vectors[0], genus2_irr.presentation)
    huge_int_entry_cochain["generator_part"]["a"][0][1]["im"] = 10 ** 400
    bool_entries_rep = rep_to_json(corpus.torus_puncture_representation())
    for m in bool_entries_rep["generators"].values():
        for row in m:
            for entry in row:
                entry.update(re=True, im=False)  # read as 1 + 0i, it would be valid

    # 1e-8 away from genus2_reducible, still unitary: the d0 rank cut is ambiguous
    e = exponential(1e-8 * np.array([[0, 1], [-1, 0]], dtype=complex))
    mats = list(genus2_red.matrices)
    mats[0] = e @ mats[0] @ e.conj().T @ exponential(1e-8 * np.array([[0, 1j], [1j, 0]]))
    ill = Representation(genus2_red.presentation, mats, genus2_red.tolerance)

    nan_angle = root / "nan_angle.grp"
    nan_angle.write_text(Path(SPHERE4).read_text().replace("1/5", "nan"))

    def write(name, data: bytes):
        path = root / name
        path.write_bytes(data)
        return str(path)

    # an N past Python's 4,300-digit limit on integer literals
    long_rank = json.dumps({**rep_to_json(genus2_irr), "N": "N"}).replace('"N": "N"',
                                                                         '"N": ' + "9" * 5000)

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
        "huge_int_entry_rep": dump("huge_int_entry_rep.json", huge_int_entry_rep),
        "huge_int_entry_cochain": dump("huge_int_entry_cochain.json", huge_int_entry_cochain),
        "bool_entries_rep": dump("bool_entries_rep.json", bool_entries_rep),
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
        **{f"{key}_grp": write(f"{key}.grp", text.encode()) for key, text in (
            ("rank_zero", "group g\nrank 0\ngenerators a\n"),
            ("rank_negative", "group g\nrank -2\ngenerators a\n"),
            ("empty_peripheral", "group g\nrank 2\ngenerators a\nperipheral P = a a' : 1/3, -1/3\n"))},
        "non_utf8_grp": write("non_utf8.grp", b"\xff\xfe bad"),
        "non_utf8_rep": write("non_utf8_rep.json", b"\xff\xfe{}"),
        "long_int_rank_rep": write("long_int_rank_rep.json", long_rank.encode()),
        "deep_json_rep": write("deep_json_rep.json", b"[" * 100000),
        # an N of 4,000 digits, inside the digit limit, and so read
        "huge_rank_rep": dump("huge_rank_rep.json", {**rep_to_json(genus2_irr), "N": 10 ** 3999}),
        "long_name_rep": dump("long_name_rep.json",
                              {**rep_to_json(genus2_irr), "presentation": "g" * 5000}),
        **{f"rank_{rank}_grp": write(f"rank_{rank}.grp", f"group g\nrank {rank}\ngenerators a\n"
                                     .encode()) for rank in (10 ** 20, 3 * 10 ** 9)},
        **{f"cocycle_{scale:g}": dump(
            f"cocycle_{scale:g}.json",
            cochain([scale * m for m in cohomology.h1_basis(sphere4_cc).vectors[0]],
                    sphere4_rep.presentation)) for scale in (1, 1e150, 1e200)},
        **{f"{key}_rep": dump(f"{key}_rep.json", {**rep_to_json(genus2_irr), field: value})
           for key, field, value in (
               ("nan_tolerance", "tolerance", float("nan")),
               ("inf_tolerance", "tolerance", float("inf")),
               ("zero_tolerance", "tolerance", 0),
               ("negative_tolerance", "tolerance", -1),
               ("string_tolerance", "tolerance", "1e-8"),
               ("bool_tolerance", "tolerance", True),
               ("huge_int_tolerance", "tolerance", 10 ** 400),
               ("fractional_rank", "N", 2.7),
               ("string_rank", "N", "2"))},
        # true == 1, the rank of the punctured torus
        "bool_rank_rep": dump("bool_rank_rep.json",
                              {**rep_to_json(corpus.torus_puncture_representation()), "N": True}),
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


# A fresh interpreter in which every import of scipy fails: the library and
# each verb, run through cli.run, must do without it.
WITHOUT_SCIPY = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} blocked")

sys.meta_path.insert(0, BlockScipy())
import numpy as np
from repvar import cli, exponential, principal_log

x = np.array([[0.5j, 0.2], [-0.2, -0.1j]])
log_error = float(np.linalg.norm(principal_log(exponential(x)) - x))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(json.dumps({"log_error": log_error, "codes": codes}))
"""


def test_library_and_verbs_run_without_scipy(cli_files):
    verbs = [
        ["validate", SPHERE4],
        ["find", SPHERE4, "--seed", "1"],
        ["check", GENUS2, cli_files["genus2_irr"]],
        ["tangent", GENUS2, cli_files["genus2_irr"]],
        ["pairing", GENUS2, cli_files["genus2_red"]],
        ["obstruct", GENUS2, cli_files["genus2_red"], cli_files["cocycle_red"]],
        ["lift", GENUS2, cli_files["genus2_irr"], cli_files["cocycle_irr"], "--order", "4"],
        ["probe", GENUS2, cli_files["genus2_red"], "--samples", "5", "--order", "3", "--seed", "2"],
    ]
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(verbs)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["log_error"] <= 1e-13
    assert result["codes"] == [0] * len(verbs)


# A fresh interpreter with scipy importable: no verb, run through cli.run,
# may load it.
SCIPY_LOADED = """
import contextlib, io, json, sys
from repvar import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def test_verbs_leave_scipy_unloaded(cli_files):
    point = [SPHERE4, cli_files["sphere4"]]
    verbs = [["validate", SPHERE4], ["find", SPHERE4, "--seed", "1"], ["check", *point],
             ["tangent", *point], ["pairing", *point],
             ["obstruct", *point, cli_files["cocycle_1"]],
             ["lift", *point, cli_files["cocycle_1"], "--order", "4"],
             ["probe", *point, "--samples", "5", "--order", "3", "--seed", "2"]]
    out = subprocess.run([sys.executable, "-c", SCIPY_LOADED, json.dumps(verbs)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"codes": [0] * len(verbs), "scipy": False}


# A fresh interpreter that imports repvar, runs one command line (if any)
# through cli.run and prints the exit code and the modules it loaded.
LOADED_MODULES = """
import contextlib, io, json, sys
import repvar
argv, code = json.loads(sys.argv[1]), None
if argv is not None:
    from repvar import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # --help
            code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

NUMERIC = {"numpy", "repvar.unitary", "repvar.repspace"}
COHOMOLOGY = {"repvar.cohomology", "repvar.truncring"}
JETS = {"repvar.jets"}
IMPORT_SURFACE = {  # argv, exit code, modules loaded, modules left out
    "import": (None, None, set(), NUMERIC | COHOMOLOGY | JETS),
    "help": (["--help"], 0, set(), NUMERIC | COHOMOLOGY | JETS),
    "validate": (["validate", SPHERE4], 0, {"repvar.presentation"}, NUMERIC),
    "validate_bad": (["validate", "bad_grp"], 1, {"repvar.presentation"}, NUMERIC),
    "find": (["find", SPHERE4, "--seed", "1"], 0, NUMERIC, COHOMOLOGY | JETS),
    "check": (["check", GENUS2, "genus2_irr"], 0, NUMERIC, COHOMOLOGY | JETS),
    "tangent": (["tangent", GENUS2, "genus2_irr"], 0, NUMERIC | COHOMOLOGY, JETS),
    "pairing": (["pairing", GENUS2, "genus2_irr"], 0, NUMERIC | COHOMOLOGY, JETS),
}


@pytest.mark.parametrize("case", sorted(IMPORT_SURFACE))
def test_verbs_import_only_what_they_run(case, cli_files, tmp_path):
    argv, code, loaded, absent = IMPORT_SURFACE[case]
    bad = tmp_path / "bad.grp"
    bad.write_text("group g\nrank 1\ngenerators a\nrelator a x\n")
    files = {**cli_files, "bad_grp": str(bad)}
    argv = None if argv is None else [files.get(a, a) for a in argv]
    out = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(argv)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    modules = set(result["modules"])
    assert result["code"] == code
    assert loaded <= modules
    assert not absent & modules


EXPORTS = """
import sys
import repvar
from repvar import repspace

exports = set(repvar.__all__)
assert len(exports) == len(repvar.__all__)
assert exports <= set(dir(repvar))
for name in repvar.__all__:
    value = getattr(repvar, name)
    owners = [m for key, m in sys.modules.items()
              if key.startswith("repvar.") and name in vars(m)]
    assert owners and all(vars(m)[name] is value for m in owners), name
try:
    repvar.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
star = {}
exec("from repvar import *", star)
assert all(star[name] is getattr(repvar, name) for name in exports)
original = repspace.refine
repspace.refine = marker = object()  # a later rebinding shows through the package
assert repvar.refine is marker
repspace.refine = original
assert repvar.refine is original
"""


def test_package_exports_resolve_on_use():
    out = subprocess.run([sys.executable, "-c", EXPORTS], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


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
    # flags that changed no result and are gone: each is an unknown flag now
    "removed_lift_budget": ("lift", GENUS2, "genus2_irr", "cocycle_irr", "--budget", "3"),
    "removed_probe_budget": ("probe", GENUS2, "genus2_red", "--samples", "2", "--budget", "3"),
    "removed_lift_seed": ("lift", GENUS2, "genus2_irr", "cocycle_irr", "--seed", "1"),
    "removed_validate_rank_tol": ("validate", SPHERE4, "--rank-tol", "1e-8"),
    "removed_find_rank_tol": ("find", SPHERE4, "--seed", "1", "--rank-tol", "1e-8"),
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
    # a representation file's tolerance is a finite JSON number > 0, its N an integer
    **{f"rep_{key}": ("check", GENUS2, f"{key}_rep") for key in (
        "nan_tolerance", "inf_tolerance", "zero_tolerance", "negative_tolerance",
        "string_tolerance", "bool_tolerance", "huge_int_tolerance", "fractional_rank",
        "string_rank")},
    "rep_bool_rank": ("check", TORUS, "bool_rank_rep"),
    # each part of a matrix entry is a JSON number, by the rule for tolerance
    "rep_huge_int_entry_check": ("check", GENUS2, "huge_int_entry_rep"),
    "rep_huge_int_entry_tangent": ("tangent", GENUS2, "huge_int_entry_rep"),
    "cochain_huge_int_entry_obstruct": ("obstruct", GENUS2, "genus2_irr", "huge_int_entry_cochain"),
    "cochain_huge_int_entry_lift": ("lift", GENUS2, "genus2_irr", "huge_int_entry_cochain"),
    "rep_bool_entries_check": ("check", TORUS, "bool_entries_rep"),
    # presentations the constructor rejects after they parse
    "grp_rank_zero": ("validate", "rank_zero_grp"),
    "grp_rank_negative": ("validate", "rank_negative_grp"),
    "grp_empty_peripheral": ("validate", "empty_peripheral_grp"),
    # files the readers cannot decode: not UTF-8, an integer literal past the
    # digit limit, arrays nested past the recursion limit
    "grp_not_utf8": ("validate", "non_utf8_grp"),
    "rep_not_utf8": ("check", GENUS2, "non_utf8_rep"),
    "rep_long_int_rank": ("check", GENUS2, "long_int_rank_rep"),
    "rep_deep_json": ("check", GENUS2, "deep_json_rep"),
    "find_out_unwritable": ("find", SPHERE4, "--seed", "1", "--out", "unwritable_out"),
    # numpy's seed sequence takes no negative integer
    "seed_negative_find": ("find", SPHERE4, "--seed", "-1"),
    "seed_negative_probe": ("probe", GENUS2, "genus2_red", "--samples", "2", "--seed", "-1"),
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
    if case.startswith("removed_"):
        assert err.startswith("repvar: error: unrecognized arguments: ")


def test_find_out_unwritable_fails_before_search(cli_files, monkeypatch, capsys):
    monkeypatch.setattr(repspace, "find_representation",
                        lambda *args, **kwargs: pytest.fail("the search ran"))
    assert cli.run(["find", SPHERE4, "--out", cli_files["unwritable_out"]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("repvar: error: cannot write ")


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("SVD did not converge"),
                                   FloatingPointError("overflow encountered in matmul")])
def test_numerical_error_exit_2(error, cli_files, monkeypatch, capsys):
    def fail(*args):
        raise error
    monkeypatch.setitem(cli._VERBS, "tangent", cli._VERBS["tangent"]._replace(command=fail))
    code = cli.run(["tangent", GENUS2, cli_files["genus2_irr"]])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("repvar: ") and str(error) in err


@pytest.mark.parametrize("scale", ["1e+150", "1e+200"])
@pytest.mark.parametrize("verb", [("lift", "--order", "4"), ("obstruct",)])
def test_non_finite_result_exit_2(verb, scale, cli_files, capsys):
    # a cocycle this large overflows the defects: unchecked, lift reports
    # success on NaN residuals and obstruct an obstruction of norm Infinity
    code = cli.run([verb[0], SPHERE4, cli_files["sphere4"], cli_files[f"cocycle_{scale}"],
                    *verb[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("repvar: numerical error: ")


def test_out_of_memory_exit_2(cli_files, monkeypatch, capsys):
    # as numpy reports an allocation it cannot make (a find at rank 100000
    # asks 74.5 GiB for its Haar start); nothing is allocated here
    def fail(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type complex128")
    monkeypatch.setitem(cli._VERBS, "find", cli._VERBS["find"]._replace(command=fail))
    code = cli.run(["find", GENUS2, "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == ("repvar: out of memory: Unable to allocate 74.5 GiB for an array with "
                   "shape (100000, 100000) and data type complex128\n")


BIG = str(10 ** 19)  # past numpy's largest dimension, 2**63 - 1


@pytest.mark.parametrize("argv", [
    ("probe", GENUS2, "genus2_red", "--samples", BIG),
    ("probe", GENUS2, "genus2_red", "--samples", str(5 * 10 ** 18)),
    ("probe", GENUS2, "genus2_red", "--samples", "2", "--order", BIG),
    ("lift", GENUS2, "genus2_irr", "cocycle_irr", "--order", BIG),
    ("find", f"rank_{10 ** 20}_grp"),
    ("find", f"rank_{3 * 10 ** 9}_grp"),
])
def test_unsizable_array_exit_2(argv, cli_files, capsys):
    # numpy rejects these sizes before it allocates anything: a dimension past
    # its index range, or a byte count past the address space
    code = cli.run([cli_files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("repvar: out of memory: ")


def test_other_value_errors_are_not_memory_errors(monkeypatch):
    def fail(*args):
        raise ValueError("an unexpected program error")
    monkeypatch.setitem(cli._VERBS, "find", cli._VERBS["find"]._replace(command=fail))
    with pytest.raises(ValueError, match="unexpected"):
        cli.run(["find", GENUS2])


@pytest.mark.parametrize("argv", [("check", GENUS2, "huge_int_entry_rep"),
                                  ("obstruct", GENUS2, "genus2_irr", "huge_int_entry_cochain"),
                                  ("check", GENUS2, "huge_rank_rep"),
                                  ("check", GENUS2, "long_name_rep")])
def test_rejected_value_echo_is_short(argv, cli_files, capsys):
    # a 401-digit matrix entry and a 4,000-digit N are shown by their digit
    # count, a presentation name of 5,000 characters by its first 40
    assert cli.run([cli_files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err.encode()) < 200
    assert "-digit integer>" in err or "..." in err


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


@pytest.mark.parametrize("rank_tol", ["0.5", "1e-20"])
def test_torus_h0_needs_no_rank_cut(rank_tol, tmp_path, capsys):
    # d0 on the cone is injective with a simultaneity group, so h0 = 0 at
    # the punctured torus is no rank decision, even at a --rank-tol that
    # would make a cut of it ambiguous; its other matrices are zero or clean
    rep_path = str(tmp_path / "torus.json")
    assert cli.run(["find", TORUS, "--seed", "2", "--out", rep_path]) == 0
    capsys.readouterr()
    for verb in ("tangent", "pairing", "probe"):
        code = cli.run([verb, TORUS, rep_path, "--rank-tol", rank_tol])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, (verb, report)
        assert "error" not in report, verb
        if verb == "tangent":
            assert report["dims"]["h0"] == 0
            assert report["dims"]["rank_gaps"]["d0_cone"] is None


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


CONFIG_KEYS = {  # argv after the verb, the exact keys of the report's config
    "validate": ([SPHERE4], {"format"}),
    "find": ([SPHERE4, "--seed", "1"], {"seed", "attempts", "tol", "format"}),
    "check": ([GENUS2, "genus2_irr"], {"tol", "rank_threshold", "format"}),
    "tangent": ([GENUS2, "genus2_irr"], {"rank_threshold", "format"}),
    "pairing": ([GENUS2, "genus2_red"], {"tol", "rank_threshold", "format"}),
    "obstruct": ([GENUS2, "genus2_red", "cocycle_red"], {"rank_threshold", "format"}),
    "lift": ([GENUS2, "genus2_irr", "cocycle_irr", "--order", "3"],
             {"order", "tol", "rank_threshold", "format"}),
    "probe": ([GENUS2, "genus2_red", "--samples", "5", "--order", "3", "--seed", "2"],
              {"samples", "order", "seed", "tol", "rank_threshold", "format"}),
}


def test_reports_embed_configuration(cli_files, capsys):
    # every verb echoes exactly the flags that can change its report
    assert set(CONFIG_KEYS) == set(cli._VERBS)
    for verb, (argv, keys) in CONFIG_KEYS.items():
        assert cli.run([verb, *(cli_files.get(a, a) for a in argv)]) == 0, verb
        report = json.loads(capsys.readouterr().out)
        assert set(report["config"]) == keys, verb


def test_text_format(cli_files):
    out = run_cli("check", GENUS2, cli_files["genus2_irr"], "--format", "text")
    assert out.returncode == 0
    assert "commutant_dimension: 1" in out.stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.stdout)
