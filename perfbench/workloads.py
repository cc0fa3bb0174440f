"""The four benchmark workloads.

Each workload is a closed loop: one client issues one operation at a time,
and a pass is the workload's whole list of operations.  A workload object
does its set-up in the constructor (inputs generated from the seed, fixed
points found and assembled), offers a warm-up, and builds the operations of
pass number `p`; `audit_ops`, where defined, are checked once per run and
not timed.  An operation is a call into the program, timed, plus a check
of its output against ground truth, not timed.

Ground truth is stated independently of the program: closed-form
dimensions, the smooth/singular verdict the theory gives at each point,
lift residual bounds, probe bookkeeping identities, the README exit-code
contract, and relator and eigenvalue identities evaluated here with numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repvar import cli, cohomology, corpus, jets, presentation, repspace

from instances import (
    CLI_FIND_TOL,
    DEGENERATE_FIND_SEED,
    DEGENERATE_U3_QS,
    LIFT_TOL,
    PAIRING_TOL,
    REGULAR_U3_QS,
    SPHERE8_QS,
    SPHERE_FIND_TOL,
    SURFACE_FIND_TOL,
    closed_surface_text,
    derive_seed,
    expected_h1,
    irreducible_point,
    sphere_text,
    unit_coefficients,
)

ANGLE_TOL = 1e-8     # turns; eigenvalue angles of peripheral values
RESIDUAL_SLACK = 10  # relator checks allow this multiple of the find tolerance

class KnownDefect(str):
    """A check failure that a documented program defect causes.  It is shown
    and counted in fail_ratio, but not in the result's `failed` count."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    top: bool = False


# -- ground truth evaluated with numpy alone -----------------------------------


def _word_value(mats, word):
    out = np.eye(mats[0].shape[0], dtype=complex)
    for gen, sign in word:
        out = out @ (mats[gen] if sign > 0 else mats[gen].conj().T)
    return out


def point_problems(pres, mats, tol: float) -> list[str]:
    """Relators evaluate to the identity and peripheral values have the
    eigenvalue angles of their classes."""
    problems = []
    n = pres.rank
    for j, rel in enumerate(pres.relators):
        gap = float(np.linalg.norm(_word_value(mats, rel) - np.eye(n)))
        if gap > tol:
            problems.append(f"relator {j} off the identity by {gap:.3e} > {tol:.0e}")
    for p in pres.peripherals:
        got = np.sort(np.angle(np.linalg.eigvals(_word_value(mats, p.word))) / (2 * np.pi) % 1.0)
        want = np.sort(np.asarray(p.klass.as_floats()) % 1.0)
        d = np.abs(got - want)
        d = float(np.max(np.minimum(d, 1.0 - d)))
        if d > ANGLE_TOL:
            problems.append(f"peripheral {p.name} angles off their class by {d:.3e} turns")
    return problems


def lift_problems(report, order: int, unorm: float) -> list[str]:
    problems = []
    if not report.succeeded or report.achieved_order != order:
        problems.append(f"achieved order {report.achieved_order} of {order}")
    bound = LIFT_TOL * unorm ** 2
    worst = max(report.residuals, default=0.0)
    if worst > bound:
        problems.append(f"residual {worst:.3e} > tolerance*|u|^2 = {bound:.3e}")
    return problems


def probe_problems(report) -> list[str]:
    problems = []
    c = report.contingency()
    total = sum(c[row][col] for row in c for col in c[row])
    if total != report.samples:
        problems.append(f"contingency sums to {total}, not {report.samples} samples")
    if not report.prediction_holds:
        problems.append(f"prediction_holds false: cone_fail_order2={report.cone_fail_order2} "
                        f"cone_fail_later={report.cone_fail_later} "
                        f"noncone_past_order2={report.noncone_past_order2}")
    return problems


class Point:
    """A fixed point with its assembled complex and cohomology basis."""

    def __init__(self, label, rep, expected):
        self.label = label
        self.cc = cohomology.assemble_complex(rep)
        self.basis = cohomology.h1_basis(self.cc)
        self.expected = expected

    def problems(self) -> list[str]:
        h1 = self.basis.dims.h1_par
        return [] if h1 == self.expected else [f"h1_par {h1} != closed form {self.expected}"]


# -- lift_ladder --------------------------------------------------------------


class LiftLadder:
    """`lift` of a seeded cocycle to orders 10, 20 and 30 at smooth points
    growing in generators and rank.  Nearly all time is in `truncring` and
    `order_defect`, so this is where an incremental jet kernel shows; the
    success path never evaluates Q, so a faster pairing should not move it.

    The timed cocycles have norm 1 at U(2) and 1/2 at U(3).  At U(3) the
    order-m residual of a unit cocycle grows with m and, for about a third
    of the seeds, crosses the fixed tolerance * |u|^2 before order 30, so a
    smooth point reports an obstruction; the budget retries that follow
    would make the ladder's cost depend on the seed.  That defect is checked,
    untimed, once per run by `audit_ops`, where it stays visible."""

    name = "lift_ladder"
    cycle = 1
    ORDERS = (10, 20, 30)
    HIGH_ORDER_DEFECT = ("known defect: at U(3) the order-m residual of a unit cocycle "
                         "grows with m and can cross the fixed tolerance*|u|^2 below order 30")

    def __init__(self, seed: int, root: str, workdir: str):
        specs = [
            ("sphere4_u2", corpus.load("sphere4"), (0, 4, 2), SPHERE_FIND_TOL, 1.0),
            ("genus2_u2", corpus.load("genus2"), (2, 0, 2), SURFACE_FIND_TOL, 1.0),
            ("sphere4_u3",
             presentation.parse_presentation(sphere_text("sphere4_u3", 3, REGULAR_U3_QS)),
             (0, 4, 3), SPHERE_FIND_TOL, 0.5),
        ]
        self.points = []
        for label, pres, (g, n, rank), tol, norm in specs:
            rep, _ = irreducible_point(pres, seed, label, tol)
            point = Point(label, rep, expected_h1(g, n, rank))
            unit = point.basis.matrix @ unit_coefficients(seed, label, len(point.basis))
            point.unit_u = point.cc.unstack_gen(unit)
            point.u = point.cc.unstack_gen(norm * unit)
            point.unorm = norm * float(np.linalg.norm(unit))
            self.points.append(point)

    def warmup(self) -> None:
        for p in self.points:
            jets.lift(p.cc, p.u, 4)

    def ops(self, pass_index: int) -> list[Op]:
        out = []
        for p in self.points:
            for k in self.ORDERS:
                out.append(Op(
                    f"{p.label}/order{k}",
                    call=lambda p=p, k=k: jets.lift(p.cc, p.u, k),
                    check=lambda r, p=p, k=k: p.problems() + lift_problems(r, k, p.unorm),
                    top=(p.label == "sphere4_u3" and k == 30)))
        return out

    def audit_ops(self) -> list[Op]:
        """The U(3) unit cocycle lifted to order 30, without budget retries."""
        p = self.points[-1]
        return [Op(f"{p.label}/order30_unit_cocycle",
                   call=lambda: jets.lift(p.cc, p.unit_u, 30, jets.LiftOptions(budget=0)),
                   check=lambda r: [KnownDefect(f"{x} [{self.HIGH_ORDER_DEFECT}]")
                                    for x in lift_problems(r, 30, 1.0)])]


# -- pairing_ladder -----------------------------------------------------------


class PairingLadder:
    """Time to a smoothness verdict from a presentation: find, assemble, basis,
    pairing.  The h(h+1)/2 order-2 jet evaluations of the pairing dominate and
    no jet goes past order 2, so a closed-form cup product shows here and an
    incremental high-order kernel should move it little."""

    name = "pairing_ladder"
    cycle = 1

    def __init__(self, seed: int, root: str, workdir: str):
        specs = [(f"genus2_u{n}", closed_surface_text(2, n), (2, 0, n)) for n in (2, 3, 4, 5)]
        specs += [("genus3_u2", closed_surface_text(3, 2), (3, 0, 2)),
                  ("genus4_u2", closed_surface_text(4, 2), (4, 0, 2)),
                  ("sphere8_u2", sphere_text("sphere8_u2", 2, SPHERE8_QS), (0, 8, 2))]
        self.rungs = []
        for label, text, (g, n, rank) in specs:
            pres = presentation.parse_presentation(text)
            tol = SPHERE_FIND_TOL if n else SURFACE_FIND_TOL
            _, fseed = irreducible_point(pres, seed, label, tol)
            self.rungs.append((label, pres, fseed, tol, expected_h1(g, n, rank)))
        self.reducible = corpus.genus2_reducible()

    @staticmethod
    def _verdict(rep):
        cc = cohomology.assemble_complex(rep)
        basis = cohomology.h1_basis(cc)
        return rep, basis, cohomology.pairing_tensor(cc, basis, tolerance=PAIRING_TOL)

    @staticmethod
    def _check(result, pres, tol, h1, smooth) -> list[str]:
        rep, basis, tensor = result
        problems = (point_problems(pres, rep.matrices, RESIDUAL_SLACK * tol)
                    if pres is not None else [])
        if basis.dims.h1_par != h1:
            problems.append(f"h1_par {basis.dims.h1_par} != closed form {h1}")
        if tensor.verdict != smooth:
            problems.append(f"verdict {'smooth' if tensor.verdict else 'singular'}, "
                            f"expected {'smooth' if smooth else 'singular'}")
        return problems

    def warmup(self) -> None:
        for op in self.ops(0):
            op.call()

    def ops(self, pass_index: int) -> list[Op]:
        out = []
        for label, pres, fseed, tol, h1 in self.rungs:
            out.append(Op(
                label,
                call=lambda pres=pres, fseed=fseed, tol=tol: self._verdict(
                    repspace.find_representation(pres, seed=fseed, target_tolerance=tol)),
                check=lambda r, pres=pres, tol=tol, h1=h1: self._check(r, pres, tol, h1, True),
                top=(label == "genus2_u5")))
        # a direct sum of two distinct characters of the genus-2 group:
        # h1 = 2 * 2g + 2 * (2g - 2) = 12, and the cone there is singular
        out.append(Op("genus2_reducible",
                      call=lambda: self._verdict(self.reducible),
                      check=lambda r: self._check(r, None, 0.0, 12, False)))
        return out


# -- probe_mix ----------------------------------------------------------------


class ProbeMix:
    """`probe_cone` at a smooth point (every sample lifts to order 6), at a
    singular point (every sample stops at order 2 through the obstruction
    path) and at a degenerate-class U(3) point (failures past order 2 after
    budget retries).  Many short lifts, one Q per sample, and the failure and
    retry path: work moved into per-lift set-up, or a pairing amortised over
    a basis, costs here.  Probe seeds cycle through four draws per run."""

    name = "probe_mix"
    cycle = 4
    DEGENERATE = ("known defect: the U(3) class (1/5, 2/5, -3/5) repeats an eigenvalue; "
                  "find returns a point with the repeated angle split, Q reads 0 there and "
                  "lifts stop past order 2")

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        s4 = corpus.load("sphere4")
        rep, _ = irreducible_point(s4, seed, "probe/sphere4_u2", SPHERE_FIND_TOL)
        dpres = presentation.parse_presentation(
            sphere_text("sphere4_u3_degenerate", 3, DEGENERATE_U3_QS))
        drep = repspace.find_representation(dpres, seed=DEGENERATE_FIND_SEED,
                                            target_tolerance=SPHERE_FIND_TOL)
        self.rungs = [
            # label, point, samples, order, whether the degenerate-class defect shows
            ("sphere4_u2", Point("sphere4_u2", rep, expected_h1(0, 4, 2)), 40, 6, False),
            ("genus2_reducible", Point("genus2_reducible", corpus.genus2_reducible(), 12),
             40, 6, False),
            ("sphere4_u3_degenerate", Point("sphere4_u3_degenerate", drep,
                                            expected_h1(0, 4, 3)), 20, 5, True),
        ]

    def warmup(self) -> None:
        for _, p, samples, order, _ in self.rungs:
            jets.probe_cone(p.cc, p.basis, samples=2, order=order, seed=0)

    def ops(self, pass_index: int) -> list[Op]:
        out = []
        for label, p, samples, order, defect in self.rungs:
            pseed = derive_seed(self.seed, "probe", label, pass_index % self.cycle) % (2 ** 31)
            out.append(Op(
                label,
                call=lambda p=p, s=samples, o=order, ps=pseed: jets.probe_cone(
                    p.cc, p.basis, samples=s, order=o, seed=ps),
                check=lambda r, p=p, defect=defect: self._check(p, r, defect),
                top=(label == "sphere4_u2")))
        return out

    def _check(self, point, report, defect: bool) -> list[str]:
        problems = point.problems() + probe_problems(report)
        if defect:
            problems = [KnownDefect(f"{x} [{self.DEGENERATE}]")
                        if x.startswith("prediction_holds false") else x for x in problems]
        return problems


# -- cli_session ---------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    rss_kb: int = 0


def _json_matrix(rows) -> np.ndarray:
    """A matrix in the CLI's file format: rows of {"re", "im"} entries."""
    return np.array([[e["re"] + 1j * e["im"] for e in row] for row in rows])


def _report(res: CliResult):
    try:
        return json.loads(res.out)
    except json.JSONDecodeError:
        return None


class CliSession:
    """A scripted session of cold `repvar` processes over the corpus files and
    generated presentations, running all eight verbs.  Most of each call is
    process start-up and imports, so command-line, parser and import cost
    show here and nowhere else; compute-kernel changes should not move it."""

    name = "cli_session"
    cycle = 1
    BAD_GRP = "group bad\nrank 2\ngenerators a b\nrelator a x\n"

    def __init__(self, seed: int, root: str, workdir: str):
        self.root = root
        self.work = workdir
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.files = {
            "sphere4": os.path.join(self.root, "corpus", "sphere4.grp"),
            "genus2": os.path.join(self.root, "corpus", "genus2.grp"),
            "genus3_u2": self._write("genus3_u2.grp", closed_surface_text(3, 2)),
            "bad": self._write("bad.grp", self.BAD_GRP),
        }
        self.pres = {}
        self.fseed = {}
        for label in ("sphere4", "genus3_u2"):
            with open(self.files[label], encoding="utf-8") as fh:
                self.pres[label] = presentation.parse_presentation(fh.read())
            _, self.fseed[label] = irreducible_point(
                self.pres[label], seed, "cli/" + label, CLI_FIND_TOL)
        self.expected = {"sphere4": expected_h1(0, 4, 2), "genus3_u2": expected_h1(3, 0, 2)}
        self.probe_seed = derive_seed(seed, "cli/probe") % (2 ** 31)
        self.cold = True

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # -- running one call, cold or in this process ---------------------------

    def run_cold(self, argv) -> CliResult:
        out_path, err_path = self._path("stdout.txt"), self._path("stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "repvar", *argv], cwd=self.work,
                                    env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return CliResult(proc.returncode, stdout, stderr, usage.ru_maxrss)

    @staticmethod
    def run_inproc(argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        return CliResult(code, out.getvalue(), err.getvalue())

    def warmup(self) -> None:
        # byte-compile the package once, as an install does; calls stay cold
        subprocess.run([sys.executable, "-c", "import repvar.cli"], cwd=self.work,
                       env=self.env, check=True, stdin=subprocess.DEVNULL)

    # -- checks -------------------------------------------------------------

    @staticmethod
    def _expect(res: CliResult, code: int) -> list[str]:
        if res.code != code:
            first = res.err.strip().splitlines()[:1]
            return [f"exit {res.code}, contract says {code} {first}"]
        return []

    def _check_validate(self, res, name):
        problems = self._expect(res, 0)
        rep = _report(res)
        if not problems and (rep is None or rep.get("presentation") != name
                             or rep.get("warnings") != []):
            problems.append("report does not echo the presentation without warnings")
        return problems

    def _check_usage_error(self, res):
        problems = self._expect(res, 1)
        lines = res.err.strip().splitlines()
        if res.out or len(lines) != 1 or not lines[0].startswith("repvar: error:"):
            problems.append("an input error must print one 'repvar: error:' line and no report")
        return problems

    def _check_find(self, res, label):
        problems = self._expect(res, 0)
        rep = _report(res)
        if problems or rep is None or not rep.get("found"):
            return problems or ["find reported no representation"]
        gens = rep["representation"]["generators"]
        mats = [_json_matrix(gens[g]) for g in self.pres[label].generators]
        return point_problems(self.pres[label], mats, RESIDUAL_SLACK * CLI_FIND_TOL)

    def _check_not_found(self, res):
        problems = self._expect(res, 2)
        rep = _report(res)
        if rep is None or rep.get("found") is not False:
            problems.append("an unreachable tolerance must report found: false")
        return problems

    def _check_check(self, res):
        problems = self._expect(res, 0)
        rep = _report(res) or {}
        if not problems and not (rep.get("valid") and rep.get("irreducible")):
            problems.append(f"check: valid={rep.get('valid')} irreducible={rep.get('irreducible')}")
        return problems

    def _check_tangent(self, res, label):
        problems = self._expect(res, 0)
        rep = _report(res) or {}
        want = self.expected[label]
        if not problems and (rep.get("h1_par") != want or len(rep.get("basis", [])) != want):
            problems.append(f"h1_par {rep.get('h1_par')} != closed form {want}")
        if not problems:
            self._write_cochain(label, rep["basis"])
        return problems

    def _write_cochain(self, label, basis) -> None:
        """A seeded unit combination of the basis that `tangent` reported."""
        coeffs = unit_coefficients(self.seed, "cli/" + label, len(basis))
        part = {}
        for g in self.pres[label].generators:
            m = sum(c * _json_matrix(vec["generator_part"][g]) for c, vec in zip(coeffs, basis))
            part[g] = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]
        self._write(f"{label}.cochain.json",
                    json.dumps({"generator_part": part, "conjugator_part": {}}))

    def _check_pairing(self, res, label):
        problems = self._expect(res, 0)
        rep = _report(res) or {}
        if not problems and (rep.get("verdict") is not True
                             or rep.get("basis_size") != self.expected[label]):
            problems.append(f"verdict {rep.get('verdict')} at an irreducible smooth point")
        return problems

    def _check_obstruct(self, res):
        problems = self._expect(res, 0)
        rep = _report(res) or {}
        norm = (rep.get("obstruction") or {}).get("norm")
        if not problems and (norm is None or norm > LIFT_TOL):
            problems.append(f"Q(u) norm {norm} at a smooth point, bound {LIFT_TOL}")
        return problems

    def _check_lift(self, res, order):
        problems = self._expect(res, 0)
        rep = (_report(res) or {}).get("report") or {}
        if not problems:
            if rep.get("achieved_order") != order or rep.get("obstruction") is not None:
                problems.append(f"achieved order {rep.get('achieved_order')} of {order}")
            worst = max(rep.get("residuals") or [0.0])
            if worst > LIFT_TOL:
                problems.append(f"residual {worst:.3e} > tolerance*|u|^2 = {LIFT_TOL:.0e}")
        return problems

    def _check_probe(self, res, samples):
        problems = self._expect(res, 0)
        rep = (_report(res) or {}).get("report") or {}
        c = rep.get("contingency") or {}
        total = sum(v for row in c.values() for v in row.values())
        if not problems and (total != samples or rep.get("prediction_holds") is not True):
            problems.append(f"contingency sums to {total} of {samples}, "
                            f"prediction_holds={rep.get('prediction_holds')}")
        return problems

    # -- the session ----------------------------------------------------------

    def session(self):
        """(verb, label, argv, check) in session order."""
        f = self.files
        s4, g3 = f["sphere4"], f["genus3_u2"]
        s4rep, g3rep = self._path("sphere4.rep.json"), self._path("genus3_u2.rep.json")
        s4coc = self._path("sphere4.cochain.json")
        return [
            ("validate", "sphere4", ["validate", s4], lambda r: self._check_validate(r, "sphere4")),
            ("validate", "genus2", ["validate", f["genus2"]],
             lambda r: self._check_validate(r, "genus2")),
            ("validate", "bad", ["validate", f["bad"]], self._check_usage_error),
            ("find", "sphere4", ["find", s4, "--seed", str(self.fseed["sphere4"]), "--out", s4rep],
             lambda r: self._check_find(r, "sphere4")),
            ("check", "sphere4", ["check", s4, s4rep], self._check_check),
            ("tangent", "sphere4", ["tangent", s4, s4rep],
             lambda r: self._check_tangent(r, "sphere4")),
            ("pairing", "sphere4", ["pairing", s4, s4rep],
             lambda r: self._check_pairing(r, "sphere4")),
            ("obstruct", "sphere4", ["obstruct", s4, s4rep, s4coc], self._check_obstruct),
            ("lift", "sphere4", ["lift", s4, s4rep, s4coc, "--order", "8"],
             lambda r: self._check_lift(r, 8)),
            ("probe", "sphere4", ["probe", s4, s4rep, "--samples", "10", "--order", "4",
                                  "--seed", str(self.probe_seed)],
             lambda r: self._check_probe(r, 10)),
            ("find", "genus3_u2", ["find", g3, "--seed", str(self.fseed["genus3_u2"]),
                                   "--out", g3rep],
             lambda r: self._check_find(r, "genus3_u2")),
            ("tangent", "genus3_u2", ["tangent", g3, g3rep],
             lambda r: self._check_tangent(r, "genus3_u2")),
            ("pairing", "genus3_u2", ["pairing", g3, g3rep],
             lambda r: self._check_pairing(r, "genus3_u2")),
            ("find", "unreachable_tol", ["find", s4, "--tol", "1e-30", "--attempts", "2"],
             self._check_not_found),
        ]

    def ops(self, pass_index: int) -> list[Op]:
        run = self.run_cold if self.cold else self.run_inproc
        # probe is the verb with the most computation behind its start-up
        return [Op(f"{verb}/{label}", call=lambda argv=argv: run(argv), check=check,
                   top=(verb == "probe"))
                for verb, label, argv, check in self.session()]


WORKLOADS = {w.name: w for w in (LiftLadder, PairingLadder, ProbeMix, CliSession)}
