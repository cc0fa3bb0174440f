"""Command line front door.

Verbs map one-to-one onto library operations:

    validate  presentation file -> normalized echo
    find      presentation -> representation JSON
    check     presentation + representation -> residuals, commutant dimension
    tangent   -> dimension record + cohomology basis
    pairing   -> pairing tensor + smoothness verdict
    obstruct  + cochain file -> obstruction class
    lift      + cochain file, --order -> lift report
    probe     --samples, --order -> cone probe report

``_VERBS`` is the one table of verbs: help text, flags, the configuration
keys a report embeds, the command function and the inputs it takes.
:func:`run` is the one runner: it loads each input file once, assembles the
cone complex once, wraps the command's report body in
``{"verb", "config", ...}`` and maps errors to exit codes.

Reports are JSON by default (deterministic: sorted keys, no timestamps) and
embed the full effective configuration.  Exit codes: 0 success, 1 input or
usage errors, 2 constraint or verdict failures (NotFound, NoConvergence,
failed lift, violated probe prediction, invalid representation, a
numerical error (a numpy LinAlgError, or an overflow or invalid value, which
every verb but validate raises as a FloatingPointError), and an
ill-conditioned rank decision, reported with its two candidate ranks).

Only the parser is imported with this module.  Each stage imports the
numeric modules it runs when it runs, so ``validate`` and ``--help`` load no
numpy, ``find`` and ``check`` no cohomology, and only ``lift`` and ``probe``
load :mod:`repvar.jets`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from .presentation import ParseError, parse_presentation, serialize_presentation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse prints its usage and exits 2; the contract is one line and exit 1
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ranged(convert, ok, rule: str):
    """An argparse type that converts, then rejects values breaking the rule."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


def _int_from(low: int):
    return _ranged(int, lambda v: v >= low, f"an integer >= {low}")


_tolerance = _ranged(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


class InputError(ValueError):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc.msg})") from None
    except ValueError:  # an integer past the digit limit; Python's message runs to 140 bytes
        raise InputError(f"{path}: unreadable JSON (an integer literal past Python's "
                         "digit limit)") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def _load_presentation(path: str):
    try:
        return parse_presentation(_read_text(path))
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_representation(pres, path: str):
    import numpy as np

    from .repspace import rep_from_json
    from .unitary import UNITARITY_TOL, is_unitary
    data = _read_json(path)
    if isinstance(data, dict) and "representation" in data:
        data = data["representation"]  # accept a `find` report envelope
    try:
        rep = rep_from_json(pres, data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    with np.errstate(all="ignore"):  # a huge entry overflows g^H g, which then fails the test
        bad = [name for name, m in zip(pres.generators, rep.matrices) if not is_unitary(m)]
    if bad:
        raise InputError(f"{path}: generators {bad} are not unitary within {UNITARITY_TOL:g}")
    return rep


def _load_cochain(pres, path: str):
    import numpy as np

    from .unitary import SKEW_TOL, is_skew_hermitian, matrix_from_json
    data = _read_json(path)
    gens = data.get("generator_part") if isinstance(data, dict) else None
    if not isinstance(gens, dict):
        raise InputError(f"{path}: cochain JSON needs a 'generator_part' object")
    missing = [g for g in pres.generators if g not in gens]
    if missing:
        raise InputError(f"{path}: missing generator parts: {missing}")
    try:
        mats = [matrix_from_json(gens[g]) for g in pres.generators]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    shape = (pres.rank, pres.rank)
    for name, m in zip(pres.generators, mats):
        if m.shape != shape:
            raise InputError(f"{path}: generator part {name!r} has shape {m.shape}, "
                             f"expected {shape}")
        if not is_skew_hermitian(m, SKEW_TOL * float(np.linalg.norm(m))):
            raise InputError(f"{path}: generator part {name!r} is not skew-Hermitian")
    return mats


def _cochain_json(pres, mats) -> dict:
    from .unitary import matrix_to_json
    return {"generator_part": {name: matrix_to_json(m) for name, m in zip(pres.generators, mats)},
            "conjugator_part": {}}


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    items = [(f"{key}:", sub) for key, sub in value.items()] if isinstance(value, dict) \
        else [("-", sub) for sub in value]
    lines = []
    for label, sub in items:
        if isinstance(sub, (dict, list)):
            lines.append(f"{pad}{label}")
            lines.extend(_render_text(sub, indent + 1))
        else:
            lines.append(f"{pad}{label} {json.dumps(sub, allow_nan=False)}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


def _cmd_validate(args, pres) -> tuple[int, dict]:
    return 0, {"presentation": pres.name, "normalized": serialize_presentation(pres),
               "warnings": list(pres.warnings)}


def _check_writable(path: str) -> None:
    """Reject an --out path that cannot be written before the search, not after."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) \
            or not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise InputError(f"cannot write {path}")


def _cmd_find(args, pres) -> tuple[int, dict]:
    from . import repspace
    if args.out:
        _check_writable(args.out)
    try:
        rep = repspace.find_representation(pres, seed=args.seed, attempts=args.attempts,
                                           target_tolerance=args.tol)
    except repspace.NotFoundError as exc:
        return 2, {"found": False, "error": str(exc)}
    payload = repspace.rep_to_json(rep)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0, {"found": True, "max_residual": repspace.constraint_residual(rep).max,
               "representation": payload}


def _cmd_check(args, pres, rep) -> tuple[int, dict]:
    from . import repspace
    res = repspace.constraint_residual(rep)
    dim = repspace.commutant_dimension(rep, rank_rtol=args.rank_threshold)
    tol = rep.tolerance if args.tol is None else args.tol
    valid = res.max <= tol
    return (0 if valid else 2), {
        "relator_residuals": list(res.relator_residuals),
        "peripheral_residuals": list(res.peripheral_residuals),
        "max_residual": res.max, "tolerance": tol, "valid": valid,
        "commutant_dimension": dim, "irreducible": dim == 1,
    }


def _cmd_tangent(args, pres, cc) -> tuple[int, dict]:
    from . import cohomology
    basis = cohomology.h1_basis(cc)
    return 0, {"dims": basis.dims.to_json(), "h1_par": basis.dims.h1_par,
               "basis": [_cochain_json(pres, vec) for vec in basis.vectors]}


def _cmd_pairing(args, pres, cc) -> tuple[int, dict]:
    from . import cohomology
    basis = cohomology.h1_basis(cc)
    tensor = cohomology.pairing_tensor(cc, basis, tolerance=args.tol)
    entries = [{"i": i, "j": j, **e.to_json()} for (i, j), e in sorted(tensor.entries.items())]
    return 0, {"basis_size": len(basis), "entries": entries, "max_norm": tensor.max_norm(),
               "verdict": tensor.verdict, "smooth_by_cup_product_criterion": tensor.verdict}


def _cmd_obstruct(args, pres, cc, umats) -> tuple[int, dict]:
    from . import cohomology
    return 0, {"obstruction": cohomology.obstruction(cc, umats).to_json()}


def _cmd_lift(args, pres, cc, umats) -> tuple[int, dict]:
    from . import jets
    result = jets.lift(cc, umats, args.order, jets.LiftOptions(tolerance=args.tol))
    return (0 if result.succeeded else 2), {"report": result.to_json()}


def _cmd_probe(args, pres, cc) -> tuple[int, dict]:
    from . import cohomology, jets
    result = jets.probe_cone(cc, cohomology.h1_basis(cc), samples=args.samples,
                             order=args.order, seed=args.seed, tolerance=args.tol)
    return (0 if result.prediction_holds else 2), {"report": result.to_json()}


# What a command is passed after (args, presentation): nothing more, the
# representation, the assembled cone complex, or the complex and the cochain.
_PRES, _REP, _CC, _COCHAIN = range(4)

_POSITIONALS = (
    ("presentation", "presentation file (.grp)"),
    ("representation", "representation JSON file"),
    ("cochain", "cochain JSON file (generator_part)"),
)


def _tol(default):
    return "--tol", {"type": _tolerance, "default": default}


_SEED = "--seed", {"type": _int_from(0), "default": 0}
_ATTEMPTS = "--attempts", {"type": _int_from(1), "default": 50}
_SAMPLES = "--samples", {"type": _int_from(1), "default": 50}
_ORDER_1, _ORDER_2 = (("--order", {"type": _int_from(low), "default": 4}) for low in (1, 2))
_OUT = "--out", {"default": None, "help": "also write the bare representation JSON here"}
_FORMAT = "--format", {"choices": ("json", "text"), "default": "json"}
# the flags of the verbs that make rank decisions (validate and find make none)
_RANKED = (
    ("--rank-tol", {"dest": "rank_threshold", "metavar": "RANK_TOL", "default": 1e-8,
                    "type": _ranged(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)"),
                    "help": "relative singular-value threshold for rank decisions"}),
    _FORMAT,
)


class _Verb(NamedTuple):
    help: str
    flags: tuple     # (flag, add_argument keywords), in --help order
    config: tuple    # argument names echoed in the report's config before format, in order
    command: Callable[..., tuple[int, dict]]
    inputs: int      # _PRES, _REP, _CC or _COCHAIN


_VERBS = {
    "validate": _Verb("parse and echo a presentation", (_FORMAT,), (), _cmd_validate, _PRES),
    "find": _Verb("search for a valid representation",
                  (_tol(1e-10), _SEED, _ATTEMPTS, _OUT, _FORMAT),
                  ("seed", "attempts", "tol"), _cmd_find, _PRES),
    "check": _Verb("residuals and commutant dimension", (*_RANKED, _tol(None)),
                   ("tol", "rank_threshold"), _cmd_check, _REP),
    "tangent": _Verb("cohomology dimensions and basis", _RANKED, ("rank_threshold",),
                     _cmd_tangent, _CC),
    "pairing": _Verb("cup-product pairing tensor and verdict", (_tol(1e-8), *_RANKED),
                     ("tol", "rank_threshold"), _cmd_pairing, _CC),
    "obstruct": _Verb("obstruction class of a cocycle", _RANKED, ("rank_threshold",),
                      _cmd_obstruct, _COCHAIN),
    "lift": _Verb("order-by-order jet lifting of a cocycle", (_tol(1e-7), _ORDER_1, *_RANKED),
                  ("order", "tol", "rank_threshold"), _cmd_lift, _COCHAIN),
    "probe": _Verb("random cone probe of quadraticity",
                   (_tol(1e-7), _SEED, _ORDER_2, _SAMPLES, *_RANKED),
                   ("samples", "order", "seed", "tol", "rank_threshold"), _cmd_probe, _CC),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repvar",
                     description="constrained unitary representation varieties at desk scale")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for arg, text in _POSITIONALS[:1 + (verb.inputs >= _REP) + (verb.inputs == _COCHAIN)]:
            p.add_argument(arg, help=text)
        for flag, keywords in verb.flags:
            p.add_argument(flag, **keywords)
    return parser


def _load_inputs(args, inputs: int) -> list:
    """The command's arguments after args: each file loaded once, in the order
    presentation, representation, cochain, then the complex assembled once."""
    pres = _load_presentation(args.presentation)
    if inputs == _PRES:
        return [pres]
    rep = _load_representation(pres, args.representation)
    if inputs == _REP:
        return [pres, rep]
    umats = [_load_cochain(pres, args.cochain)] if inputs == _COCHAIN else []
    from . import cohomology
    return [pres, cohomology.assemble_complex(rep, rank_rtol=args.rank_threshold), *umats]


def _raised(module: str, name: str) -> tuple:
    """The exception class module.name if that module is loaded, else no class
    at all: a run that never imported the module cannot raise it, and looking
    it up here imports nothing."""
    loaded = sys.modules.get(module)
    return (getattr(loaded, name),) if loaded else ()


def _numeric_errors(verb: _Verb):
    """The floating-point rules a verb runs under: an overflow or an invalid
    value raises FloatingPointError, so no report carries an infinity or a
    NaN.  validate runs no numeric stage and loads no numpy for this."""
    if verb.command is _cmd_validate:
        return contextlib.nullcontext()
    import numpy as np
    return np.errstate(over="raise", invalid="raise")


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    verb = _VERBS[args.verb]
    config = {key: getattr(args, key) for key in (*verb.config, "format")}
    try:
        with _numeric_errors(verb):
            code, body = verb.command(args, *_load_inputs(args, verb.inputs))
    except InputError as exc:
        print(f"repvar: error: {exc}", file=sys.stderr)
        return 1
    # only a cochain read from a file can fail the cocycle check
    except _raised("repvar.cohomology", "NotACocycleError") as exc:
        print(f"repvar: error: {args.cochain}: not a parabolic cocycle ({exc})", file=sys.stderr)
        return 1
    except _raised("repvar.repspace", "IllConditionedError") as exc:
        code, body = 2, {"error": str(exc), "candidates": list(exc.candidates)}
    except _raised("repvar.repspace", "NoConvergenceError") as exc:
        print(f"repvar: no convergence: {exc}", file=sys.stderr)
        return 2
    except (*_raised("numpy.linalg", "LinAlgError"), FloatingPointError) as exc:
        print(f"repvar: numerical error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:  # numpy's failed or unsizable allocations
        unsizable = ("Maximum allowed dimension exceeded", "array is too big")  # numpy's words
        if isinstance(exc, ValueError) and not str(exc).startswith(unsizable):
            raise
        print(f"repvar: out of memory: {exc}", file=sys.stderr)
        return 2
    _emit({"verb": args.verb, "config": config, **body}, args.format)
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
