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

Reports are JSON by default (deterministic: sorted keys, no timestamps) and
embed the full effective configuration.  Exit codes: 0 success, 1 input or
usage errors, 2 constraint or verdict failures (NotFound, NoConvergence,
failed lift, violated probe prediction, invalid representation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cohomology, jets
from .cohomology import IllConditionedError, NotACocycleError
from .presentation import ParseError, parse_presentation, serialize_presentation
from .repspace import (
    NoConvergenceError,
    NotFoundError,
    commutant_dimension,
    constraint_residual,
    find_representation,
    rep_from_json,
    rep_to_json,
)
from .unitary import SKEW_TOL, is_skew_hermitian, matrix_from_json, matrix_to_json


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


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc.msg})") from None


def _load_presentation(path: str):
    try:
        return parse_presentation(_read_text(path))
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_representation(pres, path: str):
    data = _read_json(path)
    if isinstance(data, dict) and "representation" in data:
        data = data["representation"]  # accept a `find` report envelope
    try:
        return rep_from_json(pres, data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_cochain(pres, path: str):
    data = _read_json(path)
    gens = data.get("generator_part") if isinstance(data, dict) else None
    if gens is None:
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
    return {
        "generator_part": {
            name: matrix_to_json(m) for name, m in zip(pres.generators, mats)
        },
        "conjugator_part": {},
    }


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(sub)}")
    elif isinstance(value, list):
        for sub in value:
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(sub)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


def _config(args, keys) -> dict:
    cfg = {key: getattr(args, key) for key in keys}
    cfg["rank_threshold"] = args.rank_tol
    cfg["format"] = args.format
    return cfg


def _cmd_validate(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    report = {
        "verb": "validate",
        "config": _config(args, ()),
        "presentation": pres.name,
        "normalized": serialize_presentation(pres),
        "warnings": list(pres.warnings),
    }
    return 0, report


def _cmd_find(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    cfg = _config(args, ("seed", "attempts", "tol"))
    try:
        rep = find_representation(pres, seed=args.seed, attempts=args.attempts,
                                  target_tolerance=args.tol)
    except NotFoundError as exc:
        return 2, {"verb": "find", "config": cfg, "found": False, "error": str(exc)}
    payload = rep_to_json(rep)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    res = constraint_residual(rep)
    report = {
        "verb": "find",
        "config": cfg,
        "found": True,
        "max_residual": res.max,
        "representation": payload,
    }
    return 0, report


def _cmd_check(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    rep = _load_representation(pres, args.representation)
    res = constraint_residual(rep)
    dim = commutant_dimension(rep, rank_rtol=args.rank_tol)
    tol = rep.tolerance if args.tol is None else args.tol
    valid = res.max <= tol
    report = {
        "verb": "check",
        "config": _config(args, ("tol",)),
        "relator_residuals": list(res.relator_residuals),
        "peripheral_residuals": list(res.peripheral_residuals),
        "max_residual": res.max,
        "tolerance": tol,
        "valid": valid,
        "commutant_dimension": dim,
        "irreducible": dim == 1,
    }
    return (0 if valid else 2), report


def _cmd_tangent(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    rep = _load_representation(pres, args.representation)
    cfg = _config(args, ())
    try:
        cc = cohomology.assemble_complex(rep, rank_rtol=args.rank_tol)
        basis = cohomology.h1_basis(cc)
    except IllConditionedError as exc:
        return 2, {"verb": "tangent", "config": cfg, "error": str(exc),
                   "candidates": list(exc.candidates)}
    report = {
        "verb": "tangent",
        "config": cfg,
        "dims": basis.dims.to_json(),
        "h1_par": basis.dims.h1_par,
        "basis": [_cochain_json(pres, vec) for vec in basis.vectors],
    }
    return 0, report


def _cmd_pairing(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    rep = _load_representation(pres, args.representation)
    cfg = _config(args, ("tol",))
    try:
        cc = cohomology.assemble_complex(rep, rank_rtol=args.rank_tol)
        basis = cohomology.h1_basis(cc)
        tensor = cohomology.pairing_tensor(cc, basis, tolerance=args.tol)
    except IllConditionedError as exc:
        return 2, {"verb": "pairing", "config": cfg, "error": str(exc)}
    entries = [
        {"i": i, "j": j, "coordinates": [float(c) for c in e.coordinates], "norm": e.norm}
        for (i, j), e in sorted(tensor.entries.items())
    ]
    report = {
        "verb": "pairing",
        "config": cfg,
        "basis_size": len(basis),
        "entries": entries,
        "max_norm": tensor.max_norm(),
        "verdict": tensor.verdict,
        "smooth_by_cup_product_criterion": tensor.verdict,
    }
    return 0, report


def _cmd_obstruct(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    rep = _load_representation(pres, args.representation)
    umats = _load_cochain(pres, args.cochain)
    cfg = _config(args, ())
    try:
        cc = cohomology.assemble_complex(rep, rank_rtol=args.rank_tol)
        obs = cohomology.obstruction(cc, umats)
    except NotACocycleError as exc:
        raise InputError(f"{args.cochain}: not a parabolic cocycle ({exc})") from None
    except IllConditionedError as exc:
        return 2, {"verb": "obstruct", "config": cfg, "error": str(exc)}
    report = {
        "verb": "obstruct",
        "config": cfg,
        "obstruction": obs.to_json(),
    }
    return 0, report


def _cmd_lift(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    rep = _load_representation(pres, args.representation)
    umats = _load_cochain(pres, args.cochain)
    cfg = _config(args, ("order", "tol", "seed", "budget"))
    opts = jets.LiftOptions(tolerance=args.tol, budget=args.budget, seed=args.seed)
    try:
        cc = cohomology.assemble_complex(rep, rank_rtol=args.rank_tol)
        result = jets.lift(cc, umats, args.order, opts)
    except NotACocycleError as exc:
        raise InputError(f"{args.cochain}: not a parabolic cocycle ({exc})") from None
    except IllConditionedError as exc:
        return 2, {"verb": "lift", "config": cfg, "error": str(exc)}
    report = {"verb": "lift", "config": cfg, "report": result.to_json()}
    return (0 if result.succeeded else 2), report


def _cmd_probe(args) -> tuple[int, dict]:
    pres = _load_presentation(args.presentation)
    rep = _load_representation(pres, args.representation)
    cfg = _config(args, ("samples", "order", "seed", "tol", "budget"))
    try:
        cc = cohomology.assemble_complex(rep, rank_rtol=args.rank_tol)
        basis = cohomology.h1_basis(cc)
        result = jets.probe_cone(cc, basis, samples=args.samples, order=args.order,
                                 seed=args.seed, tolerance=args.tol, budget=args.budget)
    except IllConditionedError as exc:
        return 2, {"verb": "probe", "config": cfg, "error": str(exc)}
    report = {"verb": "probe", "config": cfg, "report": result.to_json()}
    return (0 if result.prediction_holds else 2), report


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repvar",
                     description="constrained unitary representation varieties at desk scale")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, tol=None, seed=False, min_order=0, attempts=False,
               samples=False, budget=False, out=False, representation=False,
               cochain=False):
        p.add_argument("presentation", help="presentation file (.grp)")
        if representation:
            p.add_argument("representation", help="representation JSON file")
        if cochain:
            p.add_argument("cochain", help="cochain JSON file (generator_part)")
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, default=tol)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if min_order:
            p.add_argument("--order", type=_int_from(min_order), default=4)
        if attempts:
            p.add_argument("--attempts", type=_int_from(1), default=50)
        if samples:
            p.add_argument("--samples", type=_int_from(1), default=50)
        if budget:
            p.add_argument("--budget", type=_int_from(0), default=3)
        if out:
            p.add_argument("--out", default=None, help="also write the bare representation JSON here")
        p.add_argument("--rank-tol", dest="rank_tol", default=1e-8,
                       type=_ranged(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)"),
                       help="relative singular-value threshold for rank decisions")
        p.add_argument("--format", choices=("json", "text"), default="json")

    common(sub.add_parser("validate", help="parse and echo a presentation"))
    common(sub.add_parser("find", help="search for a valid representation"),
           tol=1e-10, seed=True, attempts=True, out=True)
    common(sub.add_parser("check", help="residuals and commutant dimension"),
           tol=None, representation=True)
    sub.choices["check"].add_argument("--tol", type=_tolerance, default=None)
    common(sub.add_parser("tangent", help="cohomology dimensions and basis"),
           representation=True)
    common(sub.add_parser("pairing", help="cup-product pairing tensor and verdict"),
           tol=1e-8, representation=True)
    common(sub.add_parser("obstruct", help="obstruction class of a cocycle"),
           representation=True, cochain=True)
    common(sub.add_parser("lift", help="order-by-order jet lifting of a cocycle"),
           tol=1e-7, seed=True, min_order=1, budget=True, representation=True, cochain=True)
    common(sub.add_parser("probe", help="random cone probe of quadraticity"),
           tol=1e-7, seed=True, min_order=2, samples=True, budget=True, representation=True)
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "find": _cmd_find,
    "check": _cmd_check,
    "tangent": _cmd_tangent,
    "pairing": _cmd_pairing,
    "obstruct": _cmd_obstruct,
    "lift": _cmd_lift,
    "probe": _cmd_probe,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = _COMMANDS[args.verb](args)
    except InputError as exc:
        print(f"repvar: error: {exc}", file=sys.stderr)
        return 1
    except NoConvergenceError as exc:
        print(f"repvar: no convergence: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
