"""Spans around the public functions of each repvar layer, recorded from outside.

The tracer wraps a fixed list of layer functions.  Modules import names
directly (`jets` and `cohomology` both bind `order_defect`, `repspace` and
`cohomology` both bind `ad_matrix`, ...), so one wrapper replaces every
binding of a function in every loaded `repvar` module, and `restore` puts
the originals back.  `install` fails if any binding is left unwrapped.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory until `write`.  Self time is a span's duration minus the durations
of its direct children; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute)
TARGETS = {
    "truncring.matmul": ("repvar.truncring", "MatrixJet.__matmul__"),
    "truncring.exp_series": ("repvar.truncring", "exp_series"),
    "truncring.word_jet": ("repvar.truncring", "word_jet"),
    "truncring.unitary_generator_jet": ("repvar.truncring", "unitary_generator_jet"),
    "unitary.ad_matrix": ("repvar.unitary", "ad_matrix"),
    "unitary.exponential": ("repvar.unitary", "exponential"),
    "presentation.parse": ("repvar.presentation", "parse_presentation"),
    "repspace.transport_matrix": ("repvar.repspace", "transport_matrix"),
    "repspace.find": ("repvar.repspace", "find_representation"),
    "repspace.refine": ("repvar.repspace", "refine"),
    "cohomology.assemble_complex": ("repvar.cohomology", "assemble_complex"),
    "cohomology.h1_basis": ("repvar.cohomology", "h1_basis"),
    "cohomology.order_defect": ("repvar.cohomology", "order_defect"),
    "cohomology.obstruction": ("repvar.cohomology", "obstruction"),
    "cohomology.pairing_tensor": ("repvar.cohomology", "pairing_tensor"),
    "jets.lift": ("repvar.jets", "lift"),
    "jets.probe_cone": ("repvar.jets", "probe_cone"),
}

# Bindings made by `from ... import` that a wrapper on the defining module
# alone would miss; install checks that each of them was wrapped.
REQUIRED_BINDINGS = {
    ("repvar.jets", "order_defect"),
    ("repvar.cohomology", "order_defect"),
    ("repvar.cohomology", "word_jet"),
    ("repvar.cohomology", "exp_series"),
    ("repvar.cohomology", "unitary_generator_jet"),
    ("repvar.repspace", "ad_matrix"),
    ("repvar.cohomology", "ad_matrix"),
}

_NO_RESULT = object()


class CoverageError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.op_names: list[str] = []
        self.extra: dict[int, object] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list = []
        self.bindings = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "repvar" or name.startswith("repvar.")]
        originals = {}
        for idx, span in enumerate(self.names):
            modname, attr = TARGETS[span]
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(idx, orig))
                self._patched.append((cls, meth, orig))
            else:
                orig = getattr(owner, attr)
                wrapper = self._wrap(idx, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, orig))
            originals[id(orig)] = span
        leftover = [f"{mod.__name__}.{key}" for mod in modules
                    for key, value in vars(mod).items() if id(value) in originals]
        patched = {(getattr(m, "__name__", ""), k) for m, k, _ in self._patched}
        missing = sorted(f"{m}.{k}" for m, k in REQUIRED_BINDINGS - patched)
        if leftover or missing:
            self.restore()
            raise CoverageError(f"unwrapped bindings {leftover}, missing bindings {missing}")
        self.bindings = len(self._patched)

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def start_op(self, name: str) -> None:
        self.op = len(self.op_names)
        self.op_names.append(name)

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = getattr(self, "_note_" + self.names[idx].split(".", 1)[1], None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = _NO_RESULT
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, tracer.op)
                if note is not None:
                    note(sid, args, kwargs, result)

        return wrapper

    # -- counts taken at the same boundaries ---------------------------------

    def _note_matmul(self, sid, args, kwargs, result):
        k1, n = args[0].coeffs.shape[:2]
        products = k1 * (k1 + 1) // 2          # (k+1)(k+2)/2 for order k
        self.counts["truncring.coeff_products"] += products
        self.counts["truncring.flops_computed"] += products * 8 * n ** 3

    def _note_order_defect(self, sid, args, kwargs, result):
        self.extra[sid] = args[3] if len(args) > 3 else kwargs["m"]

    def _note_lift(self, sid, args, kwargs, result):
        order = args[2] if len(args) > 2 else kwargs["order"]
        if result is not _NO_RESULT:
            self.extra[sid] = (order, result.achieved_order, result.budget_exceeded,
                               result.succeeded)

    def _note_find(self, sid, args, kwargs, result):
        self.extra[sid] = result is not _NO_RESULT

    def _note_probe_cone(self, sid, args, kwargs, result):
        if result is not _NO_RESULT and not result.prediction_holds:
            self.counts["jets.probe_cone.prediction_failures"] += 1

    def _note_pairing_tensor(self, sid, args, kwargs, result):
        if result is not _NO_RESULT:
            self.counts["cohomology.pairing_tensor.entries"] += len(result.entries)

    # -- aggregation ---------------------------------------------------------

    def _nearest(self, sid: int, name_idx: int) -> int:
        parent = self.spans[sid][3]
        while parent >= 0 and self.spans[parent][0] != name_idx:
            parent = self.spans[parent][3]
        return parent

    def layer_totals(self) -> tuple[dict, list[str]]:
        """Per-layer calls, self times, counts and ratios over every span
        recorded; also the problems found by the exact-count checks."""
        n = len(self.spans)
        child = [0.0] * n
        for idx, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, (idx, t0, t1, _, _) in enumerate(self.spans):
            name = self.names[idx]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child[sid]
        out.update(self.counts)

        lift_idx = self.names.index("jets.lift")
        pair_idx = self.names.index("cohomology.pairing_tensor")
        find_idx = self.names.index("repspace.find")
        od_idx = self.names.index("cohomology.order_defect")
        refine_idx = self.names.index("repspace.refine")
        under_lift = defaultdict(list)
        under_pairing = 0
        find_attempts = 0
        for sid, span in enumerate(self.spans):
            if span[0] == od_idx:
                lift_sid = self._nearest(sid, lift_idx)
                if lift_sid >= 0:
                    under_lift[lift_sid].append(self.extra[sid])
                elif self._nearest(sid, pair_idx) >= 0:
                    under_pairing += 1
            elif span[0] == refine_idx and self._nearest(sid, find_idx) >= 0:
                find_attempts += 1

        problems = []
        evaluated = requested = achieved = exact = 0
        for sid, span in enumerate(self.spans):
            if span[0] != lift_idx or sid not in self.extra:
                continue
            order, got, exceeded, succeeded = self.extra[sid]
            requested += order
            achieved += got
            out["jets.lift.budget_exceeded"] += int(exceeded)
            evaluated += got - 1 + (0 if succeeded else 1)
            ms = under_lift.get(sid, [])
            if succeeded:
                expected = list(range(2, order + 1))
                exact += ms == expected
                # a budget retry re-evaluates earlier orders, so only then
                # may a successful lift make more than k - 1 calls
                if ms != expected and not (len(ms) > len(expected) and set(ms) == set(expected)):
                    problems.append(
                        f"lift to order {order} ({self.op_names[span[4]]}) made order_defect "
                        f"calls at orders {ms}, expected exactly {expected}")
        out["jets.lift.orders_requested"] = requested
        out["jets.lift.orders_achieved"] = achieved
        out["jets.lift.orders_evaluated"] = evaluated
        out["jets.lift.exact_count_lifts"] = exact
        out["jets.lift.achieved_ratio"] = achieved / requested if requested else 0.0
        out["jets.lift.order_defect_per_order"] = (
            sum(len(v) for v in under_lift.values()) / evaluated if evaluated else 0.0)
        entries = out["cohomology.pairing_tensor.entries"]
        out["cohomology.order_defect.per_pairing_entry"] = (
            under_pairing / entries if entries else 0.0)
        finds_ok = sum(1 for sid, s in enumerate(self.spans)
                       if s[0] == find_idx and self.extra.get(sid))
        out["repspace.find.attempts"] = find_attempts
        out["repspace.find.success_ratio"] = finds_ok / find_attempts if find_attempts else 0.0
        return dict(out), problems

    def write(self, path) -> None:
        data = {"names": self.names, "ops": self.op_names,
                "columns": ["name", "start", "end", "parent", "op"], "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)
