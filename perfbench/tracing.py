"""Per-layer tracing of the library, from outside it.

`instrument` replaces public functions and methods of the annulus modules
with wrappers that record spans or count calls in a `Recorder`, and returns
a function that puts the originals back. No library file changes. A module
that imported a function by name (`from .engine import decompose`) holds its
own reference, so every annulus module's reference to the same function is
replaced.

Hot leaves (Cyc arithmetic, representation actions, face actions) are only
counted: a span around each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

_NOW = time.perf_counter_ns


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    A span is (name, start_ns, end_ns, parent index or -1, call id); spans
    are stored in the order they start.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = _NOW()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, _NOW(), parent, self.call_id)
            self._stack.pop()

    def self_times(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name; self time is a span's
        duration minus that of its direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ns: defaultdict = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
        return dict(calls), {k: v / 1e9 for k, v in self_ns.items()}

    def write(self, path, meta: dict) -> None:
        """Spans as columns: a name table, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, call]
                for n, start, end, parent, call in self.spans]
        doc = {"meta": meta, "names": names,
               "columns": ["name", "start_ns", "end_ns", "parent", "call"],
               "spans": rows, "counters": dict(self.counters)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _annulus_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "annulus" or n.startswith("annulus."))]


def instrument(rec: Recorder):
    """Install the wrappers; returns a function that removes them."""
    from annulus import defects, engine, fusion, levinwen, linalg, reps
    from annulus import scalars, structures

    undo = []
    modules = _annulus_modules()
    count = rec.counters

    def replace_function(module, attr, wrap):
        orig = getattr(module, attr)
        new = functools.wraps(orig)(wrap(orig))
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, name, orig))
                    setattr(m, name, new)

    def replace_method(cls, attrs, wrap):
        orig = vars(cls)[attrs[0]]
        new = functools.wraps(orig)(wrap(orig))
        for attr in attrs:
            undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, new)

    def spanned(name, after=None):
        def wrap(orig):
            def wrapper(*args, **kwargs):
                result = rec.span(name, orig, *args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return wrap

    def counted(key):
        def wrap(orig):
            def wrapper(*args, **kwargs):
                count[key] += 1
                return orig(*args, **kwargs)
            return wrapper
        return wrap

    def after_enumerate(args, basis):
        count["engine.basis_vectors"] += len(basis)
        count["engine.empty_bases"] += not basis

    def after_quotient(args, _):
        qr = args[0]
        count["engine.grades"] += len(qr.grades)
        count["engine.quotient_dim"] += qr.total_dim()

    def after_decompose(args, out):
        if isinstance(out, list):
            count["engine.defect_hits"] += len(out)

    def after_driver(args, result):
        count["fusion.corner_assignments"] += len(result.outcomes)
        count["fusion.empty_supports"] += sum(
            1 for _, out in result.outcomes if not out)

    seen_patches = weakref.WeakSet()

    def after_basis(args, basis):
        if args[0] not in seen_patches:
            seen_patches.add(args[0])
            count["levinwen.basis_states"] += len(basis)

    for builder in ("vertical_compound", "horizontal_compound",
                    "associator_compound"):
        replace_function(structures, builder, spanned("structures.compound"))
    replace_function(engine, "enumerate_basis",
                     spanned("engine.enumerate_basis", after_enumerate))
    replace_method(engine.QuotientRep, ["__init__"],
                   spanned("engine.quotient", after_quotient))
    replace_function(engine, "decompose",
                     spanned("engine.decompose", after_decompose))
    replace_function(engine, "apply_idempotent",
                     counted("engine.defects_tried"))
    replace_method(linalg.ExactMatrix, ["__matmul__"], spanned("linalg.matmul"))
    replace_method(linalg.ExactMatrix, ["image_basis"],
                   spanned("linalg.image_basis"))
    replace_method(linalg.ExactMatrix, ["rank"], spanned("linalg.rank"))
    replace_function(linalg, "solve_in_span", spanned("linalg.solve_in_span"))
    replace_method(scalars.Cyc, ["__mul__", "__rmul__"],
                   counted("scalars.cyc_mul.calls"))
    replace_method(scalars.Cyc, ["sub_mul"], counted("scalars.cyc_mul.calls"))
    replace_method(scalars.Cyc, ["__add__"], counted("scalars.cyc_add.calls"))
    replace_method(reps.BivalentRep, ["act"], counted("reps.act.calls"))
    replace_method(reps.TrivalentRep, ["act"], counted("reps.act.calls"))
    replace_function(defects, "idempotent", spanned("defects.idempotent"))
    for driver in ("vertical_fuse", "horizontal_fuse", "associator"):
        replace_function(fusion, driver, spanned("fusion.driver", after_driver))
    replace_function(fusion, "infer_delta_constraints",
                     spanned("fusion.delta_inference"))
    replace_function(fusion, "check_associator_against_golden",
                     spanned("fusion.golden_check"))
    patch_cls = levinwen.LatticePatch
    replace_method(patch_cls, ["consistent_basis"],
                   spanned("levinwen.consistent_basis", after_basis))
    replace_method(patch_cls, ["assert_face_group_rep"],
                   spanned("levinwen.face_group_check"))
    replace_method(patch_cls, ["check_commutation"],
                   spanned("levinwen.commutation"))
    replace_method(patch_cls, ["ground_space_dim"], spanned("levinwen.trace"))
    replace_method(patch_cls, ["face_action"],
                   counted("levinwen.face_action.calls"))

    def remove():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return remove


def layer_metrics(rec: Recorder, names, speed: float) -> dict:
    """The per-layer metrics of BENCHMARK.json but trace.*, which only the
    caller can time: `<span>.calls` and `<span>.s` (self time, multiplied
    by `speed`), counters, and the ratios below."""
    calls, self_s = rec.self_times()
    c = rec.counters

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for name in names:
        if name.startswith("trace."):
            continue
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = c[name] + calls.get(base, 0)
        elif field == "s":
            out[name] = self_s.get(base, 0.0) * speed
        else:
            out[name] = c[name]
    out["engine.empty_basis_frac"] = frac(
        c["engine.empty_bases"], calls.get("engine.enumerate_basis", 0))
    out["engine.quotient_keep_frac"] = frac(
        c["engine.quotient_dim"], c["engine.basis_vectors"])
    out["engine.defect_hit_frac"] = frac(
        c["engine.defect_hits"], c["engine.defects_tried"])
    out["fusion.empty_support_frac"] = frac(
        c["fusion.empty_supports"], c["fusion.corner_assignments"])
    return out
