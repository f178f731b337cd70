"""Spans and counters around the public entry points of each dunklcm module.

The tracer patches functions from outside the program: a module-level
function is replaced in every ``dunklcm`` module namespace that holds it
(``cli`` imports ``solve_multiplicities`` by name, ``dunkl`` and
``complexgroups`` import ``divide_by_linear``), and a method is replaced on
its class under every name bound to it (``__mul__`` and its ``__rmul__``
alias get one wrapper).  ``uninstall`` puts every original back.

Spans stay in memory, tagged with the job id, until ``write_spans``.
Field arithmetic gets counters only: its calls take well under a
microsecond, and timing them would distort every span above them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path)
ENTRY_POINTS = {
    "cli.main": ("dunklcm.cli", "main"),
    "cli.resolve_subgraph": ("dunklcm.cli", "resolve_subgraph"),
    "invariance.solve_multiplicities": ("dunklcm.invariance", "solve_multiplicities"),
    "invariance.criterion_invariant": ("dunklcm.invariance", "criterion_invariant"),
    "invariance.direct_invariance_violations": ("dunklcm.invariance", "direct_invariance_violations"),
    "restriction.restricted_configuration": ("dunklcm.restriction", "restricted_configuration"),
    "restriction.restriction_defects": ("dunklcm.restriction", "restriction_defects"),
    "restriction.gauge_defects": ("dunklcm.restriction", "gauge_defects"),
    "restriction.catalog_row_result": ("dunklcm.restriction", "catalog_row_result"),
    "rootsystems.root_system": ("dunklcm.rootsystems", "root_system"),
    "rootsystems.orbit_of_subspace": ("dunklcm.rootsystems", "orbit_of_subspace"),
    "rootsystems.enumerate_parabolic_strata": ("dunklcm.rootsystems", "enumerate_parabolic_strata"),
    "rootsystems.generalized_coxeter_number": ("dunklcm.rootsystems", "generalized_coxeter_number"),
    "rootsystems.subspace": ("dunklcm.rootsystems", "Subspace.__init__"),
    "dunkl.apply": ("dunklcm.dunkl", "DunklContext.apply"),
    "dunkl.reflect_poly": ("dunklcm.dunkl", "DunklContext.reflect_poly"),
    "complexgroups.apply": ("dunklcm.complexgroups", "ComplexDunklContext.apply"),
    "complexgroups.subspace_orbit": ("dunklcm.complexgroups", "subspace_orbit"),
    "complexgroups.direct_ideal_violations": ("dunklcm.complexgroups", "direct_ideal_violations"),
    "linalg.rref": ("dunklcm.linalg", "rref"),
    "linalg.nullspace": ("dunklcm.linalg", "nullspace"),
    "polynomials.mul": ("dunklcm.polynomials", "Polynomial.__mul__"),
    "polynomials.add": ("dunklcm.polynomials", "Polynomial.__add__"),
    "polynomials.divide_by_linear": ("dunklcm.polynomials", "divide_by_linear"),
    "polynomials.substitute": ("dunklcm.polynomials", "Polynomial.substitute"),
}

# counter name -> (module, attribute path); counted, never timed
COUNTED = {
    "fields.mul": ("dunklcm.fields", "FieldElement.__mul__"),
    "fields.add": ("dunklcm.fields", "FieldElement.__add__"),
    "fields.inverse": ("dunklcm.fields", "FieldElement.inverse"),
    "rootsystems.subspace_reflect": ("dunklcm.rootsystems", "Subspace.reflect"),
}

FIELD_KINDS = {"rational": "Q", "quadratic": "quadratic", "cyclotomic": "cyclotomic"}

# every per-layer metric, with its unit, in report order
PER_LAYER = [
    ("dunkl.apply.calls", "count"),
    ("dunkl.apply.total_s", "s"),
    ("dunkl.reflect_poly.calls", "count"),
    ("dunkl.reflect_poly.total_s", "s"),
    ("dunkl.reflect_memo_hit_ratio", "ratio"),
    ("complexgroups.apply.calls", "count"),
    ("complexgroups.apply.total_s", "s"),
    ("complexgroups.subspace_orbit.total_s", "s"),
    ("complexgroups.orbit_members", "count"),
    ("complexgroups.direct_ideal_violations.total_s", "s"),
    *[(f"polynomials.{op}.{stat}", unit)
      for op in ("mul", "add", "divide_by_linear", "substitute")
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("polynomials.mul.terms_out", "count"),
    *[(f"fields.{op}.{kind}.calls", "count")
      for op in ("mul", "add", "inverse")
      for kind in ("Q", "quadratic", "cyclotomic")],
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.nullspace.self_s", "s"),
    ("rootsystems.root_system.total_s", "s"),
    ("rootsystems.orbit_of_subspace.calls", "count"),
    ("rootsystems.orbit_of_subspace.total_s", "s"),
    ("rootsystems.orbit_members", "count"),
    ("rootsystems.subspace.calls", "count"),
    ("rootsystems.orbit_new_ratio", "ratio"),
    ("rootsystems.enumerate_parabolic_strata.total_s", "s"),
    ("rootsystems.generalized_coxeter_number.calls", "count"),
    *[(f"invariance.{fn}.{stat}", unit)
      for fn in ("solve_multiplicities", "criterion_invariant", "direct_invariance_violations")
      for stat, unit in (("calls", "count"), ("total_s", "s"))],
    *[(f"restriction.{fn}.{stat}", unit)
      for fn in ("restricted_configuration", "restriction_defects", "gauge_defects", "catalog_row_result")
      for stat, unit in (("calls", "count"), ("total_s", "s"))],
    ("cli.main.self_s", "s"),
    ("cli.resolve_subgraph.calls", "count"),
    ("cli.resolve_subgraph.total_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

MAX_SPANS = 100_000


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.job = ""
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.field_counts: Counter = Counter()  # (op, field kind) -> calls
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._active: Counter = Counter()
        self._orbit_reflects: list[int] = []  # reflect count when each open orbit began
        self._next_id = 1
        self._patches: list[tuple] = []
        self.origin = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stats = self.stats[name]
        stack = self._stack
        active = self._active
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                took = end - start
                if stack:
                    stack[-1][0] += took
                stats[0] += 1
                stats[2] += took - frame[0]
                if not active[name]:  # inclusive time of the outermost call only
                    stats[1] += took
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, tracer.job, name, start, end))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _field_counter(self, op, fn):
        counts = self.field_counts

        def wrapper(self_, *args):
            counts[(op, self_.field.kind)] += 1
            return fn(self_, *args)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the ratios and sizes ------------------------------------

    def _memo_probe(self, args):
        ctx, line, f = args[0], args[1], args[2]
        memo = getattr(ctx, "_mono_cache", {}).get(line, {})
        self.counts["reflect_terms"] += len(f.terms)
        self.counts["reflect_memo_hits"] += sum(1 for exps in f.terms if exps in memo)

    def _mul_terms(self, args, result):
        terms = getattr(result, "terms", None)  # None for NotImplemented
        if terms is not None:
            self.counts["mul_terms_out"] += len(terms)

    def _orbit_start(self, args):
        self._orbit_reflects.append(self.counts["rootsystems.subspace_reflect"])

    def _orbit_done(self, args, result):
        before = self._orbit_reflects.pop()
        self.counts["orbit_reflections"] += self.counts["rootsystems.subspace_reflect"] - before
        self.counts["orbit_members"] += len(result)
        self.counts["orbit_new"] += len(result) - 1

    def _complex_orbit_done(self, args, result):
        self.counts["complex_orbit_members"] += len(result)

    # -- install / uninstall -----------------------------------------------

    def _patch(self, module, path, make):
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        if isinstance(owner, type):
            targets = [(owner, name) for name, value in vars(owner).items() if value is original]
        else:
            targets = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "dunklcm" or mod_name.startswith("dunklcm."))
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for target, name in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    def install(self) -> None:
        hooks = {
            "dunkl.reflect_poly": (self._memo_probe, None),
            "polynomials.mul": (None, self._mul_terms),
            "rootsystems.orbit_of_subspace": (self._orbit_start, self._orbit_done),
            "complexgroups.subspace_orbit": (None, self._complex_orbit_done),
        }
        for name, (module, path) in ENTRY_POINTS.items():
            before, after = hooks.get(name, (None, None))
            self._patch(module, path, lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))
        for name, (module, path) in COUNTED.items():
            if name.startswith("fields."):
                op = name.split(".")[1]
                self._patch(module, path, lambda fn, op=op: self._field_counter(op, fn))
            else:
                self._patch(module, path, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        stats, counts = self.stats, self.counts
        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            head, _, stat = name.rpartition(".")
            if stat in ("calls", "total_s", "self_s") and head in stats:
                out[name] = stats[head][("calls", "total_s", "self_s").index(stat)]
            elif stat == "calls" and head.startswith("fields."):
                _, op, kind = head.split(".")
                out[name] = sum(
                    n for (o, k), n in self.field_counts.items() if o == op and FIELD_KINDS[k] == kind
                )
            else:
                out[name] = 0
        out["dunkl.reflect_memo_hit_ratio"] = _ratio(counts["reflect_memo_hits"], counts["reflect_terms"])
        out["polynomials.mul.terms_out"] = counts["mul_terms_out"]
        out["rootsystems.orbit_members"] = counts["orbit_members"]
        out["rootsystems.orbit_new_ratio"] = _ratio(counts["orbit_new"], counts["orbit_reflections"])
        out["complexgroups.orbit_members"] = counts["complex_orbit_members"]
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans),
                                 "spans_dropped": self.spans_dropped,
                                 "fields": ["id", "parent", "job", "name", "start_s", "end_s"]}) + "\n")
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, job, name,
                                     round(start - self.origin, 7), round(end - self.origin, 7)]) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
