"""Span and counter tracing of chainring's layers, installed from outside.

The tracer replaces public functions and methods of chainring with wrappers
while it is installed, and puts the originals back when it is removed.  A
module-level function is replaced in every loaded module that holds it (the
module that defines it, the modules that imported it by name, the package
namespace), so calls between chainring's own modules are seen too.

Two kinds of wrapper:

* a *span* records (name, start, end, parent, root, error) for each call
  and can run an observer on the result to update counters;
* a *counter* only counts calls.  Ring arithmetic runs millions of times a
  pass, so it is counted, not spanned.

Spans stay in memory until ``write_spans``.  Each benchmark operation runs
under a ``bench.operation`` root span, so the spans of one operation share
its index as ``root``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span record layout
NAME, START, END, PARENT, ROOT, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.basis_size_max = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def span_wrapper(self, name, fn, observe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            root = spans[parent][ROOT] if parent >= 0 else len(spans)
            idx = len(spans)
            record = [name, clock(), 0.0, parent, root, None]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if observe is not None:
                observe(self, record, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def operation(self, fn, *args):
        """Run one benchmark operation under a root span."""
        return self.span_wrapper("bench.operation", fn)(*args)

    # -- installation ------------------------------------------------------------

    def patch_function(self, module, attr, make):
        """Replace module.attr in every chainring module (and the benchmark's
        own workloads module) that holds the same object."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chainring" or mod_name.startswith("chainring.") or mod_name == "workloads"):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------------

    def children(self):
        out = defaultdict(list)
        for idx, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                out[s[PARENT]].append(idx)
        return out

    def inclusive_seconds(self, names) -> float:
        """Wall time inside calls of the named spans; a call nested in
        another call of the same set is not counted twice."""
        names = set(names)
        total = 0.0
        for s in self.spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            nested = False
            while p >= 0:
                if self.spans[p][NAME] in names:
                    nested = True
                    break
                p = self.spans[p][PARENT]
            if not nested:
                total += s[END] - s[START]
        return total

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """A span's self time is its duration minus its direct children's;
        a layer's self time is the sum over its spans.  The layer is the
        span name up to the first dot."""
        kids = self.children()
        out: defaultdict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            own = s[END] - s[START]
            for c in kids.get(idx, ()):
                own -= self.spans[c][END] - self.spans[c][START]
            out[s[NAME].split(".", 1)[0]] += own
        return dict(out)

    def nesting_violations(self) -> int:
        """Spans that do not close inside their parent (should be 0)."""
        bad = 0
        for s in self.spans:
            if s[END] < s[START]:
                bad += 1
            elif s[PARENT] >= 0:
                p = self.spans[s[PARENT]]
                if not (p[START] <= s[START] and s[END] <= p[END]):
                    bad += 1
        return bad

    def write_spans(self, path):
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "root": s[ROOT], "error": s[ERROR]}))
                fh.write("\n")


# -- the chainring layers ------------------------------------------------------------


def _observe_strong_reduce(tracer, record, args, result):
    parent = record[PARENT]
    if parent < 0 or tracer.spans[parent][NAME] != "groebner.buchberger":
        return
    # a head reduction of buchberger's pair loop (or of its input pass)
    tracer.counts["groebner.head_reductions"] += 1
    basis = args[1] if len(args) > 1 else None
    size = len(basis) if isinstance(basis, (list, tuple)) else 0
    if result.is_zero():
        tracer.counts["groebner.zero_reductions"] += 1
    else:
        size += 1  # buchberger appends the nonzero remainder
    tracer.basis_size_max = max(tracer.basis_size_max, size)


SOLVERS = ("solve.solve_system", "localring.solve_local_system")


def _observe_solutions(tracer, record, args, result):
    """Count the tuples an outermost solver call returns: calls nested in
    another solver call (CRT components, the local ring's inner system) are
    left out, and a free coordinate counts as every element of the ring."""
    p = record[PARENT]
    while p >= 0:
        if tracer.spans[p][NAME] in SOLVERS:
            return
        p = tracer.spans[p][PARENT]
    tracer.counts["solve.solution_tuples"] += result.count() if record[NAME] == SOLVERS[0] else len(result)


def install(tracer: Tracer):
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from chainring import extension, groebner, linalg, localring, minrank, polys, rankdecode, rings, solve

    def span(name, observe=None):
        return lambda fn: tracer.span_wrapper(name, fn, observe)

    def count(name):
        return lambda fn: tracer.count_wrapper(name, fn)

    # rings: counted on every class that defines the operation
    for cls in (rings.ChainRing, rings.Zpk, rings.ExtensionChainRing, rings.ProductRing,
                localring.LocalRingPresentation):
        if "mul" in cls.__dict__:
            tracer.patch_method(cls, "mul", count("rings.mul_calls"))
        if "invert" in cls.__dict__:
            tracer.patch_method(cls, "invert", count("rings.invert_calls"))

    tracer.patch_function(polys, "strong_reduce", span("polys.strong_reduce", _observe_strong_reduce))

    tracer.patch_function(groebner, "buchberger", span("groebner.buchberger"))
    tracer.patch_function(groebner, "interreduce", span("groebner.interreduce"))
    tracer.patch_function(groebner, "s_polynomial", count("groebner.s_polynomials"))
    tracer.patch_function(groebner, "a_polynomial", count("groebner.a_polynomials"))

    tracer.patch_function(solve, "solve_system", span("solve.solve_system", _observe_solutions))
    tracer.patch_function(solve, "univariate_roots", span("solve.univariate_roots"))

    tracer.patch_function(localring, "solve_local_system", span("localring.solve_local_system", _observe_solutions))

    tracer.patch_function(linalg, "hermite_form", span("linalg.hermite_form"))
    tracer.patch_function(linalg, "smith_normal_form", span("linalg.smith_normal_form"))

    tracer.patch_method(extension.GaloisExtension, "frobenius", count("extension.frobenius_calls"))
    tracer.patch_function(extension, "vector_rank", span("extension.vector_rank"))

    tracer.patch_function(minrank, "ks_model", span("minrank.ks_model"))
    tracer.patch_function(minrank, "solve_minrank", span("minrank.solve_minrank"))
    tracer.patch_method(minrank.MinRankInstance, "is_solution", span("minrank.is_solution"))

    tracer.patch_function(rankdecode, "decode", span("rankdecode.decode"))
    tracer.patch_function(rankdecode, "solve_key_linearization", span("rankdecode.linearization"))
    tracer.patch_function(rankdecode, "solve_sm_rd", span("rankdecode.sm"))


LAYERS = ("polys", "groebner", "solve", "localring", "linalg", "extension", "minrank", "rankdecode")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass, by metric name."""
    c = tracer.counts
    head = c["groebner.head_reductions"]
    zero = c["groebner.zero_reductions"]
    out = {
        "rings.mul_calls": c["rings.mul_calls"],
        "rings.invert_calls": c["rings.invert_calls"],
        "polys.strong_reduce_calls": tracer.calls("polys.strong_reduce"),
        "polys.strong_reduce_s": tracer.inclusive_seconds(["polys.strong_reduce"]),
        "groebner.buchberger_calls": tracer.calls("groebner.buchberger"),
        "groebner.buchberger_s": tracer.inclusive_seconds(["groebner.buchberger"]),
        "groebner.s_polynomials": c["groebner.s_polynomials"],
        "groebner.a_polynomials": c["groebner.a_polynomials"],
        "groebner.head_reductions": head,
        "groebner.zero_reductions": zero,
        "groebner.useful_reduction_ratio": (head - zero) / head if head else 0.0,
        "groebner.interreduce_s": tracer.inclusive_seconds(["groebner.interreduce"]),
        "groebner.basis_size_max": tracer.basis_size_max,
        "solve.solve_system_calls": tracer.calls("solve.solve_system"),
        "solve.solve_system_s": tracer.inclusive_seconds(["solve.solve_system"]),
        "solve.univariate_roots_s": tracer.inclusive_seconds(["solve.univariate_roots"]),
        "solve.solution_tuples": c["solve.solution_tuples"],
        "localring.solve_local_system_s": tracer.inclusive_seconds(["localring.solve_local_system"]),
        "linalg.hermite_form_calls": tracer.calls("linalg.hermite_form"),
        "linalg.hermite_form_s": tracer.inclusive_seconds(["linalg.hermite_form"]),
        "linalg.smith_normal_form_calls": tracer.calls("linalg.smith_normal_form"),
        "linalg.smith_normal_form_s": tracer.inclusive_seconds(["linalg.smith_normal_form"]),
        "extension.frobenius_calls": c["extension.frobenius_calls"],
        "extension.vector_rank_s": tracer.inclusive_seconds(["extension.vector_rank"]),
        "minrank.model_s": tracer.inclusive_seconds(["minrank.ks_model"]),
        "minrank.is_solution_s": tracer.inclusive_seconds(["minrank.is_solution"]),
        "rankdecode.linearization_s": tracer.inclusive_seconds(["rankdecode.linearization"]),
        "rankdecode.linearization_inconclusive": sum(
            1 for s in tracer.spans if s[NAME] == "rankdecode.linearization" and s[ERROR] == "Inconclusive"
        ),
        "rankdecode.sm_s": tracer.inclusive_seconds(["rankdecode.sm"]),
    }
    self_s = tracer.self_seconds_by_layer()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
