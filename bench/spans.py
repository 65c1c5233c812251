"""Spans and counts around eqdom's public functions, for the traced run.

install() replaces each function named in SPANS by a wrapper in every eqdom
module namespace that holds it: the modules use from-imports, so
geometry.closure calls the clone_closure bound in geometry, not the one in
terms.  Spans (name, parent, start, end, phase) and counts stay in memory
until dump().  Per-point helpers (evaluate, all_points, point_index) are left
unwrapped; compose is counted without a span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPANS = [
    ("catalog", "by_name"),
    ("semigroup", "parse_cayley_table"),
    ("semigroup", "validate"),
    ("semigroup", "natural_order"),
    ("semigroup", "wagner_preston"),
    ("semigroup", "hasse_dot"),
    ("terms", "parse"),
    ("terms", "flatten"),
    ("terms", "clone_closure"),
    ("geometry", "solution_set"),
    ("geometry", "closure"),
    ("geometry", "is_algebraic"),
    ("geometry", "ed_verdict"),
    ("geometry", "lemma4_check"),
    ("geometry", "lemma5_check"),
    ("geometry", "rosenblatt_check"),
    ("geometry", "validate_certificate"),
    ("cli", "main"),
]
COUNTED = [("partialmap", "compose")]

# Per-layer metrics in report order; "<span>_s" is inclusive time,
# "<span>_self_s" excludes nested spans, "<span>_calls" counts calls.
LAYER_METRICS = [
    ("cli.import_s", "s"), ("cli.numpy_import_s", "s"), ("cli.main_s", "s"),
    ("terms.clone_closure_s", "s"), ("terms.clone_closure_calls", "count"),
    ("terms.clone_closure_hits", "count"), ("terms.clone_tables", "count"),
    ("terms.clone_cells", "count"), ("terms.clone_truncated", "count"),
    ("terms.clone_wasted_cells", "count"),
    ("geometry.closure_s", "s"), ("geometry.closure_self_s", "s"), ("geometry.closure_points", "count"),
    ("geometry.is_algebraic_s", "s"), ("geometry.solution_set_s", "s"),
    ("geometry.solution_set_points", "count"), ("terms.parse_s", "s"), ("terms.flatten_s", "s"),
    ("geometry.ed_verdict_s", "s"), ("geometry.lemma4_check_s", "s"), ("geometry.lemma5_check_s", "s"),
    ("geometry.rosenblatt_check_s", "s"), ("geometry.validate_certificate_s", "s"),
    ("geometry.validate_certificate_calls", "count"),
    ("semigroup.natural_order_s", "s"), ("semigroup.natural_order_calls", "count"),
    ("semigroup.parse_cayley_table_s", "s"), ("semigroup.validate_s", "s"),
    ("semigroup.validate_calls", "count"), ("semigroup.validate_triples", "count"),
    ("semigroup.wagner_preston_s", "s"), ("semigroup.hasse_dot_s", "s"),
    ("partialmap.compose_calls", "count"), ("catalog.by_name_s", "s"),
    # the traced run's own throughput and median next to the untraced run's
    # give the tracing overhead; overhead_s estimates it from wrapped calls
    # times the measured cost of one wrapper
    ("traced.ops_per_s", "1/s"), ("traced.latency_p50_s", "s"), ("traced.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, phase]
        self.stack: list[int] = []
        self.counts = defaultdict(int)  # (phase, key) -> count
        self.phase = "setup"

    def count(self, key: str, k: int = 1) -> None:
        self.counts[(self.phase, key)] += k

    def wrap(self, name: str, fn):
        note = getattr(self, "_note_" + name.split(".")[1], None)
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, self.phase]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            result = None
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
                built = cache_info is None or cache_info().misses > misses
                if not built:
                    self.count(name + "_hits")
                if note:
                    note(args, result, built)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        if cache_info:  # keep cache_clear() working on the wrapped lru_cache
            wrapper.cache_info, wrapper.cache_clear = fn.cache_info, fn.cache_clear
        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.count(name + "_calls")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_clone_closure(self, args, result, built):
        if built and result is not None:
            cells = len(result.functions) * result.order ** result.arity
            self.count("terms.clone_tables", len(result.functions))
            self.count("terms.clone_cells", cells)
            if not result.complete:
                self.count("terms.clone_truncated")
                self.count("terms.clone_wasted_cells", cells)

    def _note_closure(self, args, result, built):
        self.count("geometry.closure_points", args[0].order ** args[1].arity)

    def _note_solution_set(self, args, result, built):
        self.count("geometry.solution_set_points", args[0].order ** args[1].arity)

    def _note_validate(self, args, result, built):
        self.count("semigroup.validate_triples", len(args[0]) ** 3)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "eqdom" or name.startswith("eqdom.")]
        for kinds, make in ((SPANS, self.wrap), (COUNTED, self.counter)):
            for home, fname in kinds:
                original = getattr(sys.modules.get("eqdom." + home), fname, None)
                if original is None:
                    continue
                wrapped = make(f"{home}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)

    def totals(self) -> dict:
        """{phase: {metric: value}} from the spans and counts so far."""
        out = {"setup": defaultdict(float), "run": defaultdict(float)}
        child = defaultdict(float)
        for name, parent, start, end, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, parent, start, end, phase) in enumerate(self.spans):
            out[phase][name + "_s"] += end - start
            out[phase][name + "_self_s"] += end - start - child[sid]
            out[phase][name + "_calls"] += 1
        for (phase, key), k in self.counts.items():
            out[phase][key] += k
        return {phase: dict(values) for phase, values in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "phase"], "spans": self.spans,
                       "counts": {f"{p}:{k}": v for (p, k), v in self.counts.items()}}, fh)


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds that a span wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibrate.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def per_round(totals: list[dict], rounds: int) -> dict:
    """One set-up plus one round: set-up totals plus timed totals / rounds."""
    setup, run = defaultdict(float), defaultdict(float)
    for t in totals:
        for key, value in t.get("setup", {}).items():
            setup[key] += value
        for key, value in t.get("run", {}).items():
            run[key] += value
    return {key: setup[key] + run[key] / rounds for key in set(setup) | set(run)}
