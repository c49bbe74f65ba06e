"""In-memory span tracing of the erasurechain layers, from outside the package.

``install`` replaces the public functions of every erasurechain module, at
every name a module binds them to (``montecarlo.classify`` as well as
``erasure_model.classify``), and the ``Poly`` operators on the class itself,
with timing wrappers.  Nothing inside ``src/`` is changed on disk.

Two kinds of wrapper:

* span functions record one span per call:
  ``[name, start, end, parent, pass_id, leaf_s, leaf_counts]`` where
  ``parent`` is the index of the enclosing span (or -1), ``leaf_s`` the time
  of the leaf calls made directly under it and ``leaf_counts`` their counts;
* leaf functions (called up to millions of times per command) are only
  counted and timed, and folded into the enclosing span, so memory stays
  small.  A span function called inside a leaf is folded into the leaf.

Self times are derived from the spans afterwards (``self_times``): a span's
duration minus its direct child spans and its direct leaf time.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter
from typing import Dict, List

LAYERS = (
    "cli",
    "threshold_solver",
    "markov_engine",
    "montecarlo",
    "erasure_model",
    "correction_circuits",
    "exact_arith",
    "pauli_algebra",
)

# Per-pattern or per-term helpers that run far too often to keep one span
# per call.  Each of them calls only other leaves (or nothing wrapped).
LEAVES = frozenset(
    {
        "exact_arith.Poly.__mul__",
        "exact_arith.Poly.evaluate",
        "erasure_model.classify",
        "erasure_model.pattern_weight",
        "erasure_model.pattern_support",
        "erasure_model.pattern_counts",
        "erasure_model.qubit_marginals",
        "erasure_model.pattern_probability",
        "pauli_algebra.supports_logical",
        "pauli_algebra.logical_supports",
        "pauli_algebra.stabilizer_supports_weight4",
        "correction_circuits.select_step",
        "correction_circuits.fail_sink",
    }
)

START, END, PARENT, LEAF_S, LEAF_COUNTS = 1, 2, 3, 5, 6


class Tracer:
    """Spans, leaf aggregates and work counters of one traced process."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: List[list] = []
        self.leaves: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._leaf_depth = 0
        self._attempt_keys: set = set()

    # -- wrappers -------------------------------------------------------
    def _span(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._leaf_depth:  # e.g. a cached helper's first call
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, 0.0, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, fn, result, args, kwargs)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        spans, stack = self.spans, self._stack
        agg = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._leaf_depth == 0
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_depth -= 1
                agg[0] += 1
                agg[1] += dt
                if stack:
                    rec = spans[stack[-1]]
                    counts = rec[LEAF_COUNTS]
                    counts[name] = counts.get(name, 0) + 1
                    if outer:
                        rec[LEAF_S] += dt

        return wrapper

    def wrap(self, name: str, fn):
        if name in LEAVES:
            return self._leaf(name, fn)
        return self._span(name, fn, HOOKS.get(name))

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["correction_circuits.attempt_distinct"] = len(self._attempt_keys)
        return {"spans": self.spans, "leaves": self.leaves, "counters": counters}


# -- result hooks: work counters read from arguments and return values --
def _count_attempt(tracer: Tracer, fn, result, args, kwargs) -> None:
    """Distinct (pattern, params, FaultModel) keys, defaults filled in."""
    pattern = args[0] if args else kwargs["pattern"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    config = args[2] if len(args) > 2 else kwargs.get("config", fn.__defaults__[-1])
    tracer._attempt_keys.add((pattern, params, config))


def _count_bisection(tracer: Tracer, fn, result, args, kwargs) -> None:
    key = "threshold_solver.bisection_steps"
    tracer.counters[key] = tracer.counters.get(key, 0) + result.iterations


HOOKS = {
    "correction_circuits.attempt": _count_attempt,
    "threshold_solver.solve_break_even": _count_bisection,
}


def _public_functions(module) -> Dict[int, tuple]:
    """id(fn) -> (qualified name, fn) for functions the module defines."""
    short = module.__name__.rsplit(".", 1)[1]
    found = {}
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and isinstance(value, (types.FunctionType, functools._lru_cache_wrapper))
            and value.__module__ == module.__name__
        ):
            found[id(value)] = (f"{short}.{attr}", value)
    return found


def install(tracer: Tracer, package: str = "erasurechain") -> None:
    """Wrap every public function at every module binding, and Poly ops."""
    modules = [importlib.import_module(f"{package}.{name}") for name in LAYERS]
    targets: Dict[int, tuple] = {}
    for module in modules:
        targets.update(_public_functions(module))
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in targets.items()}
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    poly = importlib.import_module(f"{package}.exact_arith").Poly
    mul = tracer.wrap("exact_arith.Poly.__mul__", poly.__mul__)
    poly.__mul__ = mul
    poly.__rmul__ = mul
    poly.evaluate = tracer.wrap("exact_arith.Poly.evaluate", poly.evaluate)


# -- analysis ------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Self time of each span: duration minus direct children and leaves."""
    child = [0.0] * len(spans)
    for rec in spans:
        parent = rec[PARENT]
        if parent >= 0:
            child[parent] += rec[END] - rec[START]
    return [
        rec[END] - rec[START] - child[i] - rec[LEAF_S] for i, rec in enumerate(spans)
    ]


def has_ancestor(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][PARENT]
    return False
