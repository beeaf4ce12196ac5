"""Per-layer spans for the traced benchmark run, recorded from outside the library.

The tracer rebinds public functions and methods of ``wblow`` to thin wrappers
that record one span per call: name, start, end, parent span and case id.
Every alias of a wrapped function is rebound, in every ``wblow.*`` module
namespace and on the ``Poly``, ``Polyvector`` and ``Centre`` classes, because
modules import each other's functions by name (``classify`` does
``from .invariant import max_monomial_centre``).  ``uninstall`` puts every
original back.

A span's self time is its duration minus the durations of its direct child
spans, so exact ``Fraction`` arithmetic done inside a wrapped call lands in
that call's self time.  A call made directly inside a span of the same name
(``Centre.ord`` calling ``Centre.ord_poly``) is a continuation of that span:
its self time counts, but it is not counted as a further call.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

# span name -> "module:attribute" or "module:Class.attribute" targets.  Names
# start with the layer, which is the module of src/wblow they belong to.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "ring.mul": ("ring:Poly.__mul__",),
    "ring.add": ("ring:Poly.__add__",),
    "ring.pow": ("ring:Poly.__pow__",),
    "ring.substitute": ("ring:Poly.substitute",),
    "ring.diff": ("ring:Poly.diff",),
    "ring.resultant": ("ring:resultant",),
    "ring.rational_roots": ("ring:rational_roots",),
    "ring.divides": ("ring:divides",),
    "ring.gcd": ("ring:univariate_gcd",),
    "ring.parse": ("ring:parse_poly", "ring:tokenize"),
    "polyvector.schouten": ("polyvector:schouten",),
    "polyvector.wedge": ("polyvector:wedge",),
    "polyvector.is_poisson": ("polyvector:is_poisson",),
    "polyvector.jacobian": ("polyvector:jacobian_poisson",),
    "polyvector.add": ("polyvector:Polyvector.__add__",),
    "polyvector.scale": ("polyvector:Polyvector.scale",),
    "centre.ord": ("centre:Centre.ord", "centre:Centre.ord_poly",
                   "centre:Centre.ord_poly_with_witness", "centre:Centre.ord_polyvector"),
    "centre.leading_term": ("centre:Centre.leading_term", "centre:Centre.leading_term_poly",
                            "centre:Centre.leading_term_polyvector"),
    "centre.weight_data": ("centre:Centre.weight_data",),
    "blowup.check_centre": ("blowup:check_centre",),
    "blowup.check_lift": ("blowup:check_lift",),
    "blowup.pullback": ("blowup:pullback_polyvector", "blowup:pullback_function"),
    "blowup.singular_points": ("blowup:rational_singular_points",),
    "blowup.strict_transform": ("blowup:strict_transform_in_chart",),
    "invariant.max_monomial_centre": ("invariant:max_monomial_centre",),
    "invariant.plane_curve": ("invariant:plane_curve_invariant",),
    "invariant.validate": ("invariant:validate_invariant",),
    "classify.classify_surface": ("classify:classify_surface",),
    "classify.line_search": ("classify:line_in_zero_locus",),
    "classify.milnor": ("classify:milnor_number",),
    "classify.isolated": ("classify:is_isolated_singularity",),
    "classify.stabilise": ("classify:local_dimension_is_zero",),
    "classify.lqd": ("classify:local_quotient_dimension",),
    "resolve.plane_curve": ("resolve:resolve_plane_curve",),
    "cli.main": ("cli:main",),
}

LAYERS = ("ring", "polyvector", "centre", "blowup", "invariant", "classify", "resolve", "cli")

# (metric name, unit); the values are computed by Tracer.layer_metrics.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("ring.self_s", "s"),
    ("ring.mul.calls", "count"), ("ring.mul.self_s", "s"), ("ring.mul.terms_out", "count"),
    ("ring.add.calls", "count"), ("ring.add.self_s", "s"),
    ("ring.pow.calls", "count"), ("ring.pow.self_s", "s"),
    ("ring.substitute.calls", "count"), ("ring.substitute.self_s", "s"),
    ("ring.diff.calls", "count"),
    ("ring.resultant.calls", "count"), ("ring.resultant.self_s", "s"),
    ("ring.rational_roots.calls", "count"), ("ring.rational_roots.self_s", "s"),
    ("ring.divides.calls", "count"), ("ring.divides.self_s", "s"),
    ("ring.parse.calls", "count"), ("ring.parse.self_s", "s"),
    ("polyvector.self_s", "s"),
    ("polyvector.schouten.calls", "count"), ("polyvector.schouten.self_s", "s"),
    ("polyvector.wedge.calls", "count"), ("polyvector.wedge.self_s", "s"),
    ("polyvector.is_poisson.calls", "count"), ("polyvector.is_poisson.self_s", "s"),
    ("centre.self_s", "s"),
    ("centre.ord.calls", "count"), ("centre.ord.self_s", "s"),
    ("centre.leading_term.calls", "count"), ("centre.leading_term.self_s", "s"),
    ("blowup.self_s", "s"),
    ("blowup.check_centre.calls", "count"), ("blowup.check_centre.self_s", "s"),
    ("blowup.check_lift.calls", "count"), ("blowup.check_lift.self_s", "s"),
    ("blowup.pullback.calls", "count"), ("blowup.pullback.self_s", "s"),
    ("blowup.singular_points.calls", "count"), ("blowup.singular_points.self_s", "s"),
    ("blowup.strict_transform.calls", "count"), ("blowup.strict_transform.self_s", "s"),
    ("invariant.self_s", "s"),
    ("invariant.max_monomial_centre.calls", "count"),
    ("invariant.max_monomial_centre.self_s", "s"),
    ("invariant.max_monomial_centre.errors", "count"),
    ("invariant.max_monomial_centre.distinct_ratio", "ratio"),
    ("invariant.plane_curve.calls", "count"), ("invariant.plane_curve.self_s", "s"),
    ("classify.self_s", "s"),
    ("classify.classify_surface.calls", "count"), ("classify.classify_surface.self_s", "s"),
    ("classify.forms_per_surface", "ratio"),
    ("classify.line_search.calls", "count"), ("classify.line_search.self_s", "s"),
    ("classify.line_search.hit_ratio", "ratio"),
    ("classify.line_search.substitutes_per_call", "ratio"),
    ("classify.milnor.calls", "count"),
    ("classify.lqd.calls", "count"), ("classify.lqd.self_s", "s"),
    ("classify.lqd_per_stabilisation", "ratio"),
    ("resolve.self_s", "s"), ("resolve.calls", "count"),
    ("resolve.charts", "count"), ("resolve.blowups", "count"),
    ("cli.self_s", "s"), ("cli.main.calls", "count"), ("cli.emit_bytes", "bytes"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio"),
)

# keeps the in-memory span arrays bounded; spans past the cap are still
# aggregated into the metrics, only their records are not kept
MAX_STORED_SPANS = 2_000_000


def _resolve(spec: str):
    module_name, _, path = spec.partition(":")
    owner = sys.modules[f"wblow.{module_name}"]
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Span recorder; ``install`` wraps the library, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.names: List[str] = sorted(TARGETS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = Counter()
        self.self_ns = Counter()
        self.errors = Counter()
        self.counters = Counter()
        self.mmc_inputs: List[object] = []
        self.case_id = -1
        self.stored = 0
        self.dropped = 0
        self._next_id = 0
        self._span_id = array("q")
        self._span_name = array("h")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("q")
        self._span_case = array("q")
        self._stack: List[Tuple[int, int, List[int]]] = []
        self._active = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import wblow  # noqa: F401  (the wrapped modules must be loaded)
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name == "wblow" or name.startswith("wblow.")]
        for span_name, specs in TARGETS.items():
            for spec in specs:
                owner, attribute = _resolve(spec)
                original = getattr(owner, attribute)
                wrapper = self._wrap(span_name, original)
                if isinstance(owner, type):
                    aliases = [(owner, key) for key, value in vars(owner).items()
                               if value is original]
                else:
                    aliases = [(module, key) for module in namespaces
                               for key, value in vars(module).items() if value is original]
                for target, key in aliases:
                    self._restore.append((target, key, original))
                    setattr(target, key, wrapper)

    def reset_stack(self) -> None:
        """Forget spans left open when an overrun fired inside a wrapper."""
        self._stack.clear()
        self._active.clear()

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._ids[name]
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns
        extra = self._extra_hook(name)
        count_terms = name == "ring.mul"
        count_hits = name == "classify.line_search"

        def wrapper(*args, **kwargs):
            nested = bool(stack) and stack[-1][0] == name_id
            parent = stack[-1][1] if stack else -1
            index = self._next_id
            self._next_id += 1
            children = [0]
            stack.append((name_id, index, children))
            active[name] += 1
            if not nested:
                self.calls[name] += 1
            if extra is not None:
                extra(args)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                self.self_ns[name] += duration - children[0]
                if stack:
                    stack[-1][2][0] += duration
                if not ok:
                    self.errors[name] += 1
                self._record(index, name_id, start, end, parent)
            if count_terms:
                self.counters["ring.mul.terms_out"] += len(result.terms)
            elif count_hits and result is not None:
                self.counters["line_search.hits"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _extra_hook(self, name: str):
        """Counters that depend on which spans are open when ``name`` starts."""
        active = self._active
        counters = self.counters
        if name == "ring.substitute":
            def hook(args):
                if active["classify.line_search"]:
                    counters["line_search.substitutes"] += 1
            return hook
        if name == "invariant.max_monomial_centre":
            def hook(args):
                self.mmc_inputs.append(args[0])
                if active["classify.classify_surface"]:
                    counters["classify.forms"] += 1
            return hook
        return None

    def _record(self, index: int, name_id: int, start: int, end: int, parent: int) -> None:
        if self.stored >= MAX_STORED_SPANS:
            self.dropped += 1
            return
        self._span_id.append(index)
        self._span_name.append(name_id)
        self._span_start.append(start)
        self._span_end.append(end)
        self._span_parent.append(parent)
        self._span_case.append(self.case_id)
        self.stored += 1

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Stored spans as gzipped CSV, in order of completion; ``id`` and
        ``parent`` number spans in order of entry (-1: no parent)."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write(f"# spans={self.stored} dropped={self.dropped}\n")
            out.write("id,name,start_ns,end_ns,parent,case\n")
            for i in range(self.stored):
                out.write(f"{self._span_id[i]},{self.names[self._span_name[i]]},{self._span_start[i]},"
                          f"{self._span_end[i]},{self._span_parent[i]},{self._span_case[i]}\n")

    def layer_metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every metric of PER_LAYER_METRICS; ``extra`` supplies the ones
        measured outside the spans (charts, blowups, emitted bytes, overhead)."""
        seconds = {name: ns / 1e9 for name, ns in self.self_ns.items()}
        values: Dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            values[f"{layer}.self_s"] = sum(s for n, s in seconds.items() if n.startswith(prefix))
            values[f"{layer}.errors"] = sum(c for n, c in self.errors.items()
                                            if n.startswith(prefix))
        for name in TARGETS:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = seconds.get(name, 0.0)
            values[f"{name}.errors"] = self.errors[name]
        values["ring.mul.terms_out"] = self.counters["ring.mul.terms_out"]
        mmc_calls = self.calls["invariant.max_monomial_centre"]
        values["invariant.max_monomial_centre.distinct_ratio"] = (
            _distinct_newton_keys(self.mmc_inputs) / mmc_calls if mmc_calls else 0.0)
        surfaces = self.calls["classify.classify_surface"]
        values["classify.forms_per_surface"] = (
            self.counters["classify.forms"] / surfaces if surfaces else 0.0)
        searches = self.calls["classify.line_search"]
        values["classify.line_search.hit_ratio"] = (
            self.counters["line_search.hits"] / searches if searches else 0.0)
        values["classify.line_search.substitutes_per_call"] = (
            self.counters["line_search.substitutes"] / searches if searches else 0.0)
        stabilisations = self.calls["classify.stabilise"]
        values["classify.lqd_per_stabilisation"] = (
            self.calls["classify.lqd"] / stabilisations if stabilisations else 0.0)
        values["resolve.calls"] = self.calls["resolve.plane_curve"]
        values.update(extra)
        return {name: values[name] for name, _ in PER_LAYER_METRICS}


def _distinct_newton_keys(inputs: List[object]) -> int:
    """Distinct (chart, minimal Newton points) keys: what a memo of
    ``max_monomial_centre`` could key on, since its result depends only on them."""
    from wblow import NewtonPolyhedron, Poly

    keys = set()
    for value in inputs:
        generators = [value] if isinstance(value, Poly) else list(value)
        variables = generators[0].variables if generators else ()
        keys.add((variables, NewtonPolyhedron.of(generators).minimal_points))
    return len(keys)
