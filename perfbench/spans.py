"""Layer spans recorded from outside the package.

The tracer replaces, on the imported kedl modules, the public functions
each layer calls in another layer with wrappers that open and close a span
(name, layer, start, end, parent span, op id).  Spans stay in memory and are
written out at the end of a run.  A span's self time is its duration minus
the time its child spans cover; calls of the layers are single-threaded, so
children never overlap.

``concept_to_str`` runs hundreds of thousands of times per classification
and ``desugar`` once per oracle search node on KB goals, so both are
aggregated (a call count plus total time, charged to the enclosing span as
child time) instead of getting a span per call.

Semantics spans are split by the engine they run under: ``recheck`` for
witness evaluation and re-check inside a tableau query, ``oracle_check``
for the exact re-check inside the bounded search.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Optional

_clock = time.perf_counter

ENGINES = ("tableau", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, layer, start, end, parent id, op id)
        # open frames: [id, name, layer, start, child seconds, parent id, engine]
        self.stack: list[list] = []
        self.op_id = "setup"
        self.seconds: Counter = Counter()  # self time by layer key
        self.counts: Counter = Counter()
        self.op_counts: dict[str, Counter] = {}
        self.top_s = 0.0  # time covered by spans opened outside any span
        self.keep_spans = True
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- ops and passes ----------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        # an op stopped by an exception inside tracer code leaves frames open
        self.stack.clear()
        self.op_id = op_id

    def reset(self) -> None:
        """Forget the totals (spans are kept for the trace file)."""
        self.seconds.clear()
        self.counts.clear()
        self.op_counts.clear()
        self.top_s = 0.0

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k
        self.op_counts.setdefault(self.op_id, Counter())[name] += k

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self.stack[-1] if self.stack else None
        engine = layer if layer in ENGINES else (parent[6] if parent else "harness")
        frame = [self._next_id, name, layer, 0.0, 0.0, parent[0] if parent else None, engine]
        self._next_id += 1
        self.stack.append(frame)
        frame[3] = _clock()
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()
        span_id, name, layer, start, child, parent_id, engine = frame
        duration = end - start
        key = f"semantics.{'recheck' if engine == 'tableau' else 'oracle_check'}" \
            if layer == "semantics" else layer
        self.seconds[key] += duration - child
        self.counts[f"{key}.spans"] += 1
        if self.stack:
            self.stack[-1][4] += duration
        else:
            self.top_s += duration
        if self.keep_spans:
            self.spans.append((span_id, name, layer, start, end, parent_id, self.op_id))

    def in_span(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def wrap(self, fn: Callable, name: str, layer: str,
             observe: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, fn: Callable, key: str) -> Callable:
        stack, seconds, counts = self.stack, self.seconds, self.counts

        def counted(*args):
            start = _clock()
            result = fn(*args)
            elapsed = _clock() - start
            if stack:
                stack[-1][4] += elapsed
            seconds[key] += elapsed
            counts[f"{key}_calls"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tlayer\tstart\tend\tparent\top\n")
            for span_id, name, layer, start, end, parent, op_id in self.spans:
                parent_text = "" if parent is None else str(parent)
                out.write(f"{span_id}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent_text}\t{op_id}\n")


# -- what gets wrapped ---------------------------------------------------------


def _observe_run(entry: str) -> Callable[[Tracer, tuple, object], None]:
    """Counters of one tableau run, entered through ``entry``."""

    def observe(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(f"tableau.{entry}_calls")
        tracer.count("tableau.calls")
        if result.satisfiable:
            tracer.count("tableau.sat_calls")
            tracer.count("tableau.witness_elements", result.witness.n_delta + result.witness.n_sigma)
        else:
            tracer.count("tableau.unsat_calls")
            tracer.count("tableau.clash_trace_len", len(result.clash_trace or ()))
        tracer.count("tableau.merged_individuals", len(result.merged_individuals))

    return observe


def _counter(name: str) -> Callable[[Tracer, tuple, object], None]:
    def observe(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(name)

    return observe


def _observe_subsumes(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("tableau.subsumes_calls")
    if tracer.in_span("classify"):
        tracer.count("tableau.classify_tests")


def _observe_find_model(tracer: Tracer, args: tuple, result) -> None:
    from kedl.oracle import Model

    tracer.count("oracle.calls")
    tracer.count("oracle.models" if isinstance(result, Model) else "oracle.no_model")


def _observe_parse_kb(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("parser.bytes", len(args[0].encode()))


def _observe_parse_km(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("km.elements", len(result))


def instrument(tracer: Tracer) -> None:
    """Register wrappers on the currently imported kedl modules."""
    from kedl import km, oracle, parser, tableau

    tab = tableau.Tableau
    for method, observe in (
        ("is_satisfiable", _observe_run("is_satisfiable")),
        ("is_consistent", _observe_run("is_consistent")),
        ("subsumes", _observe_subsumes),
        ("instance_of", None),
    ):
        tracer.patch(tab, method, tracer.wrap(getattr(tab, method), method, "tableau", observe))
    tracer.patch(tableau, "classify",
                 tracer.wrap(tableau.classify, "classify", "tableau", _counter("tableau.classify_calls")))
    for name in ("to_nnf", "negated_nnf", "check_sort", "infer_sort"):
        tracer.patch(tableau, name, tracer.wrap(getattr(tableau, name), name, "syntax"))
    tracer.patch(tableau, "concept_to_str",
                 tracer.aggregate(tableau.concept_to_str, "syntax.concept_to_str"))
    for module in (tableau, oracle):
        for name in ("validate_interpretation", "satisfies_kb", "extension"):
            tracer.patch(module, name, tracer.wrap(getattr(module, name), name, "semantics"))

    tracer.patch(oracle, "find_model",
                 tracer.wrap(oracle.find_model, "find_model", "oracle", _observe_find_model))
    tracer.patch(oracle, "check_validity_bounded",
                 tracer.wrap(oracle.check_validity_bounded, "check_validity_bounded", "oracle",
                             _counter("oracle.validity_calls")))
    # the bounded search desugars assertions at every search node
    tracer.patch(oracle, "desugar", tracer.aggregate(oracle.desugar, "syntax.desugar"))

    tracer.patch(parser, "parse_kb", tracer.wrap(parser.parse_kb, "parse_kb", "parser", _observe_parse_kb))
    tracer.patch(km, "parse_km", tracer.wrap(km.parse_km, "parse_km", "km", _observe_parse_km))
    tracer.patch(km, "render_kedl", tracer.wrap(km.render_kedl, "render_kedl", "km"))
