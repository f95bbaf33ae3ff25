"""Spans and counters for the traced run, recorded from outside the package.

``Tracer`` replaces each traced public function with a wrapper, in the module
that defines it and in every package module that imported it by name, so
calls the package makes internally (``cli`` calling ``read_polygon_file``)
are seen as well as the benchmark's own.  A span records its name, start,
end, parent span, op id, and the determinant-counter difference read at the
same two boundaries.  Spans stay in memory until ``write_spans``.

The determinant counter is process-global and not thread-safe; the
benchmark runs one thread, so span differences are exact.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns
from typing import NamedTuple

# Layer -> public functions wrapped in the traced run.  ``predicates`` runs
# only inside the oracles and the generator, so its time shows in their spans.
TRACED = {
    "polyfile": ("read_polygon_file", "parse_polygon", "format_polygon"),
    "fast_test": ("is_strictly_convex", "is_strictly_convex_chain"),
    "oracles": ("strictly_convex_oracle", "hull_oracle"),
    "generator": ("parabola_polygon", "random_polygon",
                  "make_strictly_convex", "make_minimality_witness"),
    "cli": ("main",),
}

# Per-layer metrics: name -> unit.  Every value is divided by the number of
# measured ops, except the ratios, the maximum and the trace.* entries.
PER_LAYER_UNITS = {
    "polyfile.parse_s": "s",
    "polyfile.parse_ns_per_vertex": "ns",
    "polyfile.format_s": "s",
    "polyfile.bytes_in": "count",
    "fast_test.scan_s": "s",
    "fast_test.scan_ns_per_vertex": "ns",
    "fast_test.chain_s": "s",
    "fast_test.sign_entries": "count",
    "geometry.delta_calls": "count",
    "geometry.max_coord_bits": "bit",
    "oracles.sidedness_s": "s",
    "oracles.hull_s": "s",
    "oracles.delta_calls": "count",
    "generator.build_s": "s",
    "generator.delta_calls": "count",
    "cli.report_s": "s",
    "cli.output_bytes": "byte",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    deltas: int


def coord_bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(),
                   value.denominator.bit_length())
    return abs(value).bit_length()


def _count_parse(counts, args, result):
    counts["polyfile.bytes_in"] += len(args[0])
    counts["polyfile.vertices"] += len(result)


def _count_signs(counts, args, result):
    if result.signs is not None:
        signs = result.signs
        counts["fast_test.sign_entries"] += (
            len(signs.a) + len(signs.b) + len(signs.c))


def _count_scan(counts, args, result):
    _count_signs(counts, args, result)
    counts["fast_test.scan_vertices"] += result.n


_RESULT_COUNTERS = {
    "polyfile.parse_polygon": _count_parse,
    "fast_test.is_strictly_convex": _count_scan,
    "fast_test.is_strictly_convex_chain": _count_signs,
}


class NullTracer:
    """The untraced run: every hook does nothing."""

    def op(self, kind):
        return contextlib.nullcontext()

    def count(self, key, amount):
        pass

    def note_coords(self, polygon):
        pass


class Tracer:
    def __init__(self, pkg):
        self.spans: list[Span | None] = []
        self.counts = Counter()
        self.max_coord_bits = 0
        self._stack: list[int] = []
        self._op = 0
        self._next_op = 0
        self._deltas = pkg.geometry.delta_evaluations
        modules = [getattr(pkg, name) for name in vars(pkg)]
        for layer, names in TRACED.items():
            for fname in names:
                self._install(modules, getattr(getattr(pkg, layer), fname),
                              f"{layer}.{fname}")

    def _install(self, modules, original, span_name):
        on_result = _RESULT_COUNTERS.get(span_name)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            token = begin()
            try:
                result = original(*args, **kwargs)
            finally:
                end(span_name, token)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        fname = original.__name__
        for module in modules:
            if getattr(module, fname, None) is original:
                setattr(module, fname, traced)

    def _begin(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent, self._deltas(), perf_counter_ns()

    def _end(self, name, token):
        end = perf_counter_ns()
        index, parent, deltas, start = token
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self._op,
                                 self._deltas() - deltas)

    @contextlib.contextmanager
    def op(self, kind):
        """Root span of one op; op id 0 is the traced set-up."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        token = self._begin()
        try:
            yield
        finally:
            self._end(f"op.{kind}", token)

    def count(self, key, amount):
        self.counts[key] += amount

    def note_coords(self, polygon):
        bits = max((coord_bits(c) for point in polygon for c in point),
                   default=0)
        self.max_coord_bits = max(self.max_coord_bits, bits)

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics over every span recorded, set-up included,
        divided by ``ops``.  A layer's self time is its span's duration minus
        the time covered by its child spans."""
        child_ns = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        self_ns = Counter()
        deltas = Counter()
        for index, span in enumerate(self.spans):
            self_ns[span.name] += span.end_ns - span.start_ns - child_ns[index]
            key = "root" if span.parent is None else span.name.split(".")[0]
            deltas[key] += span.deltas

        def seconds(*names):
            return sum(self_ns[name] for name in names) / 1e9 / ops

        def ns_per(names, key):
            return sum(self_ns[name] for name in names) / max(1, self.counts[key])

        generator = [f"generator.{name}" for name in TRACED["generator"]]
        return {
            "polyfile.parse_s": seconds("polyfile.parse_polygon"),
            "polyfile.parse_ns_per_vertex": ns_per(
                ["polyfile.parse_polygon"], "polyfile.vertices"),
            "polyfile.format_s": seconds("polyfile.format_polygon"),
            "polyfile.bytes_in": self.counts["polyfile.bytes_in"] / ops,
            "fast_test.scan_s": seconds("fast_test.is_strictly_convex"),
            "fast_test.scan_ns_per_vertex": ns_per(
                ["fast_test.is_strictly_convex"], "fast_test.scan_vertices"),
            "fast_test.chain_s": seconds("fast_test.is_strictly_convex_chain"),
            "fast_test.sign_entries": self.counts["fast_test.sign_entries"] / ops,
            "geometry.delta_calls": deltas["root"] / ops,
            "geometry.max_coord_bits": self.max_coord_bits,
            "oracles.sidedness_s": seconds("oracles.strictly_convex_oracle"),
            "oracles.hull_s": seconds("oracles.hull_oracle"),
            "oracles.delta_calls": deltas["oracles"] / ops,
            "generator.build_s": seconds(*generator),
            "generator.delta_calls": deltas["generator"] / ops,
            "cli.report_s": seconds("cli.main"),
            "cli.output_bytes": self.counts["cli.output_bytes"] / ops,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
