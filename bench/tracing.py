"""Per-layer spans and counters, recorded from outside the godp package.

A traced run replaces each layer's entry point with a timing wrapper and
restores the original afterwards. The CLI imports its stages by name, so
they are wrapped in ``godp.cli``'s namespace; the parser calls ``tokenize``
and the expander calls ``check_instantiation``, ``combine`` and
``desugar_frames`` through their own module globals, so those are wrapped
there. A layer's self time is its spans' duration minus the duration of the
spans they directly enclose.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager


def _count_parser(t, args, result):
    t.counts["parser.items"] += len(result.items)


def _count_lexer(t, args, result):
    t.counts["lexer.tokens"] += len(result)


def _count_resolver(t, args, result):
    t.counts["resolver.diagnostics"] += len(result.diagnostics)


def _count_expand(t, args, result):
    t.last_target = args[1]


def _count_check(t, args, result):
    t.counts["expansion.instantiations"] += 1
    t.distinct.add((args[0].name, result[0]))


def _count_frames(t, args, result):
    t.counts["frames.calls"] += 1


def _count_combine(t, args, result):
    left, right = args[0], args[1]
    t.counts["ontology.combine_calls"] += 1
    t.counts["ontology.axioms_scanned"] += len(left.axioms) + len(right.axioms)
    t.counts["ontology.axioms_kept"] += len(result.axioms)


def _count_stratify(t, args, result):
    t.counts["stratify.names"] += len(args[0].signature)
    if t.last_target in t.capture:
        t.captured.append((t.last_target, result))


def _count_emitter(t, args, result):
    t.counts["emitter.bytes"] += len(result.encode("utf-8"))


# (module, attribute, layer, counter) for every wrapped entry point.
ENTRY_POINTS = (
    ("godp.cli", "parse_library", "parser", _count_parser),
    ("godp.parser", "tokenize", "lexer", _count_lexer),
    ("godp.cli", "resolve", "resolver", _count_resolver),
    ("godp.cli", "expand", "expansion", _count_expand),
    ("godp.expansion", "check_instantiation", "expansion.check", _count_check),
    ("godp.expansion", "desugar_frames", "frames", _count_frames),
    ("godp.expansion", "combine", "ontology.combine", _count_combine),
    ("godp.cli", "stratify_ontology", "stratify", _count_stratify),
    ("godp.cli", "emit_manchester", "emitter", _count_emitter),
)

ROOT_LAYER = "cli"


class Tracer:
    """Spans of one traced compile at a time: (parent index, layer, start,
    end), indexed by their position in ``spans``; parent -1 is the root."""

    def __init__(self, capture=()):
        self.capture = frozenset(capture)
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self.captured: list = []
        self.last_target = None
        self.missing: list[tuple[str, str]] = []  # (entry point, layer)

    def _wrap(self, fn, layer, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (parent, layer, start, end)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    @contextmanager
    def _installed(self):
        """Wrap every entry point that exists; record the others as missing."""
        self.missing = []
        originals = []
        try:
            for module_name, attr, layer, count in ENTRY_POINTS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                if module is None or not callable(getattr(module, attr, None)):
                    self.missing.append((f"{module_name}.{attr}", layer))
                    continue
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, count))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def run(self, fn, *args):
        """Run one traced compile: install the wrappers, call fn under a
        root span, and restore the originals; return fn's result."""
        self.spans = []
        self.counts = Counter()
        self.distinct = set()
        self.captured = []
        with self._installed():
            return self._wrap(fn, ROOT_LAYER, None)(*args)

    def sample(self, **extra) -> dict:
        """Counters and self seconds per layer of the last traced compile."""
        out = dict(self.counts, **extra)
        out["expansion.distinct"] = len(self.distinct)
        out["self"] = self.self_times()
        out["expand_total"] = sum(end - start for _, layer, start, end in self.spans if layer == "expansion")
        return out

    def self_times(self) -> dict[str, float]:
        out: Counter = Counter()
        for parent, layer, start, end in self.spans:
            out[layer] += end - start
            if parent >= 0:
                out[self.spans[parent][1]] -= end - start
        return dict(out)

    def write_spans(self, path) -> None:
        """Write the spans of the last traced compile, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as f:
            for index, (parent, layer, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "parent": parent, "layer": layer,
                                    "start": start, "end": end}) + "\n")
