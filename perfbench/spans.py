"""In-memory span tracer for the benchmark.

The tracer wraps contlog's public functions where their callers look them
up: every `contlog` module attribute that *is* the original function is
replaced by a timing wrapper, so aliases such as `cli.parse_formula` are
covered too.  Each span records its name, start, end, parent span and the op
that caused it.  A layer's self time is its span duration minus the time
covered by its child spans.  Nothing is written until `dump` is called.

Spans are only recorded while `active` is true, so instance generation and
other set-up work outside ops leaves no trace.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

perf_counter = time.perf_counter


class MissingLayer(RuntimeError):
    """A layer the benchmark traces no longer exists where it is looked up."""


def _contlog_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "contlog" or name.startswith("contlog."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one list per span: [name_id, start, end, parent_index, op]
        self.spans: list[list] = []
        self._open: list[list] = []  # [span_index, child_seconds]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None
        self.active = False

    # -- spans

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([self._name_id(name), perf_counter(), None, parent, self.op])
        self._open.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        index, child = self._open.pop()
        span = self.spans[index]
        span[2] = end
        dur = end - span[1]
        name = self.names[span[0]]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._open:
            self._open[-1][1] += dur

    @contextlib.contextmanager
    def activate(self, op):
        """Record spans while the block runs, under one root span for the op."""
        self.op = op
        self.active = True
        self._enter("op")
        try:
            yield
        finally:
            self._exit()
            self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def add_child_spans(self, doc: dict) -> None:
        """Graft spans written by a child process under the open span."""
        parent = self._open[-1][0] if self._open else -1
        base = len(self.spans)
        for nid, start, end, par, _ in doc["spans"]:
            self.spans.append([self._name_id(doc["names"][nid]), start, end,
                               parent if par < 0 else base + par, self.op])
        for name, n in doc["calls"].items():
            self.calls[name] += n
        for name, s in doc["self_s"].items():
            self.self_s[name] += s
        self.counts.update(doc["counts"])

    # -- wrapping

    def _wrapper(self, name: str, fn, after=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before() if before is not None else None
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, out, state)
            return out
        return traced

    def wrap_function(self, module: str, attr: str, name: str, after=None, before=None) -> None:
        """Replace `module.attr` in every contlog module that refers to it."""
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            raise MissingLayer(f"{module}.{attr} is gone; the {name} layer cannot be traced")
        traced = self._wrapper(name, orig, after, before)
        for m in _contlog_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            raise MissingLayer(f"{cls.__name__}.{attr} is gone; the {name} layer cannot be traced")
        setattr(cls, attr, self._wrapper(name, orig, after))

    # -- output

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, **self.snapshot()}, fh)


def cache_entries(fn) -> int:
    """Entries held by an lru_cache-wrapped function (0 once it has none).

    Looks through a tracing wrapper to the function it wraps.
    """
    info = getattr(fn, "cache_info", None) or getattr(
        getattr(fn, "__wrapped__", None), "cache_info", None)
    return info().currsize if info is not None else 0


def module_cache_entries() -> dict[str, int]:
    """Sizes of the module-level caches the benchmark watches."""
    return {
        "hyperspace.hyper.cached_entries":
            cache_entries(sys.modules["contlog.hyperspace"].hyper),
        "semantics.eval_error_bound.cached_entries":
            cache_entries(sys.modules["contlog.semantics"].eval_error_bound),
    }


def cache_misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info is not None else None


def dag_nodes(phi) -> int:
    """Formula size with shared subformulas counted once."""
    seen: set[int] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(children(node))
    return len(seen)


def tree_nodes(phi) -> int:
    """Formula size with every shared subformula counted at each use."""
    sizes: dict[int, int] = {}
    stack = [(phi, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in sizes:
            continue
        kids = children(node)
        if done:
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in sizes)
    return sizes[id(phi)]


def children(node) -> tuple:
    kids = getattr(node, "children", None)
    if kids is not None:
        return tuple(kids)
    body = getattr(node, "body", None)
    return (body,) if body is not None else ()


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced contlog layer; raises MissingLayer if one is gone."""
    import contlog.connective
    import contlog.formula
    import contlog.hyperspace
    import contlog.semantics
    import contlog.serialize
    import contlog.translate
    import contlog.valuespace

    sizes: dict[int, tuple[object, int]] = {}  # keeps formulas alive, so ids stay unique

    def formula_nodes(args, kwargs, out, _):
        phi = args[1] if len(args) > 1 else kwargs["phi"]
        hit = sizes.get(id(phi))
        if hit is None:
            hit = sizes[id(phi)] = (phi, dag_nodes(phi))
        tracer.counts["semantics.evaluate.formula_nodes"] += hit[1]

    def net_points(args, kwargs, out, _):
        theta = args[0] if args else kwargs["theta"]
        tracer.counts["connective.mcshane_extend.net_points"] += len(theta)

    def coded_nodes(args, kwargs, out, _):
        tracer.counts["translate.coded_dag_nodes"] += dag_nodes(out)
        tracer.counts["translate.coded_tree_nodes"] += tree_nodes(out)

    hyper = contlog.hyperspace.hyper

    def hyper_points(args, kwargs, out, misses_before):
        # count the nets hyper() enumerated: its cache misses, or every call
        # once it has no cache
        if misses_before is None or cache_misses(hyper) != misses_before:
            tracer.counts["hyperspace.hyper.points"] += len(out.net)

    tracer.wrap_function("contlog.hyperspace", "hyper", "hyperspace.hyper",
                         hyper_points, before=lambda: cache_misses(hyper))
    tracer.wrap_function("contlog.semantics", "evaluate", "semantics.evaluate", formula_nodes)
    tracer.wrap_function("contlog.valuespace", "nearest", "valuespace.nearest")
    tracer.wrap_function("contlog.connective", "mcshane_extend",
                         "connective.mcshane_extend", net_points)
    tracer.wrap_function("contlog.translate", "lattice_approx", "translate.lattice_approx")
    tracer.wrap_function("contlog.translate", "transport_structure",
                         "translate.transport_structure")
    tracer.wrap_function("contlog.serialize", "structure_from_json",
                         "serialize.structure_from_json")
    tracer.wrap_function("contlog.formula", "parse", "formula.parse")
    coder = contlog.translate.CodedFormula
    tracer.wrap_method(coder, "codes", "translate.code", coded_nodes)
    tracer.wrap_method(coder, "budget_of", "translate.code")
