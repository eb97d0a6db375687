"""In-memory spans and counters for the traced benchmark pass.

A span is ``[name, start, end, parent, attrs]`` with ``parent`` the index of
the enclosing span (or None) and ``attrs`` a dict of labels such as the input
size (or None).  Spans and counters stay in memory until the run
writes them out once at the end.  The untraced passes use :data:`NULL`,
whose spans and counters do nothing, and never call :func:`instrument`, so
no library function is wrapped while end-to-end metrics are measured.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

# (module, attribute, span name).  The construction and certifier entries
# wrap the names as imported into those modules, which is where the build and
# the certifier look them up at call time.
WRAPPED_FUNCTIONS = (
    ("superconc.construction", "sample_g", "randgraph.sample_g"),
    ("superconc.construction", "check_expander_profile", "randgraph.check_profile"),
    ("superconc.construction", "check_pair_profile", "randgraph.check_profile"),
    ("superconc.certifier", "chord_coefficients", "entropy.chord"),
    ("superconc.certifier", "tangent_coefficients", "entropy.tangent"),
)
ADJACENCY_SPAN = "randgraph.adjacency"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.missing_targets: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs or None)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def totals(self) -> dict:
        """Per span name: {"s": total seconds, "self_s": seconds not covered
        by child spans, "calls": number of spans, "each_s": durations}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "each_s": []})
            t["s"] += end - start
            t["self_s"] += end - start - covered[i]
            t["calls"] += 1
            t["each_s"].append(end - start)
        return out

    def labelled(self) -> list:
        """One line per span that carries attrs: its duration, self time and
        the calls and seconds of its direct children, grouped by name."""
        children: dict = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None and self.spans[parent][4]:
                group = children.setdefault(parent, {}).setdefault(name, [0, 0.0])
                group[0] += 1
                group[1] += end - start
        lines = []
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            if not attrs:
                continue
            kids = children.get(i, {})
            own = end - start - sum(s for _, s in kids.values())
            label = " ".join(f"{k}={v}" for k, v in attrs.items())
            parts = [f"{child} {calls} calls {secs:.4g} s" for child, (calls, secs) in sorted(kids.items())]
            lines.append("; ".join([f"{name} {label}: {end - start:.4g} s, self {own:.4g} s", *parts]))
        return lines


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null

    def count(self, name: str, n=1) -> None:
        pass


NULL = _NullTracer()


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library functions of WRAPPED_FUNCTIONS and the
    ``BipartiteGraph.adjacency`` property; restore everything on exit.

    Targets a later version of the package no longer has are skipped and
    listed in ``tracer.missing_targets``, so the run still reports the layers
    it can see.
    """
    restore = []
    missing = tracer.missing_targets
    try:
        for module_name, attr, span_name in WRAPPED_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(original, span_name))
            restore.append((module, attr, original))

        graph_cls = getattr(importlib.import_module("superconc.randgraph"), "BipartiteGraph", None)
        adjacency = None if graph_cls is None else graph_cls.__dict__.get("adjacency")
        if isinstance(adjacency, property):
            graph_cls.adjacency = property(tracer.wrap(adjacency.fget, ADJACENCY_SPAN), doc=adjacency.__doc__)
            restore.append((graph_cls, "adjacency", adjacency))
        else:
            missing.append("superconc.randgraph.BipartiteGraph.adjacency")
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
