"""Spans recorded around the avfuse package's public functions.

The tracer replaces each entry point where its caller looks it up (``fusion``
imports ``mha`` by name, so ``fusion.mha`` is wrapped, not ``backbone.mha``)
and keeps one span per call in memory: name, start, end, parent span and
operation id. An operation is one train step or one request; the benchmark
opens and closes operations itself, and spans outside any operation (set-up
work) get operation id -1. Every value a wrapper needs is stored in flat
lists, so a call costs two clock reads and a few appends.
"""
from __future__ import annotations

import functools
import gc
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped entry point is missing or was never called."""


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        """Set ``owner.attr`` to ``make(original)``; staticmethods stay static."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            raise TraceError(f"entry point {getattr(owner, '__name__', owner)}.{attr} is missing")
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if not callable(fn):
            raise TraceError(f"entry point {getattr(owner, '__name__', owner)}.{attr} is not callable")
        wrapper = functools.wraps(fn)(make(fn))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def entry_points(av) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped call; ``av`` holds the
    imported avfuse modules."""
    m, f, t = av.model, av.fusion, av.tasks
    return [
        ("autodiff.backward", t, "backward"),
        ("backbone.embed", m, "patch_embed"),
        ("backbone.embed", m, "spectrogram_embed"),
        ("backbone.mha", f, "mha"),
        ("backbone.mlp", f, "mlp"),
        ("fusion.adapter", f, "adapter_forward"),
        ("fusion.compress", f, "compress_to_latents"),
        ("fusion.fuse", f, "fuse_with_latents"),
        ("fusion.bottleneck", f, "bottleneck"),
        ("model.forward", m.TwoStreamModel, "forward"),
        ("model.tokenize", m.TwoStreamModel, "tokenize"),
        ("model.head", m, "event_head"),
        ("tasks.loss", t, "cross_entropy_logits"),
        ("tasks.adam", t.Adam, "step"),
        ("tasks.evaluate", t, "evaluate"),
        ("tasks.generate_dataset", t, "generate_dataset"),
        ("serialization.save", m, "save_tensors"),
        ("serialization.load", m, "load_tensors"),
    ]


class Tracer:
    """In-memory spans plus per-operation counters: tape nodes (via
    ``Tensor._node``), forward MACs and softmax elements (via ``count_macs``)
    and cyclic-GC pauses (via ``gc.callbacks``)."""

    def __init__(self, av) -> None:
        self.av = av
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.stack: list[int] = []
        self.op = -1  # span id of the open operation, -1 outside operations
        self.op_kind: dict[int, str] = {}
        self.op_counts: dict[int, dict[str, float]] = {}
        self.nodes = 0  # tape nodes created so far
        self.node_calls = 0
        self.gc_ms = 0.0
        self.gc_collections = 0
        self.gc_collected = 0
        self._gc_t0 = 0.0
        self._macs_cm = None  # count_macs context of the open operation
        self._macs = None
        self._op_base: dict[str, float] = {}
        self._patches = Patches()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, or none: a missing one raises TraceError."""
        try:
            for label, owner, attr in entry_points(self.av):
                self._patches.replace(owner, attr, functools.partial(self._span_wrapper, label))
            self._patches.replace(self.av.autodiff.Tensor, "_node", self._node_wrapper)
        except TraceError:
            self._patches.restore()
            raise
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def _span_wrapper(self, label: str, fn):
        name, start, end, parent, op_of, stack = (
            self.name, self.start, self.end, self.parent, self.op_of, self.stack)

        def traced(*args, **kwargs):
            i = len(name)
            name.append(label)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def _node_wrapper(self, fn):
        def counted(data, parents):
            out = fn(data, parents)
            self.node_calls += 1
            if out.requires_grad:
                self.nodes += 1
            return out

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_ms += (perf_counter() - self._gc_t0) * 1e3
            self.gc_collections += 1
            self.gc_collected += info.get("collected", 0)

    # -- operations ----------------------------------------------------------

    def _counters(self) -> dict[str, float]:
        return {
            "nodes": self.nodes,
            "gc_ms": self.gc_ms,
            "gc_collections": self.gc_collections,
            "gc_collected": self.gc_collected,
        }

    def begin_op(self, kind: str, t: float) -> None:
        if self.stack:
            raise TraceError(f"operation {kind!r} opened inside span {self.name[self.stack[-1]]!r}")
        i = len(self.name)
        self.name.append(f"op.{kind}")
        self.parent.append(-1)
        self.op_of.append(i)
        self.start.append(t)
        self.end.append(0.0)
        self.stack.append(i)
        self.op = i
        self.op_kind[i] = kind
        self._op_base = self._counters()
        self._macs_cm = self.av.autodiff.count_macs()
        self._macs = self._macs_cm.__enter__()

    def end_op(self, t: float) -> None:
        i = self.op
        if not self.stack or self.stack[-1] != i:
            raise TraceError("operation closed while a span inside it is still open")
        self._macs_cm.__exit__(None, None, None)
        now = self._counters()
        counts = {k: now[k] - self._op_base[k] for k in now}
        counts["macs"] = self._macs.macs
        counts["softmax_elems"] = self._macs.softmax_elems
        self.op_counts[i] = counts
        self.end[i] = t
        self.stack.pop()
        self.op = -1

    # -- analysis ------------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.name]
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(i)
        return kids

    def self_times(self, kids: list[list[int]]) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        out = []
        for i, ks in enumerate(kids):
            covered, reach = 0.0, float("-inf")
            for k in sorted(ks, key=self.start.__getitem__):
                lo, hi = max(self.start[k], reach), self.end[k]
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            out.append(self.end[i] - self.start[i] - covered)
        return out

    def nesting_errors(self, kids: list[list[int]]) -> list[str]:
        """Spans that leave their parent's interval or overlap a sibling."""
        errors = []
        for i, ks in enumerate(kids):
            if self.end[i] < self.start[i]:
                errors.append(f"span {i} {self.name[i]} ends before it starts")
            prev_end = self.start[i]
            for k in sorted(ks, key=self.start.__getitem__):
                if self.start[k] < prev_end or self.end[k] > self.end[i]:
                    errors.append(f"span {k} {self.name[k]} escapes parent {i} {self.name[i]} or overlaps a sibling")
                prev_end = self.end[k]
                if self.op_of[k] != self.op_of[i]:
                    errors.append(f"span {k} {self.name[k]} belongs to another operation than its parent")
        return errors

    def check_called(self, required: dict[str, list[str]], anywhere: list[str]) -> None:
        """Fail unless each operation kind reached every entry point listed
        for it, every ``anywhere`` entry point ran, and the node hook fired."""
        seen: dict[str, set[str]] = {kind: set() for kind in required}
        for name, op in zip(self.name, self.op_of):
            if op >= 0:
                seen.setdefault(self.op_kind[op], set()).add(name)
        missing = [f"{n} in {kind} operations" for kind, names in required.items()
                   for n in names if n not in seen[kind]]
        missing += [n for n in anywhere if n not in set(self.name)]
        if self.node_calls == 0:
            missing.append("autodiff.Tensor._node")
        if missing:
            raise TraceError(f"wrapped entry points never called: {missing}")

    def write(self, path) -> None:
        """All spans as CSV, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,op,parent,start_us,end_us\n")
            for i, name in enumerate(self.name):
                f.write(f"{i},{name},{self.op_of[i]},{self.parent[i]},"
                        f"{(self.start[i] - t0) * 1e6:.3f},{(self.end[i] - t0) * 1e6:.3f}\n")
