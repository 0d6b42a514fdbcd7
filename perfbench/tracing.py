"""Spans around the public functions of randstruct, recorded from outside.

``Tracer.install`` replaces every public module-level function of the traced
modules, plus a few named methods, by a wrapper that records a span: name,
start, end and parent span.  Every binding of the function in any randstruct
module is replaced, so ``from .stats import chi_square_gof`` callers are
traced too; ``uninstall`` puts the originals back.  Wrappers record only while
``active`` is set, so the benchmark's own checks stay out of the figures.

Self time of a span is its duration minus the durations of its child spans.
Self time and calls are summed per function for every span; the span list
itself is kept up to ``SPAN_CAP`` entries and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("rng", "stats", "exact", "walks", "trees", "graphs", "permutations",
          "growth", "experiments", "verify")

# methods traced besides the module-level functions: (module, class, method)
METHODS = (("graphs", "Graph", "__init__"),
           ("growth", "GrowingTree", "depths"),
           ("growth", "GrowingTree", "height"),
           ("growth", "GrowingTree", "out_degrees"))
SPAN_CAP = 200_000


def philox_words(stream) -> int:
    """64-bit words a stream has drawn: its Philox counter times the 4 words
    each counter value yields, less the words still unread in the buffer."""
    state = stream.gen.bit_generator.state
    c = state["state"]["counter"]
    counter = sum(int(c[i]) << (64 * i) for i in range(4))
    return 4 * counter - 4 + int(state["buffer_pos"]) if counter else 0


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []   # (id, name, parent id, start, end)
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.streams: list = []        # streams made while active
        self.edges = 0                 # edges of every Graph built
        self.conditioned_words = 0     # words drawn by sample_bgw_conditioned
        self.conditioned_vertices = 0  # vertices of the trees it returned
        self._stack: list[list] = []   # [span id, start, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        # run_suite holds the criteria in a list built at import time
        criteria = modules["verify"].CRITERIA
        self._criteria = (criteria, list(criteria))
        criteria[:] = [(name, wrapped.get(fn, fn)) for name, fn in criteria]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        criteria, original = self._criteria
        criteria[:] = original

    def _wrap(self, name: str, fn):
        hook = {"rng.make_stream": self._count_stream,
                "graphs.Graph.__init__": self._count_edges}.get(name)
        conditioned = name == "trees.sample_bgw_conditioned"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if conditioned:
                stream = kwargs.get("rng", args[2] if len(args) > 2 else None)
                before = philox_words(stream)
            frame = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if hook is not None:
                hook(args, out)
            if conditioned:
                self.conditioned_words += philox_words(stream) - before
                self.conditioned_vertices += out.n_vertices
            return out
        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, parent[0] if parent else None,
                               start, end))
        else:
            self.dropped += 1

    def _count_stream(self, args, stream) -> None:
        self.streams.append(stream)

    def _count_edges(self, args, out) -> None:
        self.edges += args[0].m

    def words(self) -> int:
        """Words drawn so far by every stream made while tracing."""
        return sum(philox_words(s) for s in self.streams)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "name", "parent", "start", "end"],
                       "spans": self.spans, "dropped": self.dropped}, fh)
