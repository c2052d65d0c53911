"""Layer spans and call counts for a traced benchmark pass.

The tracer wraps realred callables from outside the library.  Every
module binding of a wrapped function is replaced (``cartan`` imports
``word_from_matrix`` by name, for instance), methods and cached
properties are replaced on their class.  Coarse callables get a span
each: name, start, end, parent span and op id, kept in memory and
written out when the pass ends.  Hot ones, such as ``lin.mat_mul``, are
only counted.

Metric names are ``<module>.<callable>.<calls|s|self_s>``.  ``s`` sums
the outermost spans of a name, so a nested call is not counted twice;
``self_s`` sums each span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

# (metric name, module, class or None, attribute) of each timed callable.
TIMED = [
    ("rootdata.build_root_datum", "rootdata", None, "build_root_datum"),
    ("lin.smith_form", "lin", None, "smith_form"),
    ("weyl.InvolutionTable", "weyl", "InvolutionTable", "__init__"),
    ("weyl.classes", "weyl", "InvolutionTable", "classes"),
    ("weyl.normal_form_word", "weyl", None, "normal_form_word"),
    ("weyl.word_from_matrix", "weyl", None, "word_from_matrix"),
    ("involution.real_forms", "involution", "InnerClass", "real_forms"),
    ("involution.strong_count", "involution", "InnerClass", "strong_count"),
    ("cartan.format_cartan_report", "cartan", None, "format_cartan_report"),
    ("cartan.cartan_hasse", "cartan", None, "cartan_hasse"),
    ("cartan.real_weyl", "cartan", None, "real_weyl"),
    ("kgb.generate_kgb", "kgb", None, "generate_kgb"),
]

# Callables too hot to time: only their calls are counted.
COUNTED = [
    ("lin.mat_mul", "lin", None, "mat_mul"),
    ("lin.mat_vec", "lin", None, "mat_vec"),
    ("involution.cross", "involution", "InnerClass", "cross"),
    ("involution.x_key", "involution", "InnerClass", "x_key"),
    ("involution.fiber_elements", "involution", "InnerClass", "fiber_elements"),
]

MODULES = ("lin", "rootdata", "weyl", "involution", "cartan", "kgb")

# Counters that are not calls: output sizes and cache sizes.
SIZES = [
    "weyl.twisted_involutions",
    "kgb.elements",
    "weyl.piece_chain.cache_size",
    "involution.fiber_cache_size",
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for name, *_ in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name, *_ in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in SIZES:
        units[name] = "count"
    units["trace.spans"] = "count"
    units["trace.query_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self):
        # span: [name, op id, parent span id or None, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self.ops: list[str] = []
        self.calls: dict[str, int] = {}
        self.tables: list = []
        self.contexts: list = []
        self.kgb_sizes: list[int] = []

    @contextlib.contextmanager
    def op(self, key: str):
        """Root span of one benchmark op; layer spans inside carry its id."""
        self.ops.append(key)
        self._op_id = len(self.ops) - 1
        with self._span("op"):
            yield

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        rec = [name, self._op_id, self._stack[-1] if self._stack else None,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self, rr) -> None:
        """Wraps every callable in TIMED and COUNTED, in every binding."""
        for entries, wrap in ((TIMED, self.timed), (COUNTED, self.counted)):
            for name, mod, cls, attr in entries:
                owner = getattr(rr, mod)
                if cls is None:
                    self._patch_function(rr, getattr(owner, attr), wrap(name, getattr(owner, attr)))
                else:
                    self._patch_member(getattr(owner, cls), attr, functools.partial(wrap, name))
        self._keep_instances(rr.weyl.InvolutionTable, self.tables)
        self._keep_instances(rr.involution.InnerClass, self.contexts)
        generate = rr.kgb.generate_kgb

        def generate_kgb(*args, **kwargs):
            g = generate(*args, **kwargs)
            self.kgb_sizes.append(g.size)
            return g

        self._patch_function(rr, generate, generate_kgb)

    @staticmethod
    def _patch_function(rr, orig, wrapper) -> None:
        for mod in MODULES:
            ns = vars(getattr(rr, mod))
            for attr, val in list(ns.items()):
                if val is orig:
                    ns[attr] = wrapper

    @staticmethod
    def _patch_member(cls, attr: str, wrap) -> None:
        member = cls.__dict__[attr]
        if isinstance(member, functools.cached_property):
            prop = functools.cached_property(wrap(member.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, wrap(member))

    @staticmethod
    def _keep_instances(cls, out: list) -> None:
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            out.append(self)

        cls.__init__ = __init__

    # -- results ------------------------------------------------------------------

    def metrics(self, rr) -> dict[str, float]:
        """Per-layer totals over the whole pass, setup included."""
        self_time = self._self_times()
        out = {f"{name}.{k}": 0 for name, *_ in TIMED for k in ("calls", "s", "self_s")}
        for sid, (name, _, parent, start, end) in enumerate(self.spans):
            if name == "op":
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time[sid]
            if not self._inside(name, parent):
                out[f"{name}.s"] += end - start
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        out["weyl.twisted_involutions"] = sum(len(t) for t in self.tables)
        out["kgb.elements"] = sum(self.kgb_sizes)
        out["weyl.piece_chain.cache_size"] = rr.weyl.piece_chain.cache_info().currsize
        out["involution.fiber_cache_size"] = sum(len(ic._fibers) for ic in self.contexts)
        out["trace.spans"] = len(self.spans)
        return out

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def _inside(self, name: str, sid: int | None) -> bool:
        while sid is not None:
            if self.spans[sid][0] == name:
                return True
            sid = self.spans[sid][2]
        return False

    def write(self, path: Path) -> None:
        """Writes one JSON line per span, with its self time."""
        self_time = self._self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "op": self.ops[op] if op >= 0 else None,
                    "parent": parent, "start": start, "end": end,
                    "self": self_time[sid],
                }) + "\n")
