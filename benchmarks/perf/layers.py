"""Per-layer tracing for the perf benchmark.

The traced run repeats a workload's timed repetitions with a
:class:`Tracer` installed.  The tracer does three things, all from
outside the program:

1. **Stack sampling.**  ``signal.setitimer(ITIMER_PROF)`` fires every
   :data:`SAMPLE_INTERVAL_S` of process CPU time; the handler charges
   the sample to the layer of the innermost ``src/repro`` frame on the
   stack (:func:`layer_of`), or to ``other`` when no ``repro`` frame is
   on it.  Samples count only while a timed op runs, so a layer's
   ``share`` is its share of timed CPU time and the shares sum to 1.
2. **Counting and timing wrappers** on public entry points: every
   ``build_*`` schedule builder, ``Topology.wire_time``,
   ``Topology.account`` and ``Simulator.__init__`` (to find every
   simulator the workload creates, whose ``sim.stats`` supply the work
   counts).  Every reference held in a loaded ``repro.*`` module's
   globals -- including the selector's registry dicts and the closures
   of its blocking entry points -- is replaced, and restored by
   :meth:`Tracer.remove`.
3. **Spans** for the benchmark's own calls (repetition -> op -> builder
   call), kept in memory and written by :meth:`Tracer.write` as a
   Chrome-trace JSON that Perfetto opens.

Wrappers and the signal handler cost host time, so a traced run's
throughput is lower; ``trace.overhead`` reports by how much.  They never
touch simulated time.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
import types
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: The layers, named after this repo's modules.
LAYERS = (
    "sim",
    "hw",
    "mpi",
    "mpi.algorithms",
    "mpi.algorithms.fastpath",
    "mpi.rma",
    "dcgn",
    "gpusim",
    "serve",
    "apps",
    "obs",
    "other",
)

#: Module prefix -> layer; the longest matching prefix wins.  The
#: package root (``repro/__init__.py``, metadata only) has no layer.
_PREFIXES = {
    "repro.sim": "sim",
    # The model checker runs its scenarios on the event kernel.
    "repro.check": "sim",
    "repro.sim.tracing": "obs",
    "repro.hw": "hw",
    "repro.mpi": "mpi",
    "repro.mpi.algorithms": "mpi.algorithms",
    "repro.mpi.algorithms.fastpath": "mpi.algorithms.fastpath",
    "repro.mpi.rma": "mpi.rma",
    "repro.dcgn": "dcgn",
    # The paper's GPU-as-slave baseline: DCGN's comparison runtime.
    "repro.gas": "dcgn",
    "repro.gpusim": "gpusim",
    "repro.serve": "serve",
    "repro.apps": "apps",
    # The paper-figure generators over repro.apps.
    "repro.bench": "apps",
    "repro.obs": "obs",
    "repro.trace": "obs",
}

#: CPU seconds between samples.
SAMPLE_INTERVAL_S = 0.001

#: Spans kept in memory; later ones are counted as dropped.
SPAN_LIMIT = 200_000


def layer_of(module: str) -> str:
    """The layer of a dotted module name (``other`` outside ``repro``)."""
    parts = module.split(".")
    for i in range(len(parts), 0, -1):
        layer = _PREFIXES.get(".".join(parts[:i]))
        if layer is not None:
            return layer
    return "other"


def _repro_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def module_of_file(path: str, root: str) -> Optional[str]:
    """Dotted module name of a file under ``root`` (the ``repro``
    package directory), or ``None`` for any other file."""
    path = os.path.abspath(path)
    if not path.startswith(root + os.sep) or not path.endswith(".py"):
        return None
    rel = os.path.relpath(path[:-3], os.path.dirname(root))
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Tracer:
    """Sampler + wrappers + span log for one traced phase.

    Use as a context manager around the traced repetitions; wrap each
    repetition in :meth:`span` and each timed op in :meth:`op`.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.builds = 0
        self.build_s = 0.0
        self.wire_time_calls = 0
        self.account_calls = 0
        #: ``sim.stats`` of every simulator created while installed.
        self.sim_stats: List = []
        #: (id, parent id, name, category, start s, end s).
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.dropped_spans = 0
        self._stack: List[Tuple[int, str, str, float]] = []
        self._next_id = 1
        self._build_depth = 0
        self._sampling = False
        self._root = _repro_root()
        self._file_layer: Dict[str, str] = {}
        #: Zero-argument callables restoring each patched reference.
        self._undo: List = []
        self._wrapper_ids: set = set()
        self._old_handler = None
        self._t0 = time.perf_counter()

    # -- spans ----------------------------------------------------------------
    def _open(self, name: str, cat: str) -> None:
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name, cat, time.perf_counter()))

    def _close(self) -> None:
        sid, name, cat, start = self._stack.pop()
        if len(self.spans) >= SPAN_LIMIT:
            self.dropped_spans += 1
            return
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append(
            (sid, parent, name, cat, start - self._t0,
             time.perf_counter() - self._t0)
        )

    @contextmanager
    def span(self, name: str, cat: str = "rep"):
        self._open(name, cat)
        try:
            yield
        finally:
            self._close()

    @contextmanager
    def op(self, name: str):
        """A timed op: a span, with stack sampling switched on."""
        self._open(name, "op")
        self._sampling = True
        try:
            yield
        finally:
            self._sampling = False
            self._close()

    # -- sampling -------------------------------------------------------------
    def _layer_of_file(self, path: str) -> str:
        layer = self._file_layer.get(path)
        if layer is None:
            module = module_of_file(path, self._root)
            layer = "" if module is None else layer_of(module)
            self._file_layer[path] = layer
        return layer

    def _on_sample(self, signum, frame) -> None:
        if not self._sampling:
            return
        while frame is not None:
            layer = self._layer_of_file(frame.f_code.co_filename)
            if layer:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    # -- wrappers -------------------------------------------------------------
    def _wrap_builder(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.builds += 1
            tracer._open(fn.__name__, "build")
            tracer._build_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._build_depth -= 1
                if tracer._build_depth == 0:
                    tracer.build_s += time.perf_counter() - t0
                tracer._close()

        return traced

    def _wrap_counter(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            setattr(tracer, counter, getattr(tracer, counter) + 1)
            return fn(*args, **kwargs)

        return counted

    def _wrap_sim_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def init(sim, *args, **kwargs):
            fn(sim, *args, **kwargs)
            tracer.sim_stats.append(sim.stats)

        return init

    def _patch_refs(self, wrappers: Dict[int, Tuple[object, object]]) -> None:
        """Swap every reference to an original for its wrapper in the
        globals (and nested dicts and closures) of ``repro`` modules."""
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                self._patch_dict(vars(module), wrappers, depth=2)

    def _patch_dict(self, d: dict, wrappers, depth: int) -> None:
        for key, value in list(d.items()):
            if isinstance(key, str) and key.startswith("__"):
                continue
            if id(value) in self._wrapper_ids:
                continue  # its closure holds the original on purpose
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                d[key] = hit[1]
                self._undo.append(functools.partial(d.__setitem__, key, value))
            elif isinstance(value, dict) and depth:
                self._patch_dict(value, wrappers, depth - 1)
            elif isinstance(value, types.FunctionType) and value.__closure__:
                for cell in value.__closure__:
                    try:
                        held = cell.cell_contents
                    except ValueError:  # empty cell
                        continue
                    hit = wrappers.get(id(held))
                    if hit is not None and hit[0] is held:
                        cell.cell_contents = hit[1]
                        self._undo.append(functools.partial(
                            setattr, cell, "cell_contents", held))

    def _patch_attr(self, cls, attr: str, wrapper) -> None:
        self._undo.append(
            functools.partial(setattr, cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        import repro.mpi.algorithms  # noqa: F401  (loads every builder)
        from repro.hw.topology.base import Topology
        from repro.sim.core import Simulator

        wrappers: Dict[int, Tuple[object, object]] = {}
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.mpi.algorithms."):
                continue
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("build_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == name
                ):
                    wrappers[id(fn)] = (fn, self._wrap_builder(fn))
        self._wrapper_ids = {id(w) for _, w in wrappers.values()}
        self._patch_refs(wrappers)

        classes = [Topology]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            for attr, counter in (("wire_time", "wire_time_calls"),
                                  ("account", "account_calls")):
                if attr in cls.__dict__:
                    self._patch_attr(
                        cls, attr,
                        self._wrap_counter(cls.__dict__[attr], counter),
                    )
        self._patch_attr(
            Simulator, "__init__",
            self._wrap_sim_init(Simulator.__dict__["__init__"]),
        )

        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def remove(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGPROF, self._old_handler)
            self._old_handler = None
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results --------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Summed ``sim.stats`` of every simulator created while traced."""
        total: Dict[str, int] = {}
        for stats in self.sim_stats:
            for key, value in stats.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total

    def write(self, path: str, other: Dict) -> None:
        """Spans as Chrome-trace JSON (``ts``/``dur`` in µs)."""
        events = [
            {
                "name": name, "cat": cat, "ph": "X", "pid": 0, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, name, cat, start, end in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**other, "dropped_spans": self.dropped_spans},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    op_cpu_s: float,
    units: int,
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
    queue_waits_s: List[float],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit).

    ``op_cpu_s`` is the CPU time of the traced ops, which the sampled
    shares split into per-layer self time.
    """
    from repro.serve import percentile

    total = sum(tracer.samples.values())
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        share = _ratio(tracer.samples[layer], total)
        out[f"{layer}.self_s"] = (share * op_cpu_s, "s")
        out[f"{layer}.share"] = (share, "ratio")

    def self_s(layer):
        return out[f"{layer}.self_s"][0]

    c = tracer.counts()
    fp = "mpi.algorithms.fastpath"
    moved = c["payload_copies"] + c["payload_views"] + c["payload_adopted"]
    wire_lookups = c["wire_cost_hits"] + c["wire_cost_misses"]
    out.update({
        "sim.events": (c["events_popped"], "count"),
        "sim.ns_per_event": (
            _ratio(self_s("sim") * 1e9, c["events_popped"]), "ns"),
        "hw.chan_bytes": (c["chan_bytes"], "B"),
        "hw.wire_time_calls": (tracer.wire_time_calls, "count"),
        "hw.account_calls": (tracer.account_calls, "count"),
        "mpi.copy_ratio": (_ratio(c["payload_copies"], moved), "ratio"),
        "mpi.algorithms.builds": (tracer.builds, "count"),
        "mpi.algorithms.builds_per_op": (
            _ratio(tracer.builds, units), "count/op"),
        "mpi.algorithms.build_s": (tracer.build_s, "s"),
        f"{fp}.rounds": (c["fastpath_rounds"], "count"),
        f"{fp}.us_per_round": (
            _ratio(self_s(fp) * 1e6, c["fastpath_rounds"]), "us"),
        f"{fp}.fin_hit_ratio": (
            _ratio(c["fastpath_sched_cache_hits"],
                   c["fastpath_collectives"]), "ratio"),
        f"{fp}.wire_hit_ratio": (
            _ratio(c["wire_cost_hits"], wire_lookups), "ratio"),
        "mpi.rma.ops": (c["fastpath_rma_ops"], "count"),
        "serve.queue_wait_p50_s": (
            percentile(queue_waits_s, 50) if queue_waits_s else 0.0, "s"),
        "serve.queue_wait_p99_s": (
            percentile(queue_waits_s, 99) if queue_waits_s else 0.0, "s"),
        "trace.overhead": (
            _ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0, "ratio"),
        "trace.samples": (total, "count"),
    })
    return out
