"""Span tracer that wraps the public entry points of each program layer.

The tracer lives entirely in the benchmark: :meth:`Tracer.install` replaces
each entry point listed in :data:`LAYERS` on its class with a wrapper that
records one span per call (layer, entry point, start, end, parent span and
the request id when the first argument carries one), and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in memory
as flat columns; :func:`derive` turns them into per-layer self time and
call counts.

A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all layers plus ``unattributed`` (time
inside the traced region not covered by any span) add up to the traced
wall time exactly.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: ``(layer, [(module:Class, method), ...])`` in report order.  ``rid``
#: marks entry points whose first argument is a request (``"obj"``: has
#: ``request_id``; ``"int"``: is the id).  KV migration has no entry point
#: of its own; the benchmark reports its counters from the run's results.
LAYERS: list[tuple[str, list[tuple[str, str, str | None]]]] = [
    ("serving.arrivals", [
        ("repro.serving.arrivals:ArrivalProcess", "generate_lazy", None),
    ]),
    ("serving.router", [
        ("repro.serving.router:ShardRouter", "route", "obj"),
        ("repro.serving.router:PhaseRouter", "route_prefill", "obj"),
        ("repro.serving.router:PhaseRouter", "route_decode", None),
    ]),
    ("serving.admission", [
        ("repro.serving.admission:AdmissionController", "check", "obj"),
        ("repro.serving.admission:AdmissionController", "admit", "obj"),
        ("repro.serving.admission:AdmissionController", "admit_checked", "obj"),
        ("repro.serving.admission:AdmissionController", "release", "obj"),
    ]),
    ("runtime.kv_cache", [
        ("repro.runtime.kv_cache:KVCacheManager", "register_sequence", "int"),
        ("repro.runtime.kv_cache:KVCacheManager", "append_tokens", "int"),
        ("repro.runtime.kv_cache:KVCacheManager", "release_sequence", "int"),
        ("repro.runtime.kv_cache:KVCacheManager", "match_prefix_hashes", None),
    ]),
    ("runtime.block_store", [
        ("repro.runtime.block_store:SharedBlockStore", "allocate_run", None),
        ("repro.runtime.block_store:SharedBlockStore", "register_chain", None),
        ("repro.runtime.block_store:SharedBlockStore", "release_many", None),
        ("repro.runtime.block_store:SharedBlockStore", "match_prefix_hashes", None),
        ("repro.runtime.block_store:SharedBlockStore", "drop_all_cached", None),
    ]),
    ("serving.step_pricing", [
        ("repro.serving.server:EngineStepModel", "decode_step_time", None),
        ("repro.serving.server:EngineStepModel", "prefill_time", None),
        ("repro.serving.server:EngineStepModel", "chunked_prefill_time", None),
    ]),
    ("core.performance_model", [
        ("repro.core.performance_model:PerformanceModel", "decode_step_latency", None),
        ("repro.core.performance_model:PerformanceModel", "prefill_time", None),
        ("repro.core.performance_model:PerformanceModel", "estimate", None),
    ]),
    ("serving.scheduler", [
        ("repro.serving.scheduler:ContinuousBatchingScheduler", "next_action", None),
        ("repro.serving.scheduler:ContinuousBatchingScheduler", "form_micro_batches", None),
    ]),
    ("serving.queue", [
        ("repro.serving.queue:RequestQueue", "push", "obj"),
        ("repro.serving.queue:RequestQueue", "pop", None),
        ("repro.serving.queue:RequestQueue", "requeue", "obj"),
    ]),
    ("serving.engine", [
        ("repro.serving.server:EngineCore", "offer", "obj"),
        ("repro.serving.server:EngineCore", "begin_step", None),
        ("repro.serving.server:EngineCore", "complete_step", None),
    ]),
    ("serving.event_loop", [
        ("repro.serving.event_loop:ServingEventLoop", "run", None),
        ("repro.serving.event_loop:ServingEventLoop", "run_stream", None),
    ]),
    ("serving.metrics", [
        ("repro.serving.metrics:ReportBuilder", "observe", "obj"),
        ("repro.serving.metrics:ReportBuilder", "observe_many", None),
        ("repro.serving.metrics:ReportBuilder", "build", None),
    ]),
    ("obs", [
        ("repro.obs.telemetry:Telemetry", "record_*", None),
        ("repro.obs.telemetry:Telemetry", "sample", None),
        ("repro.obs.telemetry:Telemetry", "finish_run", None),
    ]),
    ("serving.faults", [
        ("repro.serving.faults:FaultInjector", "handle_failure", "obj"),
        ("repro.serving.server:EngineCore", "crash", None),
    ]),
    ("core.optimizer", [
        ("repro.core.optimizer:PolicyOptimizer", "search", None),
    ]),
    ("core.memory_model", [
        ("repro.core.memory_model:MemoryModel", "is_feasible", None),
    ]),
    ("schedules", [
        ("repro.schedules.base:PipelineSchedule", "step_timing", None),
    ]),
    ("runtime.simulator", [
        ("repro.runtime.simulator:Simulator", "run", None),
    ]),
]

LAYER_NAMES: list[str] = [name for name, _ in LAYERS]


def _resolve_class(path: str) -> type:
    module_name, class_name = path.split(":")
    return getattr(importlib.import_module(module_name), class_name)


def _with_overrides(cls: type, method: str) -> list[type]:
    """``cls`` plus every loaded subclass that redefines ``method``."""
    found = [cls]
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if method in sub.__dict__:
            found.append(sub)
        pending.extend(sub.__subclasses__())
    return found


def entry_points() -> list[tuple[int, type, str, str | None, str]]:
    """Every ``(layer index, owner, method, rid kind, entry name)`` wrapped.

    The entry name is ``Class.method`` of the class listed in
    :data:`LAYERS`; loaded subclasses that override the method share it.

    Raises ``AttributeError`` when a listed name no longer exists, so a
    rename in the program fails loudly instead of recording zero calls.
    """
    resolved = []
    for layer_id, (_, entries) in enumerate(LAYERS):
        for class_path, pattern, rid in entries:
            cls = _resolve_class(class_path)
            if pattern.endswith("*"):
                names = sorted(
                    n for n in vars(cls) if n.startswith(pattern[:-1])
                )
                if not names:
                    raise AttributeError(f"{class_path} has no {pattern}")
            else:
                names = [pattern]
            for name in names:
                if not callable(getattr(cls, name)):
                    raise AttributeError(f"{class_path}.{name} is not callable")
                listed = f"{cls.__name__}.{name}"
                for owner in _with_overrides(cls, name):
                    resolved.append((layer_id, owner, name, rid, listed))
    return resolved


class Tracer:
    """Records spans around the layer entry points while installed.

    Columns (one entry per span, in entry order): layer index, start,
    end, parent span index (-1 at top level) and request id (-1 when the
    call carries none).  A subclass override that delegates to the base
    method of the same entry point records one span, not two.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []
        self.entry_names: list[str] = []
        self.layer = array("h")
        self.entry = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self._stack: list[int] = []
        #: Running-set size passed to each decode pricing call.
        self.decode_batch_sizes = array("l")
        #: ``(candidates_evaluated, feasible_candidates)`` per search.
        self.search_counts: list[tuple[int, int]] = []
        #: ``(tasks, utilization_report())`` of every discrete-event simulation.
        self.simulations: list[tuple[int, dict[str, float]]] = []
        #: ``admit - arrival`` of every request the report observes.
        self.waits = array("d")
        #: Request ids observed on a retry, and those a retry completed.
        self.retried: set[int] = set()
        self.retried_done: set[int] = set()
        #: Every block store constructed while installed.
        self.block_stores: list = []

    def reset(self) -> None:
        """Forget recorded spans and counters (the wrappers stay valid)."""
        for column in (self.layer, self.entry, self.start, self.end,
                       self.parent, self.rid, self.decode_batch_sizes,
                       self.waits):
            del column[:]
        self._stack.clear()
        self.search_counts.clear()
        self.simulations.clear()
        self.retried.clear()
        self.retried_done.clear()
        self.block_stores.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Taps first, so the span wrappers installed over them charge the
        # taps' own cost to the layer they observe.
        self._install_taps()
        entry_ids: dict[str, int] = {}
        for layer_id, owner, name, rid, listed in entry_points():
            entry_id = entry_ids.setdefault(listed, len(entry_ids))
            original = owner.__dict__[name]
            if name == "generate_lazy":
                wrapper = self._wrap_generator(layer_id, entry_id, original)
            else:
                wrapper = self._wrap(layer_id, entry_id, original, rid)
            wrapper.__name__ = name
            wrapper.__wrapped__ = original
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)
        self.entry_names = list(entry_ids)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _open(self, layer_id: int, entry_id: int, rid: int) -> int:
        stack = self._stack
        span = len(self.start)
        self.layer.append(layer_id)
        self.entry.append(entry_id)
        self.parent.append(stack[-1] if stack else -1)
        self.rid.append(rid)
        self.end.append(0.0)
        stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer_id: int, entry_id: int, fn, rid_kind: str | None):
        tracer = self
        entry = tracer.entry
        stack = tracer._stack

        def traced(*args, **kwargs):
            if stack and entry[stack[-1]] == entry_id:
                # A subclass override delegating to its base: one span.
                return fn(*args, **kwargs)
            rid = -1
            if rid_kind is not None and len(args) > 1:
                if rid_kind == "int":
                    rid = args[1]
                else:
                    rid = getattr(args[1], "request_id", -1)
            span = tracer._open(layer_id, entry_id, rid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _wrap_generator(self, layer_id: int, entry_id: int, fn):
        """Each pull from the returned iterator is one span."""
        tracer = self

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                span = tracer._open(layer_id, entry_id, -1)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item

        return traced

    def _install_taps(self) -> None:
        """Argument and result taps for the layers' extra metrics."""
        from repro.core.optimizer import PolicyOptimizer
        from repro.runtime.block_store import SharedBlockStore
        from repro.runtime.simulator import Simulator
        from repro.serving.metrics import ReportBuilder
        from repro.serving.queue import RequestState
        from repro.serving.server import EngineStepModel

        tracer = self
        decode = EngineStepModel.decode_step_time
        search = PolicyOptimizer.search
        simulate = Simulator.run
        observe = ReportBuilder.observe
        observe_many = ReportBuilder.observe_many
        store_init = SharedBlockStore.__init__

        def traced_store_init(store, *args, **kwargs):
            store_init(store, *args, **kwargs)
            tracer.block_stores.append(store)

        def traced_decode_step_time(model, num_running, *args, **kwargs):
            tracer.decode_batch_sizes.append(num_running)
            return decode(model, num_running, *args, **kwargs)

        def traced_search(optimizer):
            result = search(optimizer)
            tracer.search_counts.append(
                (result.candidates_evaluated, result.feasible_candidates)
            )
            return result

        def note(sr) -> None:
            if sr.admit_time is not None:
                tracer.waits.append(sr.admit_time - sr.arrival_time)
            if sr.attempt > 0:
                tracer.retried.add(sr.request_id)
                if sr.state is RequestState.FINISHED:
                    tracer.retried_done.add(sr.request_id)

        def traced_observe(report, sr):
            note(sr)
            return observe(report, sr)

        def traced_observe_many(report, serving_requests):
            serving_requests = list(serving_requests)
            for sr in serving_requests:
                note(sr)
            return observe_many(report, serving_requests)

        for owner, name, tap in (
            (EngineStepModel, "decode_step_time", traced_decode_step_time),
            (PolicyOptimizer, "search", traced_search),
            (Simulator, "run", _simulation_tap(simulate, self.simulations)),
            (ReportBuilder, "observe", traced_observe),
            (ReportBuilder, "observe_many", traced_observe_many),
            (SharedBlockStore, "__init__", traced_store_init),
        ):
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, tap)

    # ------------------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16).copy(),
            "entry": np.frombuffer(self.entry, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "rid": np.frombuffer(self.rid, dtype=np.int64).copy(),
        }


def _simulation_tap(simulate, sink: list):
    """``Simulator.run`` that appends ``(tasks, utilization_report())`` of
    each simulation to ``sink``."""

    def run(simulator, graph, *args, **kwargs):
        result = simulate(simulator, graph, *args, **kwargs)
        sink.append((len(graph.tasks), result.utilization_report()))
        return result

    return run


@contextmanager
def simulations():
    """Collect ``(tasks, utilization_report())`` of every discrete-event
    simulation run inside the block, with no span tracing."""
    from repro.runtime.simulator import Simulator

    original = Simulator.__dict__["run"]
    sink: list[tuple[int, dict[str, float]]] = []
    Simulator.run = _simulation_tap(original, sink)
    try:
        yield sink
    finally:
        Simulator.run = original


def derive(spans: dict[str, np.ndarray], wall_s: float) -> dict[str, object]:
    """Per-layer self time and calls from recorded spans.

    Returns ``self_s`` and ``calls`` arrays indexed like :data:`LAYERS`,
    ``unattributed_s`` (wall time not covered by any top-level span) and
    ``memo_hits``: step-pricing calls with no performance-model child.
    """
    layer = spans["layer"].astype(np.int64)
    parent = spans["parent"]
    duration = spans["end"] - spans["start"]
    child_time = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(child_time, parent[nested], duration[nested])
    self_time = duration - child_time
    n = len(LAYERS)
    self_s = np.bincount(layer, weights=self_time, minlength=n)
    calls = np.bincount(layer, minlength=n)
    covered = duration[~nested].sum()
    pricing = LAYER_NAMES.index("serving.step_pricing")
    hrm = LAYER_NAMES.index("core.performance_model")
    priced = np.zeros(len(duration), dtype=bool)
    hrm_child = nested & (layer == hrm)
    priced[parent[hrm_child]] = True
    memo_hits = int(np.count_nonzero((layer == pricing) & ~priced))
    return {
        "self_s": self_s,
        "calls": calls,
        "unattributed_s": wall_s - covered,
        "memo_hits": memo_hits,
    }
