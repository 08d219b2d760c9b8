"""Online serving: continuous batching over the offloading systems.

The offline harness (:mod:`repro.systems`) evaluates each system on one
static, pre-formed batch — the regime of the paper's throughput evaluation.
This package adds the *online* half implied by the paper's batching
machinery: requests arriving over simulated time, iteration-level
continuous re-batching with Algorithm 2, memory-aware admission control
backed by the paged KV cache, and per-request latency / SLO-goodput
metrics, so MoE-Lightning and the baselines become comparable under load.

* :mod:`repro.serving.arrivals` — Poisson / Gamma-burst / deterministic /
  replay arrival processes over the Table 3 prompt-length samplers.
* :mod:`repro.serving.queue` — request lifecycle plus the bounded
  first-come-first-served waiting queue.
* :mod:`repro.serving.admission` — KV-cache and CPU/GPU-memory gated
  admission via the paged allocator and the analytical memory model; with
  ``prefix_cache=True`` requests are admitted at their *incremental*
  footprint given the longest prompt prefix already in the shared block
  store.
* :mod:`repro.serving.scheduler` — iteration-level scheduler with FCFS,
  prefill-prioritising and decode-prioritising policies.
* :mod:`repro.serving.metrics` — TTFT / TPOT / E2E percentiles and
  SLO-goodput.
* :mod:`repro.serving.server` — the per-step :class:`EngineStepModel`
  pricing any offloading backend and the per-shard :class:`EngineCore`
  state machine (event-granular ``begin_step``/``complete_step``,
  optionally with overlapped prefill/decode streams).
* :mod:`repro.serving.router` — the :class:`ShardRouter`
  (round-robin / least-loaded / session-affinity / cache-aware) in front
  of per-shard queues.
* :mod:`repro.serving.event_loop` — the one serving loop: a central
  timestamp-ordered event queue interleaving arrivals and per-shard step
  completions in true global time order.
* :mod:`repro.serving.sharded` — :class:`ShardedServingSystem`, N
  data-parallel engines on a :class:`~repro.cluster.spec.ClusterSpec`
  with per-shard utilization and stream-occupancy reporting, and
  :class:`ServingSystem`, the same system with one engine.
"""

from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.event_loop import ServingEventLoop
from repro.serving.arrivals import (
    ArrivalProcess,
    DeterministicProcess,
    GammaProcess,
    PoissonProcess,
    ReplayProcess,
    TimedRequest,
)
from repro.serving.metrics import (
    SLO,
    ReportBuilder,
    ServingReport,
    percentile,
    summarize,
)
from repro.serving.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    ResiliencePolicy,
)
from repro.serving.queue import (
    OUTCOME_CODES,
    RequestQueue,
    RequestState,
    ServingRequest,
)
from repro.serving.scheduler import (
    SCHEDULING_POLICIES,
    ContinuousBatchingScheduler,
    SchedulerAction,
)
from repro.serving.router import ROUTER_POLICIES, ShardRouter
from repro.serving.server import (
    EngineCore,
    EngineStep,
    EngineStepModel,
    ServingResult,
    default_slo,
)
from repro.serving.sharded import (
    ServingSystem,
    ShardStats,
    ShardedServingResult,
    ShardedServingSystem,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ArrivalProcess",
    "DeterministicProcess",
    "GammaProcess",
    "PoissonProcess",
    "ReplayProcess",
    "TimedRequest",
    "SLO",
    "ReportBuilder",
    "ServingReport",
    "percentile",
    "summarize",
    "RequestQueue",
    "RequestState",
    "ServingRequest",
    "SCHEDULING_POLICIES",
    "ContinuousBatchingScheduler",
    "SchedulerAction",
    "EngineCore",
    "EngineStep",
    "EngineStepModel",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "OUTCOME_CODES",
    "ResiliencePolicy",
    "ROUTER_POLICIES",
    "ServingEventLoop",
    "ServingResult",
    "ServingSystem",
    "ShardRouter",
    "ShardStats",
    "ShardedServingResult",
    "ShardedServingSystem",
    "default_slo",
]
