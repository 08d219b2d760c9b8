"""The benchmark's four workloads, driven through the program's public API.

Each workload builds its inputs from a seed, sets the system up
(:meth:`setup`), runs one timed pass (:meth:`run_pass`), runs one checked
pass that keeps every request record (:meth:`verify`) and reports the
simulated metrics from that checked pass's per-request timestamps.

The serving workloads use :class:`~repro.serving.sharded.ShardedServingSystem`;
``offline-policy`` uses :meth:`OffloadingSystem.run` and
:class:`~repro.core.optimizer.PolicyOptimizer`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from perfbench.tracer import simulations
from repro.experiments.disagg_sweep import mixed_workload
from repro.experiments.settings import get_setting
from repro.hardware import get_hardware
from repro.models import get_model
from repro.obs import Telemetry
from repro.serving.arrivals import PoissonProcess
from repro.serving.faults import FaultSchedule, ResiliencePolicy
from repro.serving.queue import RequestState
from repro.serving.sharded import ShardedServingSystem
from repro.systems import MoELightningSystem
from repro.workloads import (
    chat,
    generate_requests,
    mtbench,
    summarization,
    synthetic_reasoning,
)
from repro.workloads.spec import WorkloadSpec

#: Offered load as a fraction of the shards' aggregate offline capacity.
LOAD_FACTOR = 0.8


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def offline_capacity(backend, spec: WorkloadSpec, policy) -> float:
    """Requests per simulated second one shard sustains on a static batch."""
    estimate = backend.performance_model(spec).estimate(policy)
    return policy.batch_size / estimate.total_time


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingConfig:
    #: Chat requests per replica stream.
    num_requests: int
    generation_len: int
    num_shards: int
    router: str = "least-loaded"
    prefix_cache: bool = False
    overlap: bool = False
    #: ``disagg-faults``: summarization requests mixed into each chat
    #: stream, prefill/decode pools, a rolling restart, retries, telemetry.
    long_requests: int = 0
    disaggregated: bool = False
    #: Independent streams served per pass; simulated metrics pool their
    #: requests, which steadies workloads whose single-stream outcome
    #: swings with the seed (fault timing against queue build-up).
    replicas: int = 1


@dataclass(frozen=True)
class Summary:
    """What a streaming pass and a stored-sample pass must agree on."""

    offered: int
    completed: int
    rejected: int
    slo_met: int
    tokens: int
    makespan: float
    steps: int
    busy: tuple[float, ...]


def _summary(result) -> Summary:
    report = result.report
    busy = tuple(stats.busy_time for stats in result.shard_stats)
    _check(math.isfinite(result.makespan) and result.makespan > 0,
           f"makespan {result.makespan} is not finite and positive")
    for shard, value in enumerate(busy):
        _check(value <= result.makespan,
               f"shard {shard} busy {value} exceeds makespan {result.makespan}")
    return Summary(
        offered=report.num_offered,
        completed=report.num_completed,
        rejected=report.num_rejected,
        slo_met=report.slo_met,
        tokens=report.tokens_generated,
        makespan=result.makespan,
        steps=sum(stats.num_steps for stats in result.shard_stats),
        busy=busy,
    )


@dataclass(frozen=True)
class Stream:
    """One replica's inputs.

    ``arrivals`` is ``None`` for a plain chat stream, which the system
    generates itself from ``PoissonProcess(rate)`` at ``seed``.
    """

    seed: int
    arrivals: list | None = None
    faults: FaultSchedule | None = None


class ServingWorkload:
    """Seeded request streams served by a sharded system."""

    model_name = "mixtral-8x7b"
    hardware_name = "1xT4"

    def __init__(self, config: ServingConfig, seed: int) -> None:
        self.config = config
        self.chat_spec = chat(
            generation_len=config.generation_len,
            num_requests=config.num_requests,
        )
        if config.long_requests:
            self.long_spec = summarization(
                generation_len=config.generation_len,
                num_requests=config.long_requests,
            )
            self.spec = mixed_workload(self.chat_spec, self.long_spec)
        else:
            self.spec = self.chat_spec
        # The arrival rate is an input: derived once from the backend's
        # offline capacity on this workload, outside any timed region.
        backend = self._backend()
        policy = backend.select_policy(self.spec)
        self.rate = (
            LOAD_FACTOR
            * config.num_shards
            * offline_capacity(backend, self.spec, policy)
        )
        seeds = [seed * config.replicas + r for r in range(config.replicas)]
        if config.long_requests:
            self.streams = [self._mixed_stream(s) for s in seeds]
        else:
            self.streams = [Stream(seed=s) for s in seeds]

    @property
    def ops_per_pass(self) -> int:
        config = self.config
        return config.replicas * (config.num_requests + config.long_requests)

    def _backend(self):
        return MoELightningSystem(
            get_model(self.model_name), get_hardware(self.hardware_name)
        )

    def _mixed_stream(self, seed: int) -> Stream:
        """Chat (with prefix-hash chains) merged with summarization, and a
        rolling restart of every shard in a seeded order mid-stream."""
        config = self.config
        total = config.num_requests + config.long_requests
        chat_rate = self.rate * config.num_requests / total
        long_rate = self.rate * config.long_requests / total
        arrivals = list(
            PoissonProcess(chat_rate).generate_lazy(
                self.chat_spec, seed=seed, token_ids=True
            )
        )
        arrivals += PoissonProcess(long_rate).generate(
            self.long_spec, seed=seed + 1_000_003
        )
        arrivals.sort(
            key=lambda timed: (timed.arrival_time, timed.request.request_id)
        )
        horizon = arrivals[-1].arrival_time
        rng = np.random.default_rng([seed, 0xFA17])
        order = [int(s) for s in rng.permutation(config.num_shards)]
        faults = FaultSchedule.rolling_restart(
            order,
            start=float(rng.uniform(0.2, 0.3)) * horizon,
            interval=0.08 * horizon,
            downtime=0.04 * horizon,
            load_time=0.02 * horizon,
        )
        return Stream(seed=seed, arrivals=arrivals, faults=faults)

    # ------------------------------------------------------------------
    def setup(self, store_samples: bool = False):
        """Backend, policy search, SLO and step models: ready systems.

        Returns ``(systems, [search_seconds])`` with one system per
        replica stream (each carries its stream's fault schedule).
        """
        config = self.config
        backend = self._backend()
        start = time.perf_counter()
        policy = backend.optimizer(self.spec).search().policy
        search_s = time.perf_counter() - start
        systems = [
            ShardedServingSystem(
                backend,
                self.spec,
                num_shards=config.num_shards,
                router=config.router,
                policy=policy,
                prefix_cache=config.prefix_cache,
                overlap=config.overlap,
                store_samples=store_samples,
                disaggregated=config.disaggregated,
                faults=stream.faults,
                resilience=(
                    ResiliencePolicy(max_retries=2, retry_backoff=0.25)
                    if stream.faults is not None
                    else None
                ),
            )
            for stream in self.streams
        ]
        return systems, [search_s]

    def search_once(self, index: int) -> float:
        """Seconds for one policy search on this workload."""
        optimizer = self._backend().optimizer(self.spec)
        start = time.perf_counter()
        optimizer.search()
        return time.perf_counter() - start

    def serve(self, systems) -> list:
        results = []
        for system, stream in zip(systems, self.streams):
            telemetry = Telemetry() if stream.faults is not None else None
            if stream.arrivals is not None:
                result = system.run(
                    stream.arrivals, seed=stream.seed, telemetry=telemetry
                )
            else:
                result = system.run(
                    PoissonProcess(self.rate),
                    count=self.config.num_requests,
                    seed=stream.seed,
                    telemetry=telemetry,
                )
            results.append(result)
        return results

    def run_pass(self, systems):
        """One streaming pass; returns ``(summaries, results)``."""
        results = self.serve(systems)
        return tuple(_summary(result) for result in results), results

    def events(self, summaries) -> int:
        """Arrivals (retries included) plus engine steps."""
        return sum(s.offered + s.steps for s in summaries)

    # ------------------------------------------------------------------
    def verify(self):
        """Stored-sample pass: conservation checks and simulated metrics.

        Returns ``(summaries, sim_metrics)``; raises :class:`CheckFailed`.
        Latency percentiles pool the requests of every replica stream;
        rates divide pooled counts by the summed makespans.
        """
        systems, _ = self.setup(store_samples=True)
        results = self.serve(systems)
        ttft, tpot = [], []
        originals = completed = met = delivered = 0
        makespan = 0.0
        per_stream = self.config.num_requests + self.config.long_requests
        for result in results:
            report = result.report
            by_id: dict[int, list] = {}
            for sr in result.requests:
                by_id.setdefault(sr.request_id, []).append(sr)
            _check(len(by_id) == per_stream,
                   f"{len(by_id)} original requests recorded, "
                   f"{per_stream} offered")
            _check(len(result.requests) == report.num_offered,
                   f"{len(result.requests)} records but report offers "
                   f"{report.num_offered}")
            done = slo_met = tokens = 0
            for attempts in by_id.values():
                attempts.sort(key=lambda sr: sr.attempt)
                _check([sr.attempt for sr in attempts]
                       == list(range(len(attempts))),
                       "retry attempts are not numbered 0..k")
                for sr in attempts:
                    _check(sr.state in (RequestState.FINISHED,
                                        RequestState.REJECTED),
                           f"request {sr.request_id} ended {sr.state}")
                final = attempts[-1]
                _check(all(sr.state is RequestState.REJECTED
                           for sr in attempts[:-1]),
                       f"request {final.request_id} ran again after an "
                       f"outcome")
                if final.state is RequestState.FINISHED:
                    done += 1
                    tokens += final.tokens_decoded
                    slo_met += result.slo.is_met(final)
                    ttft.append(
                        final.first_token_time - attempts[0].arrival_time
                    )
                    tpot.append(final.tpot)
            _check(done == report.num_completed,
                   f"{done} completions, report says {report.num_completed}")
            _check(slo_met == report.slo_met,
                   f"{slo_met} SLO-met completions, report says "
                   f"{report.slo_met}")
            _check(tokens == report.tokens_generated,
                   f"{tokens} tokens delivered, report says "
                   f"{report.tokens_generated}")
            originals += len(by_id)
            completed += done
            met += slo_met
            delivered += tokens
            makespan += result.makespan
        _check(completed > 0, "no request completed")
        sim = {
            "sim_tokens_per_s": delivered / makespan,
            "sim_goodput_rps": met / makespan,
            "sim_ttft_p50_s": percentile(ttft, 50),
            "sim_ttft_p99_s": percentile(ttft, 99),
            "sim_tpot_p50_s": percentile(tpot, 50),
            "sim_tpot_p99_s": percentile(tpot, 99),
            "sim_completed_frac": completed / originals,
        }
        return tuple(_summary(result) for result in results), sim

    def check_pass(self, summaries, reference) -> None:
        """A streaming pass must reproduce the stored-sample pass exactly."""
        _check(summaries == reference,
               f"streaming pass {summaries} differs from stored-sample "
               f"pass {reference}")

    def layer_counters(self, results) -> dict[str, float]:
        """Simulated per-layer counters: sums of counts over the replica
        streams, means of ratios."""
        counters: dict[str, float] = {}

        def add(name: str, value: float) -> None:
            counters[name] = counters.get(name, 0.0) + value

        for result in results:
            utils = result.shard_utilizations
            stats = result.admission_stats
            faults = result.fault_stats
            report = result.report
            mean_util = sum(utils) / len(utils)
            share = 1.0 / len(results)
            add("serving.router.shard_util_spread",
                share * (max(utils) / mean_util if mean_util > 0 else 0.0))
            add("runtime.block_store.hit_rate", share * report.hit_rate)
            add("runtime.block_store.cached_token_fraction",
                share * report.cached_token_fraction)
            add("serving.admission.admitted", stats.get("admitted", 0))
            add("serving.admission.rejected_kv", stats.get("rejected_kv", 0))
            add("serving.admission.rejected_slots",
                stats.get("rejected_slots", 0))
            add("serving.faults.crashes", faults.get("crashes", 0))
            add("serving.faults.retries", faults.get("retries", 0))
            add("serving.migration.migrated", stats.get("migrated_in", 0))
            add("serving.migration.migration_rejected",
                stats.get("migration_rejected", 0))
        return counters


# ----------------------------------------------------------------------
# Offline workload
# ----------------------------------------------------------------------
#: ``(setting, workload)`` points of the offline grid: every Table 2
#: setting, the three Table 3 workloads in rotation.
OFFLINE_POINTS: tuple[tuple[str, object], ...] = (
    ("S1", mtbench),
    ("S2", synthetic_reasoning),
    ("S6", summarization),
    ("S7", mtbench),
    ("S8", synthetic_reasoning),
    ("S9", summarization),
)

#: Requests sampled per point to form the offline batch's spec.
OFFLINE_SAMPLE = 250


@dataclass(frozen=True)
class PointResult:
    prefill_time: float
    decode_time: float
    tokens: int
    batch_size: int
    generation_len: int


class OfflineWorkload:
    """The paper's offline path on the evaluation-settings grid.

    The seed draws each point's request sample; the system receives the
    sample's prompt-length statistics as its workload spec.
    """

    def __init__(self, seed: int) -> None:
        self.points = []
        for index, (setting_name, factory) in enumerate(OFFLINE_POINTS):
            base = factory()
            lengths = [
                r.input_len
                for r in generate_requests(
                    base, count=OFFLINE_SAMPLE, seed=seed * 1000 + index
                )
            ]
            spec = WorkloadSpec(
                name=base.name,
                avg_prompt_len=max(1, round(sum(lengths) / len(lengths))),
                max_prompt_len=max(lengths),
                generation_len=base.generation_len,
                num_requests=base.num_requests,
            )
            self.points.append((get_setting(setting_name), spec))
        self.sim_tasks = 0

    @property
    def ops_per_pass(self) -> int:
        return len(self.points)

    def setup(self):
        """Backends and each point's searched policy.

        Returns ``(systems, search_seconds)``: ``systems`` is a list of
        ``(backend, spec, policy)``.
        """
        systems = []
        searches = []
        for setting, spec in self.points:
            backend = MoELightningSystem(setting.model, setting.hardware)
            start = time.perf_counter()
            policy = backend.optimizer(spec).search().policy
            searches.append(time.perf_counter() - start)
            systems.append((backend, spec, policy))
        return systems, searches

    def run_pass(self, systems):
        results = []
        for backend, spec, policy in systems:
            results.append(backend.run(spec, policy=policy, simulate=True))
        return tuple(_point(r) for r in results), results

    def events(self, summary) -> int:
        """Discrete-event tasks simulated per pass."""
        return self.sim_tasks

    def verify(self):
        """Checked pass through the full path (search inside ``run``)."""
        systems, _ = self.setup()
        with simulations() as simulated:
            summary, _ = self.run_pass(systems)
        self.sim_tasks = sum(tasks for tasks, _ in simulated)
        _check(self.sim_tasks > 0, "no discrete-event task simulated")
        first_steps = []
        for (backend, spec, policy), point in zip(systems, summary):
            _check(backend.memory_model(spec).is_feasible(policy),
                   f"{backend.hardware.name}: searched policy does not fit")
            _check(point.prefill_time > 0 and math.isfinite(point.prefill_time)
                   and point.decode_time > 0 and math.isfinite(point.decode_time),
                   f"{spec.name}: non-positive or non-finite phase time")
            _check(point.tokens == point.batch_size * spec.generation_len,
                   f"{spec.name}: token count is not batch x generation")
            full = _point(backend.run(spec, simulate=True))
            _check(full == point,
                   f"{spec.name}: run() with its own search differs from "
                   f"the searched policy's run")
            # The offline model produces every generated token from a
            # decode step; the first comes out of the step at context
            # prompt + 1, the first one ``decode_time`` integrates.
            prompt = backend.effective_prompt_len(spec)
            first_steps.append(
                backend.make_schedule(policy)
                .step_timing(policy, prompt + 1)
                .step_time
            )
        return summary, _offline_sim(summary, first_steps)

    def search_once(self, index: int) -> float:
        setting, spec = self.points[index % len(self.points)]
        optimizer = MoELightningSystem(setting.model, setting.hardware).optimizer(spec)
        start = time.perf_counter()
        optimizer.search()
        return time.perf_counter() - start

    def check_pass(self, summary, reference) -> None:
        _check(summary == reference,
               "offline pass differs from the checked pass")

    def layer_counters(self, results) -> dict[str, float]:
        return {}


def _point(result) -> PointResult:
    return PointResult(
        prefill_time=result.prefill_time,
        decode_time=result.decode_time,
        tokens=result.tokens_generated,
        batch_size=result.policy.batch_size,
        generation_len=result.tokens_generated // result.policy.batch_size,
    )


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _offline_sim(points, first_steps) -> dict[str, float]:
    """Simulated metrics of the offline grid.

    Throughputs are geometric means over the points.  Latencies treat
    every request of every point's batch as one sample: its first token
    arrives when the batch's prefill and first decode step end, and each
    token costs one mean decode step.
    """
    ttft = np.repeat([p.prefill_time + step for p, step in zip(points, first_steps)],
                     [p.batch_size for p in points])
    tpot = np.repeat([p.decode_time / p.generation_len for p in points],
                     [p.batch_size for p in points])
    return {
        "sim_tokens_per_s": _geomean(
            [p.tokens / (p.prefill_time + p.decode_time) for p in points]
        ),
        "sim_goodput_rps": _geomean(
            [p.batch_size / (p.prefill_time + p.decode_time) for p in points]
        ),
        "sim_ttft_p50_s": percentile(ttft, 50),
        "sim_ttft_p99_s": percentile(ttft, 99),
        "sim_tpot_p50_s": percentile(tpot, 50),
        "sim_tpot_p99_s": percentile(tpot, 99),
        "sim_completed_frac": 1.0,
    }


SERVING_CONFIGS = {
    "chat-overlap": ServingConfig(
        num_requests=6000,
        generation_len=128,
        num_shards=16,
        overlap=True,
    ),
    "chat-prefix": ServingConfig(
        num_requests=10000,
        generation_len=32,
        num_shards=16,
        router="cache-aware",
        prefix_cache=True,
    ),
    "disagg-faults": ServingConfig(
        num_requests=750,
        long_requests=125,
        generation_len=32,
        num_shards=8,
        prefix_cache=True,
        disaggregated=True,
        replicas=4,
    ),
}

WORKLOADS = (*SERVING_CONFIGS, "offline-policy")


def make_workload(name: str, seed: int):
    if name == "offline-policy":
        return OfflineWorkload(seed)
    return ServingWorkload(SERVING_CONFIGS[name], seed)
