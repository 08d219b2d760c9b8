"""HRM-based performance model (paper §4.2, Eqs. 12-14).

The model estimates the per-layer decode latency of a policy as

``T = max(comm_cpu_to_gpu, T_cpu, T_gpu)``

where each computation's time is itself the ``max`` of its compute time at
(derated) peak FLOPS and its data-movement time at (derated) peak bandwidth
— exactly the two-roof form of Eq. 8/14 — and the CPU-to-GPU communication
term aggregates the streamed weight pages, the hidden-state uploads after
CPU attention and any KV-cache transfers required by the policy.

The same machinery estimates prefill latency and end-to-end generation
throughput (generated tokens divided by prefill + decode time, the paper's
metric), which is what the policy optimizer maximises.

All peaks are derated by an :class:`EfficiencyModel`; the paper similarly
pairs "theoretically calculated computation flops and bytes with profiled
peak performance and memory bandwidth".  The defaults are deliberately
modest and shared across every system we compare, so relative results —
the quantity the paper argues the model predicts well — do not depend on
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.memory_model import MemoryModel
from repro.core.policy import Policy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.models.flops import (
    attention_decode_cost,
    attention_prefill_cost,
    ffn_cost,
    layer_norm_cost,
    lm_head_cost,
    o_proj_cost,
    qkv_proj_cost,
)
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_fraction, require_positive, require_positive_int
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.cluster.partition import PartitionPlan


@dataclass(frozen=True)
class EfficiencyModel:
    """Derating factors applied to hardware peaks.

    Real kernels do not reach spec-sheet peaks; decode-time GEMMs in
    particular are launched on small micro-batches.  A single set of factors
    is shared by every system under comparison.
    """

    gpu_compute: float = 0.55
    gpu_memory: float = 0.80
    cpu_compute: float = 0.45
    cpu_memory: float = 0.65
    interconnect: float = 0.85

    def __post_init__(self) -> None:
        for name in (
            "gpu_compute",
            "gpu_memory",
            "cpu_compute",
            "cpu_memory",
            "interconnect",
        ):
            require_fraction(name, getattr(self, name))
            require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-layer decode latency decomposition (one decode step, one layer)."""

    comm_htod: float
    comm_dtoh: float
    t_cpu: float
    t_gpu: float
    components: dict = field(default_factory=dict, compare=False)

    @property
    def t_layer(self) -> float:
        """Eq. 12: the pipelined per-layer latency."""
        return max(self.comm_htod, self.comm_dtoh, self.t_cpu, self.t_gpu)

    @property
    def bottleneck(self) -> str:
        """Which term of Eq. 12 binds: ``htod``, ``dtoh``, ``cpu`` or ``gpu``."""
        terms = {
            "htod": self.comm_htod,
            "dtoh": self.comm_dtoh,
            "cpu": self.t_cpu,
            "gpu": self.t_gpu,
        }
        return max(terms, key=terms.get)

    @property
    def overlap_speedup(self) -> float:
        """Serial sum of all resource times divided by the critical path.

        A value of 1.0 means no overlap at all; values approaching the
        number of busy resources mean the pipeline hides almost everything
        behind the bottleneck resource.
        """
        serial = self.comm_htod + self.comm_dtoh + self.t_cpu + self.t_gpu
        critical = self.t_layer
        return serial / critical if critical > 0 else 1.0


@dataclass(frozen=True)
class ThroughputEstimate:
    """End-to-end generation-throughput estimate for one policy."""

    policy: Policy
    prefill_time: float
    decode_time: float
    tokens_generated: int
    breakdown: LatencyBreakdown
    bottleneck: str

    @property
    def total_time(self) -> float:
        """Prefill plus decode time for the batch."""
        return self.prefill_time + self.decode_time

    @property
    def throughput(self) -> float:
        """Generated tokens per second (the paper's metric)."""
        if self.total_time <= 0:
            return 0.0
        return self.tokens_generated / self.total_time

    @property
    def decode_throughput(self) -> float:
        """Generated tokens per second counting decode time only."""
        if self.decode_time <= 0:
            return 0.0
        return self.tokens_generated / self.decode_time


@dataclass(frozen=True)
class PerformanceModel:
    """Analytical latency/throughput model for a (model, hardware, workload).

    ``padded`` selects whether every request is charged the workload's
    maximum prompt length (FlexGen and MoE-Lightning(p)) or the average
    (MoE-Lightning with variable-length batching).
    """

    model: ModelConfig
    hardware: HardwareSpec
    workload: WorkloadSpec
    efficiency: EfficiencyModel = field(default_factory=EfficiencyModel)
    padded: bool = False
    #: Micro-batch-size -> (pre-attention, O-projection, FFN) operator
    #: costs.  They depend on the model and ``mu`` only, while the policy
    #: search and step pricing ask for one layer breakdown per policy and
    #: context length, so each is computed once per ``mu``.
    _micro_batch_costs: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Effective hardware rates
    # ------------------------------------------------------------------
    @property
    def gpu_flops(self) -> float:
        """Derated GPU FLOPs/s."""
        return self.hardware.gpu_flops * self.efficiency.gpu_compute

    @property
    def gpu_bandwidth(self) -> float:
        """Derated GPU HBM bandwidth."""
        return self.hardware.gpu_bandwidth * self.efficiency.gpu_memory

    @property
    def cpu_flops(self) -> float:
        """Derated CPU FLOPs/s."""
        return self.hardware.cpu_flops * self.efficiency.cpu_compute

    @property
    def cpu_bandwidth(self) -> float:
        """Derated CPU DRAM bandwidth."""
        return self.hardware.cpu_bandwidth * self.efficiency.cpu_memory

    @property
    def interconnect_bandwidth(self) -> float:
        """Derated CPU-GPU interconnect bandwidth (per direction)."""
        return self.hardware.cpu_gpu_bandwidth * self.efficiency.interconnect

    @property
    def memory_model(self) -> MemoryModel:
        """The matching memory-constraint model."""
        return MemoryModel(
            model=self.model,
            hardware=self.hardware,
            workload=self.workload,
            padded=self.padded,
        )

    def prompt_len(self) -> int:
        """Prompt length charged per request under the padding setting."""
        return self.workload.effective_prompt_len(self.padded)

    # ------------------------------------------------------------------
    # Primitive task times (Eq. 8 / Eq. 14: max(comm, comp))
    # ------------------------------------------------------------------
    def _gpu_task_time(self, flops: float, local_bytes: float) -> float:
        return max(flops / self.gpu_flops, local_bytes / self.gpu_bandwidth)

    def _cpu_task_time(self, flops: float, local_bytes: float) -> float:
        return max(flops / self.cpu_flops, local_bytes / self.cpu_bandwidth)

    def _transfer_time(self, num_bytes: float, num_transfers: int = 1) -> float:
        latency = self.hardware.interconnect.latency * max(num_transfers, 0)
        return num_bytes / self.interconnect_bandwidth + latency

    # ------------------------------------------------------------------
    # Decode-stage per-layer latency (Eqs. 12-14)
    # ------------------------------------------------------------------
    def layer_decode_breakdown(
        self, policy: Policy, context_len: int
    ) -> LatencyBreakdown:
        """Latency breakdown for one decode step of one layer at ``context_len``."""
        require_positive_int("context_len", context_len)
        mu = policy.micro_batch_size
        n_ub = policy.num_micro_batches
        dtype_bytes = self.model.dtype.num_bytes

        costs = self._micro_batch_costs.get(mu)
        if costs is None:
            costs = (
                layer_norm_cost(self.model, mu).combine(qkv_proj_cost(self.model, mu)),
                o_proj_cost(self.model, mu),
                ffn_cost(self.model, mu),
            )
            self._micro_batch_costs[mu] = costs
        pre, o_proj, ffn = costs
        attn = attention_decode_cost(self.model, mu, context_len)

        components: dict[str, float] = {}

        # --- GPU time -------------------------------------------------
        t_gpu = n_ub * self._gpu_task_time(pre.flops, pre.total_bytes)
        components["gpu_pre_attn"] = t_gpu
        t_o = n_ub * self._gpu_task_time(o_proj.flops, o_proj.total_bytes)
        t_gpu += t_o
        components["gpu_o_proj"] = t_o
        if policy.ffn_on_gpu:
            t_ffn = n_ub * self._gpu_task_time(ffn.flops, ffn.total_bytes)
            t_gpu += t_ffn
            components["gpu_ffn"] = t_ffn
        if policy.attention_on_gpu:
            t_attn_gpu = n_ub * self._gpu_task_time(attn.flops, attn.total_bytes)
            t_gpu += t_attn_gpu
            components["gpu_attention"] = t_attn_gpu

        # --- CPU time -------------------------------------------------
        t_cpu = 0.0
        if not policy.attention_on_gpu:
            t_cpu += n_ub * self._cpu_task_time(attn.flops, attn.total_bytes)
            components["cpu_attention"] = t_cpu
        if not policy.ffn_on_gpu:
            t_ffn_cpu = n_ub * self._cpu_task_time(ffn.flops, ffn.total_bytes)
            t_cpu += t_ffn_cpu
            components["cpu_ffn"] = t_ffn_cpu

        # --- Host-to-device traffic ------------------------------------
        memory = self.memory_model
        weight_bytes = memory.streamed_layer_bytes(policy)
        htod_bytes = weight_bytes
        components["htod_weight_bytes"] = weight_bytes
        htod_transfers = n_ub if weight_bytes > 0 else 0
        if not policy.attention_on_gpu:
            # Hidden states return to the GPU after CPU attention (D2).
            hidden_up = policy.batch_size * self.model.hidden_size * dtype_bytes
            htod_bytes += hidden_up
            htod_transfers += n_ub
            components["htod_hidden_bytes"] = hidden_up
        if policy.attention_on_gpu:
            kv_bytes = (
                policy.kv_cache_cpu_ratio
                * policy.batch_size
                * context_len
                * kv_cache_bytes_per_token_per_layer(self.model)
            )
            htod_bytes += kv_bytes
            htod_transfers += n_ub if kv_bytes > 0 else 0
            components["htod_kv_bytes"] = kv_bytes
        if not policy.ffn_on_gpu:
            # Hidden states move down for the CPU FFN and back up afterwards.
            hidden_round_trip = (
                policy.batch_size * self.model.hidden_size * dtype_bytes
            )
            htod_bytes += hidden_round_trip
            htod_transfers += n_ub
            components["htod_ffn_hidden_bytes"] = hidden_round_trip
        comm_htod = self._transfer_time(htod_bytes, htod_transfers)

        # --- Device-to-host traffic ------------------------------------
        dtoh_bytes = 0.0
        dtoh_transfers = 0
        if not policy.attention_on_gpu:
            # Query, plus the new token's key/value, offloaded after QKV (D1).
            qkv_down = (
                policy.batch_size
                * (self.model.hidden_size + 2 * self.model.kv_dim)
                * dtype_bytes
            )
            dtoh_bytes += qkv_down
            dtoh_transfers += n_ub
            components["dtoh_qkv_bytes"] = qkv_down
        else:
            # New token's key/value written back to the CPU-resident cache.
            kv_write = (
                policy.kv_cache_cpu_ratio
                * policy.batch_size
                * 2
                * self.model.kv_dim
                * dtype_bytes
            )
            dtoh_bytes += kv_write
            dtoh_transfers += n_ub if kv_write > 0 else 0
            components["dtoh_kv_write_bytes"] = kv_write
        if not policy.ffn_on_gpu:
            dtoh_bytes += policy.batch_size * self.model.hidden_size * dtype_bytes
            dtoh_transfers += n_ub
        comm_dtoh = self._transfer_time(dtoh_bytes, dtoh_transfers)

        # --- Tensor/expert-parallel collectives (partitioned models) ----
        # Collectives serialise with the GPU stream, so they extend t_gpu
        # rather than forming a fifth pipelined resource.  The base model
        # runs on one shard and contributes exactly zero here.
        t_collective = self._collective_decode_time(policy)
        if t_collective > 0.0:
            t_gpu += t_collective
            components["gpu_collective"] = t_collective

        return LatencyBreakdown(
            comm_htod=comm_htod,
            comm_dtoh=comm_dtoh,
            t_cpu=t_cpu,
            t_gpu=t_gpu,
            components=components,
        )

    # ------------------------------------------------------------------
    # Collective-communication hooks (overridden by the partitioned model)
    # ------------------------------------------------------------------
    def _collective_decode_time(self, policy: Policy) -> float:
        """Per-layer collective time of one decode step (0 on one shard)."""
        return 0.0

    def _collective_prefill_time(self, policy: Policy) -> float:
        """Per-layer collective time of the whole-batch prefill (0 base)."""
        return 0.0

    def decode_step_latency(self, policy: Policy, context_len: int) -> float:
        """Latency of one full decode step (all layers plus the LM head)."""
        layer = self.layer_decode_breakdown(policy, context_len).t_layer
        head = lm_head_cost(self.model, policy.batch_size)
        t_head = self._gpu_task_time(head.flops, head.total_bytes)
        return self.model.num_layers * layer + t_head

    def decode_time(self, policy: Policy, num_samples: int = 9) -> float:
        """Total decode time for the batch, integrating over context growth.

        The per-step latency changes with the context length (attention and
        KV traffic grow as the cache fills); we sample the step latency at
        ``num_samples`` evenly spaced context lengths and integrate with the
        trapezoidal rule.
        """
        require_positive_int("num_samples", num_samples)
        gen_len = self.workload.generation_len
        start = self.prompt_len()
        if gen_len == 1:
            return self.decode_step_latency(policy, start + 1)
        sample_count = min(num_samples, gen_len)
        positions = [
            start + 1 + round(i * (gen_len - 1) / (sample_count - 1))
            for i in range(sample_count)
        ]
        latencies = [self.decode_step_latency(policy, pos) for pos in positions]
        total = 0.0
        for i in range(sample_count - 1):
            steps = positions[i + 1] - positions[i]
            total += 0.5 * (latencies[i] + latencies[i + 1]) * steps
        return total

    # ------------------------------------------------------------------
    # Prefill stage
    # ------------------------------------------------------------------
    def prefill_time(self, policy: Policy) -> float:
        """Prefill latency for the whole batch.

        Prefill runs on the GPU for every micro-batch (paper §4); weights
        stream up, prompt KV streams down to the CPU cache, and compute is
        usually the binding term.
        """
        prompt = self.prompt_len()
        mu = policy.micro_batch_size
        n_ub = policy.num_micro_batches

        pre = layer_norm_cost(self.model, mu * prompt).combine(
            qkv_proj_cost(self.model, mu * prompt)
        )
        attn = attention_prefill_cost(self.model, mu, prompt)
        o_proj = o_proj_cost(self.model, mu * prompt)
        ffn = ffn_cost(self.model, mu * prompt)

        flops = pre.flops + attn.flops + o_proj.flops + ffn.flops
        local_bytes = (
            pre.total_bytes + attn.total_bytes + o_proj.total_bytes + ffn.total_bytes
        )
        gpu_time = n_ub * self._gpu_task_time(flops, local_bytes)
        t_collective = self._collective_prefill_time(policy)
        if t_collective > 0.0:
            gpu_time += t_collective

        memory = self.memory_model
        weight_time = self._transfer_time(memory.streamed_layer_bytes(policy), 1)
        kv_offload_bytes = (
            policy.kv_cache_cpu_ratio
            * policy.batch_size
            * prompt
            * kv_cache_bytes_per_token_per_layer(self.model)
        )
        kv_offload_time = self._transfer_time(kv_offload_bytes, n_ub)

        per_layer = max(gpu_time, weight_time, kv_offload_time)
        head = lm_head_cost(self.model, policy.batch_size)
        t_head = self._gpu_task_time(head.flops, head.total_bytes)
        return self.model.num_layers * per_layer + t_head

    # ------------------------------------------------------------------
    # End-to-end estimate
    # ------------------------------------------------------------------
    def estimate(self, policy: Policy) -> ThroughputEstimate:
        """Full throughput estimate for ``policy`` (does not check memory)."""
        mid_context = self.prompt_len() + max(1, self.workload.generation_len // 2)
        breakdown = self.layer_decode_breakdown(policy, mid_context)
        prefill = self.prefill_time(policy)
        decode = self.decode_time(policy)
        tokens = policy.batch_size * self.workload.generation_len
        return ThroughputEstimate(
            policy=policy,
            prefill_time=prefill,
            decode_time=decode,
            tokens_generated=tokens,
            breakdown=breakdown,
            bottleneck=breakdown.bottleneck,
        )

    def estimate_feasible(self, policy: Policy) -> ThroughputEstimate:
        """Like :meth:`estimate` but first enforces the memory constraints."""
        self.memory_model.check(policy)
        return self.estimate(policy)


@dataclass(frozen=True)
class PartitionedPerformanceModel(PerformanceModel):
    """HRM model for a model partitioned across a cluster's devices.

    The aggregate roofline terms are inherited unchanged — ``hardware``
    must be the cluster's :meth:`~repro.cluster.spec.ClusterSpec.aggregate_hardware`
    view, under which per-shard compute at one device's rate equals the
    aggregate computation at the aggregate rate, and the shared host/PCIe
    terms are identical.  What partitioning *adds* is the collective
    traffic of the :class:`~repro.cluster.partition.PartitionPlan`, priced
    on the cluster's device link (derated by the shared interconnect
    efficiency) and folded into the GPU stream time of every layer.
    """

    plan: "PartitionPlan | None" = None

    def __post_init__(self) -> None:
        if self.plan is None:
            raise ConfigurationError(
                "PartitionedPerformanceModel requires a PartitionPlan"
            )
        self.plan.validate_model(self.model)

    # ------------------------------------------------------------------
    # Link rates and collective times
    # ------------------------------------------------------------------
    @property
    def link_bandwidth(self) -> float:
        """Derated device-to-device link bandwidth (per direction/device)."""
        return self.plan.cluster.link.bandwidth * self.efficiency.interconnect

    @property
    def memory_model(self) -> MemoryModel:
        """The matching per-shard memory-constraint model."""
        from repro.core.memory_model import PartitionedMemoryModel

        return PartitionedMemoryModel(
            model=self.model,
            hardware=self.hardware,
            workload=self.workload,
            padded=self.padded,
            plan=self.plan,
        )

    def _collective_time(self, traffic) -> float:
        """Wall time of one layer's collectives on the device link."""
        if traffic.is_empty:
            return 0.0
        return (
            traffic.bytes_on_link / self.link_bandwidth
            + traffic.launches * self.plan.cluster.link.latency
        )

    def _collective_decode_time(self, policy: Policy) -> float:
        """Per-layer collective time for one decode step of the batch."""
        traffic = self.plan.layer_collective_traffic(
            self.model, policy, policy.batch_size
        )
        return self._collective_time(traffic)

    def _collective_prefill_time(self, policy: Policy) -> float:
        """Per-layer collective time for prefilling the whole batch."""
        traffic = self.plan.layer_collective_traffic(
            self.model, policy, policy.batch_size * self.prompt_len()
        )
        return self._collective_time(traffic)

    def collective_decode_step_time(self, policy: Policy) -> float:
        """All-layer collective time of one decode step.

        The discrete-event schedule simulators are single-node and know
        nothing about collectives; end-to-end system runs add this on top
        of each simulated decode step.
        """
        return self.model.num_layers * self._collective_decode_time(policy)
