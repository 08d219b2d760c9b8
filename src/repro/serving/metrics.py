"""Per-request latency metrics, percentiles and SLO-goodput.

Online serving is judged on latency *distributions*, not the single batch
throughput number of the offline harness:

* **TTFT** — time to first token (arrival to end of prefill), the metric
  interactive users feel;
* **TPOT** — time per output token over the decode phase, the streaming
  smoothness metric;
* **E2E latency** — arrival to final token;
* **SLO-goodput** — completed requests per second that met *both* the TTFT
  and TPOT SLOs: the quantity a capacity planner actually provisions for,
  since tokens delivered late count for nothing.

Percentiles use linear interpolation (numpy's default) so reports are
deterministic and comparable across runs.

Aggregation runs in one of two modes (:class:`ReportBuilder`):

* ``store_samples=True`` — every latency sample is kept and percentiles
  are exact (``numpy.percentile``); this is the historical path and the
  one regression tests pin bit-for-bit;
* ``store_samples=False`` — the streaming mode: each latency metric feeds
  P² quantile sketches (:class:`repro.obs.P2Quantile`, O(1) memory per
  metric) and running sums, so million-request streams aggregate with
  flat memory.  Estimates are exact below five samples and within the
  tested P² tolerance beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import P2Quantile
from repro.serving.queue import OUTCOME_CODES, RequestState, ServingRequest
from repro.utils.validation import require_positive

#: Percentiles reported for each latency metric.
REPORT_PERCENTILES: tuple[int, ...] = (50, 95, 99)


_RAISE = object()


def percentile(
    values: Sequence[float], q: float, default: float = _RAISE
) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    An empty sample has no percentile: it raises :class:`ValueError` unless
    an explicit ``default`` is supplied.  (The old behaviour of silently
    returning ``0.0`` made an empty run's p99 indistinguishable from a
    genuinely instant one — callers that want a sentinel must now say so.)
    """
    if not values:
        if default is _RAISE:
            raise ValueError(
                f"percentile(q={q}) of an empty sample is undefined; "
                "pass default= to choose a sentinel"
            )
        return default
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class SLO:
    """A latency service-level objective, in simulated seconds."""

    ttft: float
    tpot: float

    def __post_init__(self) -> None:
        require_positive("ttft", self.ttft)
        require_positive("tpot", self.tpot)

    def is_met(self, serving_request: ServingRequest) -> bool:
        """Whether a finished request met both latency targets."""
        ttft = serving_request.ttft
        tpot = serving_request.tpot
        if ttft is None or tpot is None:
            return False
        return ttft <= self.ttft and tpot <= self.tpot

    def scaled(self, factor: float) -> "SLO":
        """A copy with both targets multiplied by ``factor``."""
        require_positive("factor", factor)
        return SLO(ttft=self.ttft * factor, tpot=self.tpot * factor)


@dataclass(frozen=True)
class ServingReport:
    """Aggregate metrics for one serving run."""

    num_offered: int
    num_completed: int
    num_rejected: int
    makespan: float
    tokens_generated: int
    ttft: dict[int, float]
    tpot: dict[int, float]
    e2e: dict[int, float]
    mean_ttft: float
    mean_tpot: float
    slo_met: int
    goodput: float
    #: Prefix-cache statistics (all zero when the cache is off or cold).
    cache_hits: int = 0
    hit_rate: float = 0.0
    cached_token_fraction: float = 0.0
    mean_ttft_hit: float = 0.0
    mean_ttft_miss: float = 0.0
    #: Rejections by canonical outcome code (``queue-full``, ``crash``,
    #: ``timeout``, ``shed``, ...) — the per-class breakdown of
    #: ``num_rejected``, so drops never vanish into one opaque total.
    outcomes: dict[str, int] = field(default_factory=dict)
    #: Offered requests that were resilience-layer re-submissions
    #: (``attempt > 0``); 0 on every run without retries.
    num_retries: int = 0

    @property
    def token_throughput(self) -> float:
        """Generated tokens per second over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return self.tokens_generated / self.makespan

    @property
    def goodput_fraction(self) -> float:
        """Fraction of *offered* requests that completed within the SLO.

        Rejected and SLO-violating requests both count against this, so it
        is the end-user success probability under the offered load.
        """
        if self.num_offered == 0:
            return 0.0
        return self.slo_met / self.num_offered

    def as_row(self) -> dict[str, object]:
        """Flat dictionary for the table renderer."""
        row: dict[str, object] = {
            "offered": self.num_offered,
            "completed": self.num_completed,
            "rejected": self.num_rejected,
            "makespan_s": self.makespan,
            "token_throughput": self.token_throughput,
            "ttft_p50": self.ttft[50],
            "ttft_p95": self.ttft[95],
            "ttft_p99": self.ttft[99],
            "tpot_p50": self.tpot[50],
            "tpot_p95": self.tpot[95],
            "tpot_p99": self.tpot[99],
            "e2e_p50": self.e2e[50],
            "e2e_p95": self.e2e[95],
            "e2e_p99": self.e2e[99],
            "mean_ttft": self.mean_ttft,
            "mean_tpot": self.mean_tpot,
            "slo_met": self.slo_met,
            "goodput": self.goodput,
            "goodput_fraction": self.goodput_fraction,
            "hit_rate": self.hit_rate,
            "cached_token_fraction": self.cached_token_fraction,
        }
        row["retries"] = self.num_retries
        for code in OUTCOME_CODES:
            row[f"drop_{code.replace('-', '_')}"] = self.outcomes.get(code, 0)
        return row


class ReportBuilder:
    """Incremental :class:`ServingReport` aggregation over request records.

    ``store_samples=True`` keeps every latency sample and computes exact
    ``numpy.percentile`` / ``numpy.mean`` values — byte-identical to the
    historical :func:`summarize` (which now delegates here).

    ``store_samples=False`` is the streaming mode: O(1) memory regardless
    of stream length.  Percentiles come from P² sketches (exact below five
    samples, within tested tolerance beyond) and means from running sums
    (which can differ from numpy's pairwise summation in the last few
    ulps — acceptable only in this mode).
    """

    _LATENCIES = ("ttft", "tpot", "e2e")

    def __init__(self, slo: SLO, *, store_samples: bool = False) -> None:
        self.slo = slo
        self.store_samples = store_samples
        self.num_offered = 0
        self.num_completed = 0
        self.num_rejected = 0
        self.tokens_generated = 0
        self.slo_met = 0
        self.cache_hits = 0
        self.prompt_tokens = 0
        self.cached_tokens = 0
        self.outcomes: dict[str, int] = {}
        self.num_retries = 0
        if store_samples:
            self._samples: dict[str, list[float]] = {
                name: [] for name in self._LATENCIES
            }
            self._hit_ttfts: list[float] = []
            self._miss_ttfts: list[float] = []
        else:
            self._sketches: dict[str, dict[int, P2Quantile]] = {
                name: {q: P2Quantile(q / 100.0) for q in REPORT_PERCENTILES}
                for name in self._LATENCIES
            }
            self._sums: dict[str, float] = {
                "ttft": 0.0, "tpot": 0.0, "hit_ttft": 0.0, "miss_ttft": 0.0
            }
            self._counts: dict[str, int] = {
                "ttft": 0, "tpot": 0, "hit_ttft": 0, "miss_ttft": 0
            }
            # Hot-path view of the sketches (tuple iteration beats dict
            # .values() at ~10k observations/s per shard).
            self._sketch_tuples: dict[str, tuple[P2Quantile, ...]] = {
                name: tuple(sketches.values())
                for name, sketches in self._sketches.items()
            }

    def observe(self, sr: ServingRequest) -> None:
        """Fold one terminal (or still-live, at stream end) request in."""
        self._fold((sr,))

    def observe_many(self, serving_requests: Iterable[ServingRequest]) -> None:
        """Fold a batch of terminal requests in (one retirement's worth).

        Identical aggregate state to calling :meth:`observe` per request in
        the same order; only the per-call overhead is amortised.
        """
        self._fold(serving_requests)

    def _fold(self, serving_requests: Iterable[ServingRequest]) -> None:
        # Each P² sketch sees its own metric's values in request order and
        # the running float sums accumulate left-to-right, so one call per
        # request and one call per batch reach the same state bit-for-bit.
        store = self.store_samples
        if store:
            ttfts = self._samples["ttft"]
            tpots = self._samples["tpot"]
            e2es = self._samples["e2e"]
        else:
            ttfts, tpots, e2es = [], [], []
            sums = self._sums
            counts = self._counts
        for sr in serving_requests:
            self.num_offered += 1
            if sr.attempt:
                self.num_retries += 1
            state = sr.state
            if state is RequestState.REJECTED:
                self.num_rejected += 1
                code = sr.outcome_code or "other"
                self.outcomes[code] = self.outcomes.get(code, 0) + 1
                continue
            if state is not RequestState.FINISHED:
                continue
            self.num_completed += 1
            self.tokens_generated += sr.tokens_decoded
            if self.slo.is_met(sr):
                self.slo_met += 1
            self.prompt_tokens += sr.request.effective_input_len
            self.cached_tokens += sr.tokens_cached
            hit = sr.is_cache_hit
            if hit:
                self.cache_hits += 1
            ttft = sr.ttft
            tpot = sr.tpot
            e2e = sr.e2e_latency
            if ttft is not None:
                ttfts.append(ttft)
                if store:
                    (self._hit_ttfts if hit else self._miss_ttfts).append(ttft)
                else:
                    sums["ttft"] += ttft
                    counts["ttft"] += 1
                    key = "hit_ttft" if hit else "miss_ttft"
                    sums[key] += ttft
                    counts[key] += 1
            if tpot is not None:
                tpots.append(tpot)
                if not store:
                    sums["tpot"] += tpot
                    counts["tpot"] += 1
            if e2e is not None:
                e2es.append(e2e)
        if not store:
            for name, values in (("ttft", ttfts), ("tpot", tpots), ("e2e", e2es)):
                if values:
                    for sketch in self._sketch_tuples[name]:
                        sketch.add_many(values)

    def _percentiles(self, name: str) -> dict[int, float]:
        # A run that completed nothing reports 0.0 percentiles (the
        # historical sentinel), chosen explicitly here.
        if self.store_samples:
            values = self._samples[name]
            return {
                q: percentile(values, q, default=0.0)
                for q in REPORT_PERCENTILES
            }
        out: dict[int, float] = {}
        for q, sketch in self._sketches[name].items():
            value = sketch.value()
            out[q] = 0.0 if math.isnan(value) else float(value)
        return out

    def _mean(self, key: str) -> float:
        if self.store_samples:
            values = {
                "ttft": self._samples["ttft"],
                "tpot": self._samples["tpot"],
                "hit_ttft": self._hit_ttfts,
                "miss_ttft": self._miss_ttfts,
            }[key]
            return float(np.mean(values)) if values else 0.0
        count = self._counts[key]
        return self._sums[key] / count if count else 0.0

    def build(self, makespan: float) -> ServingReport:
        """Freeze the aggregates into a :class:`ServingReport`."""
        return ServingReport(
            num_offered=self.num_offered,
            num_completed=self.num_completed,
            num_rejected=self.num_rejected,
            makespan=makespan,
            tokens_generated=self.tokens_generated,
            ttft=self._percentiles("ttft"),
            tpot=self._percentiles("tpot"),
            e2e=self._percentiles("e2e"),
            mean_ttft=self._mean("ttft"),
            mean_tpot=self._mean("tpot"),
            slo_met=self.slo_met,
            goodput=self.slo_met / makespan if makespan > 0 else 0.0,
            cache_hits=self.cache_hits,
            hit_rate=(
                self.cache_hits / self.num_completed
                if self.num_completed else 0.0
            ),
            cached_token_fraction=(
                self.cached_tokens / self.prompt_tokens
                if self.prompt_tokens > 0 else 0.0
            ),
            mean_ttft_hit=self._mean("hit_ttft"),
            mean_ttft_miss=self._mean("miss_ttft"),
            outcomes=dict(self.outcomes),
            num_retries=self.num_retries,
        )


def summarize(
    requests: Iterable[ServingRequest],
    makespan: float,
    slo: SLO,
) -> ServingReport:
    """Aggregate per-request records into a :class:`ServingReport`.

    Exact (stored-sample) aggregation; for streams too large to hold,
    feed a streaming :class:`ReportBuilder` instead.
    """
    builder = ReportBuilder(slo, store_samples=True)
    for sr in requests:
        builder.observe(sr)
    return builder.build(makespan)
