"""Request lifecycle state and the waiting queue of the serving system.

A :class:`ServingRequest` tracks one request from arrival to completion and
records the timestamps the latency metrics are computed from.  The
:class:`RequestQueue` holds admitted-but-not-yet-prefilled requests in
arrival order with a bounded depth (arrivals that find the queue full are
dropped, which is what bounds tail latency under overload).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass

from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive_int
from repro.workloads.request import Request


class RequestState(enum.Enum):
    """Where a request is in its serving lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    REJECTED = "rejected"


#: Canonical terminal outcome codes for non-completed requests.  Every
#: rejection carries exactly one of these so reports can account for each
#: drop class separately (queue overflow vs crash vs deadline vs shed ...).
OUTCOME_CODES: tuple[str, ...] = (
    "queue-full",
    "oversized",
    "migration-capacity",
    "crash",
    "timeout",
    "shed",
    "unavailable",
    "other",
)

#: Human-readable reject reasons -> canonical outcome codes (legacy call
#: sites pass only a reason string; new ones pass ``code=`` explicitly).
_REASON_CODES = {
    "queue full": "queue-full",
    "migration target over capacity": "migration-capacity",
}


def outcome_code_for(reason: str) -> str:
    """Map a reject reason string onto its canonical outcome code."""
    code = _REASON_CODES.get(reason)
    if code is not None:
        return code
    if reason.startswith("prompt") or "exceed" in reason or "capacity" in reason:
        return "oversized"
    return "other"


@dataclass
class ServingRequest:
    """One request's serving lifecycle and timestamps.

    ``tokens_decoded`` counts generated tokens; prefill emits the first
    token, so a request finishes after ``generation_len - 1`` further decode
    steps.  All times are simulated seconds since the stream started.

    While a request sits in an engine's running set, ``tokens_decoded``
    can be backed by the engine's shared decode-epoch counter (see
    :meth:`attach_decode_epoch`): the engine then advances *one* integer
    per decode step instead of touching every running request, and this
    request's count reads as ``epoch + offset``.  Detached requests (the
    default) store the plain integer, so standalone use is unchanged.
    """

    request: Request
    arrival_time: float
    state: RequestState = RequestState.QUEUED
    admit_time: float | None = None
    first_token_time: float | None = None
    finish_time: float | None = None
    tokens_decoded: int = 0
    tokens_prefilled: int = 0
    tokens_cached: int = 0
    reject_reason: str | None = None
    shard_id: int | None = None
    #: Retry generation: 0 for the original submission, 1+ for re-entries
    #: injected by the resilience layer (same underlying ``Request``, so
    #: session identity and the prefix hash chain are preserved).
    attempt: int = 0
    #: Canonical terminal outcome code for rejected requests (see
    #: :data:`OUTCOME_CODES`); ``None`` while live and for completions.
    outcome_code: str | None = None

    # Class-level defaults so the ``tokens_decoded`` property works during
    # ``__init__`` and on detached requests (not dataclass fields).
    _epoch_box = None
    _epoch_offset = 0

    def attach_decode_epoch(self, box: list[int]) -> None:
        """Back ``tokens_decoded`` by a shared decode-epoch counter."""
        self._epoch_offset = self._tokens_decoded - box[0]
        self._epoch_box = box

    def detach_decode_epoch(self) -> None:
        """Materialise the epoch-backed count back into plain storage."""
        box = self._epoch_box
        if box is not None:
            self._tokens_decoded = box[0] + self._epoch_offset
            self._epoch_box = None

    @property
    def request_id(self) -> int:
        """The underlying request's id (also the KV-cache sequence id)."""
        return self.request.request_id

    @property
    def context_len(self) -> int:
        """Current KV context length: prompt plus decoded tokens."""
        return self.request.effective_input_len + self.tokens_decoded

    @property
    def prefill_remaining(self) -> int:
        """Prompt tokens not yet prefilled (drives chunked prefill).

        Admission counts prefix-cache hits as already prefilled
        (``tokens_cached``), so a hit shortens both whole-prompt and chunked
        prefill schedules.
        """
        return self.request.effective_input_len - self.tokens_prefilled

    @property
    def is_cache_hit(self) -> bool:
        """Whether admission reused any cached prefix blocks."""
        return self.tokens_cached > 0

    @property
    def is_prefill_complete(self) -> bool:
        """Whether the whole prompt has been processed."""
        return self.prefill_remaining <= 0

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def mark_running(self, now: float) -> None:
        """Admit the request into the running batch (prefill about to start)."""
        self.state = RequestState.RUNNING
        self.admit_time = now

    def mark_first_token(self, now: float) -> None:
        """Record the end of prefill, which emits the first token."""
        self.first_token_time = now
        self.tokens_decoded = 1
        self.tokens_prefilled = self.request.effective_input_len

    def mark_finished(self, now: float) -> None:
        """Record completion."""
        self.state = RequestState.FINISHED
        self.finish_time = now

    def mark_rejected(self, now: float, reason: str, code: str | None = None) -> None:
        """Record a drop (queue overflow, admission rejection, crash, ...).

        ``code`` pins the canonical outcome code; legacy call sites that
        pass only a reason string get it derived via
        :func:`outcome_code_for`.
        """
        self.state = RequestState.REJECTED
        self.finish_time = now
        self.reject_reason = reason
        self.outcome_code = code if code is not None else outcome_code_for(reason)

    # ------------------------------------------------------------------
    # Latency metrics
    # ------------------------------------------------------------------
    @property
    def ttft(self) -> float | None:
        """Time to first token: arrival to end of the prefill step."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float | None:
        """Time per output token over the decode phase (None until finished)."""
        if self.finish_time is None or self.first_token_time is None:
            return None
        if self.state is not RequestState.FINISHED:
            return None
        decode_tokens = self.request.generation_len - 1
        if decode_tokens <= 0:
            return 0.0
        return (self.finish_time - self.first_token_time) / decode_tokens

    @property
    def e2e_latency(self) -> float | None:
        """Arrival to completion (None until finished)."""
        if self.finish_time is None or self.state is not RequestState.FINISHED:
            return None
        return self.finish_time - self.arrival_time


def _tokens_decoded_get(self: ServingRequest) -> int:
    box = self._epoch_box
    if box is not None:
        return box[0] + self._epoch_offset
    return self._tokens_decoded


def _tokens_decoded_set(self: ServingRequest, value: int) -> None:
    box = self._epoch_box
    if box is not None:
        self._epoch_offset = value - box[0]
    else:
        self._tokens_decoded = value


# Installed post-class so the dataclass machinery still treats
# ``tokens_decoded`` as an ordinary default-0 field.  The plain count lives
# in ``_tokens_decoded``, never in ``__dict__`` directly: CPython then never
# materialises the instance dict, one garbage-collected object less per
# request.
ServingRequest.tokens_decoded = property(  # type: ignore[assignment]
    _tokens_decoded_get, _tokens_decoded_set
)


class RequestQueue:
    """Bounded first-come-first-served waiting queue (a heap on arrival time)."""

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None:
            require_positive_int("max_depth", max_depth)
        self.max_depth = max_depth
        self._tiebreak = itertools.count()
        self._heap: list[tuple[float, int, ServingRequest]] = []

    @property
    def is_full(self) -> bool:
        """Whether a new arrival would overflow the queue."""
        return self.max_depth is not None and len(self._heap) >= self.max_depth

    def push(self, serving_request: ServingRequest) -> bool:
        """Enqueue a request; returns False (a drop) when the queue is full."""
        if self.is_full:
            return False
        heapq.heappush(
            self._heap,
            (serving_request.arrival_time, next(self._tiebreak), serving_request),
        )
        return True

    def peek(self) -> ServingRequest | None:
        """The next request to be served, without removing it."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> ServingRequest:
        """Remove and return the next request to be served."""
        if not self._heap:
            raise ConfigurationError("pop from an empty request queue")
        return heapq.heappop(self._heap)[2]

    def requeue(self, serving_request: ServingRequest) -> None:
        """Return a popped request to the queue (e.g. admission deferred it).

        Re-pushes under its arrival time; the fresh tiebreak only matters
        for exact ties, which arrival times never produce.
        """
        heapq.heappush(
            self._heap,
            (serving_request.arrival_time, next(self._tiebreak), serving_request),
        )

    def drain(self) -> list[ServingRequest]:
        """Remove and return every queued request in serving order.

        Used by crash teardown: a dead shard's waiting queue empties in one
        sweep so each request gets exactly one terminal record.
        """
        drained = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return drained

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
