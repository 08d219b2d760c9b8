"""Regression tests for the serving-loop accounting fixes.

Each test pins one of the event-ordering/accounting bugs fixed alongside
the event-loop refactor:

* the chunked-prefill admission budget charges a prefix-cache hit its
  *remaining* prompt tokens, not its full prompt length;
* a mixed step counts each request exactly once in
  ``EngineStep.num_requests``;
* p95 latencies are surfaced in report rows;
* a queue-full drop leaves an engine's clock untouched.
"""

import pytest

from repro.serving import SLO, ServingRequest, summarize
from repro.serving.admission import AdmissionController
from repro.serving.queue import RequestQueue, RequestState
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.server import EngineCore, EngineStepModel
from repro.systems import MoELightningSystem
from repro.workloads import Request, mtbench

BLOCK = 16
PREFIX = tuple(range(4 * BLOCK))  # four full cacheable blocks


@pytest.fixture(scope="module")
def setup(mixtral, t4_node):
    workload = mtbench(generation_len=8, num_requests=16)
    backend = MoELightningSystem(mixtral, t4_node)
    policy = backend.select_policy(workload)
    return backend, workload, policy


def make_admission(setup, prefix_cache):
    backend, workload, policy = setup
    return AdmissionController(
        model=backend.model,
        hardware=backend.hardware,
        workload=workload,
        policy=policy,
        block_tokens=BLOCK,
        prefix_cache=prefix_cache,
    )


def chat_request(tail_tokens, generation_len=8):
    token_ids = PREFIX + tail_tokens
    return ServingRequest(
        request=Request(
            input_len=len(token_ids),
            generation_len=generation_len,
            token_ids=token_ids,
        ),
        arrival_time=0.0,
    )


class TestChunkBudgetChargesPrefillRemaining:
    """A cache hit's cached tokens are skipped at prefill, so they must
    not consume chunked-prefill budget at admission either."""

    CHUNK_TOKENS = 96  # 80-token prompts: cold fits 2, warm (16 left) fits 6

    def chunk_sizes(self, setup, prefix_cache):
        backend, workload, policy = setup
        admission = make_admission(setup, prefix_cache)
        if prefix_cache:
            # Warm the shard's block store with the shared prefix.
            seed_request = chat_request(tuple(range(1000, 1016)))
            admission.admit(seed_request)
            admission.release(seed_request)
        scheduler = ContinuousBatchingScheduler(
            policy,
            admission,
            scheduling="prefill-first",
            chunk_tokens=self.CHUNK_TOKENS,
        )
        queue = RequestQueue()
        for i in range(8):
            queue.push(chat_request(tuple(range(2000 + 16 * i, 2016 + 16 * i))))
        action = scheduler.next_action(1, queue)  # decoders running -> mixed
        assert action.kind == "mixed"
        return len(action.chunk)

    def test_cache_on_admits_strictly_more_per_chunk(self, setup):
        cold = self.chunk_sizes(setup, prefix_cache=False)
        warm = self.chunk_sizes(setup, prefix_cache=True)
        assert cold == 2  # 80 + 80 tokens exhaust the 96-token budget
        assert warm == 6  # 6 x 16 remaining tokens fill it exactly
        assert warm > cold


class TestMixedStepCountsEachRequestOnce:
    def test_num_requests_counts_decoders_plus_worked_prompts(self, setup):
        backend, workload, policy = setup
        core = EngineCore(
            step_model=EngineStepModel(backend, workload, policy),
            chunk_prefill_tokens=64,
        )
        first = ServingRequest(
            request=Request(input_len=32, generation_len=8), arrival_time=0.0
        )
        assert core.offer(first)
        assert core.run_step() == "prefill"
        assert len(core.running) == 1

        second = ServingRequest(
            request=Request(input_len=48, generation_len=8),
            arrival_time=core.now,
        )
        assert core.offer(second)
        assert core.run_step() == "mixed"
        mixed = core.steps[-1]
        # One decoding request plus one chunk-worked prompt: the prompt
        # finishing prefill mid-step must not be counted a second time
        # after it joins the running set.
        assert mixed.num_requests == 2
        assert len(core.running) == 2


class TestP95Surfaced:
    def test_report_rows_carry_p95(self):
        requests = []
        for i in range(20):
            serving_request = ServingRequest(
                request=Request(input_len=32, generation_len=4),
                arrival_time=float(i),
            )
            serving_request.mark_running(float(i))
            serving_request.mark_first_token(float(i) + 1.0 + i * 0.1)
            serving_request.mark_finished(float(i) + 5.0 + i * 0.2)
            requests.append(serving_request)
        report = summarize(requests, makespan=30.0, slo=SLO(ttft=10.0, tpot=10.0))
        row = report.as_row()
        for metric in ("ttft", "tpot", "e2e"):
            assert f"{metric}_p95" in row
            assert row[f"{metric}_p50"] <= row[f"{metric}_p95"] <= row[f"{metric}_p99"]
            assert row[f"{metric}_p95"] == getattr(report, metric)[95]
        assert row["mean_ttft"] == report.mean_ttft
        assert row["mean_tpot"] == report.mean_tpot


class TestQueueFullDropLeavesClockUntouched:
    def test_drop_does_not_mutate_now(self, setup):
        backend, workload, policy = setup
        core = EngineCore(
            step_model=EngineStepModel(backend, workload, policy),
            max_queue_depth=1,
        )
        first = ServingRequest(
            request=Request(input_len=32, generation_len=4), arrival_time=1.0
        )
        assert core.offer(first)
        assert core.now == 1.0  # idle engine catches up on a successful push

        late = ServingRequest(
            request=Request(input_len=32, generation_len=4), arrival_time=7.5
        )
        assert not core.offer(late)
        assert core.now == 1.0  # the drop must not advance the clock
        assert late.state is RequestState.REJECTED
        assert late.reject_reason == "queue full"
        assert late.finish_time == 7.5
        assert core.dropped_queue_full == 1
