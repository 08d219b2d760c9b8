"""Request queue ordering/bounds and latency-metric aggregation."""

import math

import pytest

from repro.serving import SLO, RequestQueue, RequestState, ServingRequest, summarize
from repro.serving.metrics import percentile
from repro.utils.errors import ConfigurationError
from repro.workloads import Request


def make_request(prompt=8, gen=4, arrival=0.0):
    return ServingRequest(
        request=Request(input_len=prompt, generation_len=gen), arrival_time=arrival
    )


class TestRequestQueue:
    def test_fcfs_orders_by_arrival(self):
        queue = RequestQueue()
        late = make_request(prompt=1, arrival=2.0)
        early = make_request(prompt=100, arrival=1.0)
        queue.push(late)
        queue.push(early)
        assert queue.pop() is early
        assert queue.pop() is late

    def test_bounded_depth_drops(self):
        queue = RequestQueue(max_depth=2)
        assert queue.push(make_request())
        assert queue.push(make_request())
        assert queue.is_full
        assert not queue.push(make_request())
        queue.pop()
        assert queue.push(make_request())

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigurationError):
            RequestQueue().pop()

    def test_requeue_restores_head(self):
        queue = RequestQueue()
        first = make_request(arrival=1.0)
        second = make_request(arrival=2.0)
        queue.push(first)
        queue.push(second)
        popped = queue.pop()
        queue.requeue(popped)
        assert queue.peek() is first


class TestRequestLifecycle:
    def test_latency_metrics(self):
        serving_request = make_request(prompt=8, gen=5, arrival=10.0)
        serving_request.mark_running(12.0)
        serving_request.mark_first_token(15.0)
        for _ in range(4):
            serving_request.tokens_decoded += 1
        serving_request.mark_finished(23.0)
        assert serving_request.ttft == pytest.approx(5.0)
        assert serving_request.tpot == pytest.approx(2.0)  # 8s over 4 decode tokens
        assert serving_request.e2e_latency == pytest.approx(13.0)
        assert serving_request.context_len == 8 + 5

    def test_metrics_none_until_finished(self):
        serving_request = make_request()
        assert serving_request.ttft is None
        assert serving_request.tpot is None
        assert serving_request.e2e_latency is None

    def test_single_token_request_has_zero_tpot(self):
        serving_request = make_request(gen=1, arrival=0.0)
        serving_request.mark_running(0.0)
        serving_request.mark_first_token(2.0)
        serving_request.mark_finished(2.0)
        assert serving_request.tpot == 0.0


class TestSummarize:
    def finished(self, arrival, first, finish, gen=5):
        serving_request = make_request(gen=gen, arrival=arrival)
        serving_request.mark_running(arrival)
        serving_request.mark_first_token(first)
        serving_request.tokens_decoded = gen
        serving_request.mark_finished(finish)
        return serving_request

    def test_percentile_matches_numpy(self):
        import numpy as np

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        assert percentile(values, 50) == pytest.approx(float(np.percentile(values, 50)))

    def test_percentile_empty_raises_unless_defaulted(self):
        with pytest.raises(ValueError, match="empty sample"):
            percentile([], 99)
        assert percentile([], 99, default=0.0) == 0.0
        assert math.isnan(percentile([], 50, default=math.nan))

    def test_counts_and_goodput(self):
        slo = SLO(ttft=2.0, tpot=1.0)
        fast = self.finished(arrival=0.0, first=1.0, finish=4.0)  # tpot 0.75: met
        slow = self.finished(arrival=0.0, first=5.0, finish=30.0)  # ttft 5: missed
        dropped = make_request(arrival=0.0)
        dropped.mark_rejected(0.0, "queue full")
        report = summarize([fast, slow, dropped], makespan=10.0, slo=slo)
        assert report.num_offered == 3
        assert report.num_completed == 2
        assert report.num_rejected == 1
        assert report.slo_met == 1
        assert report.goodput == pytest.approx(0.1)  # 1 SLO-met request / 10 s
        assert report.goodput_fraction == pytest.approx(1 / 3)
        assert report.tokens_generated == 10
        assert report.token_throughput == pytest.approx(1.0)

    def test_empty_run(self):
        report = summarize([], makespan=0.0, slo=SLO(ttft=1.0, tpot=1.0))
        assert report.num_offered == 0
        assert report.goodput_fraction == 0.0
        assert report.token_throughput == 0.0

    def test_rejected_requests_never_count_as_slo_met(self):
        slo = SLO(ttft=100.0, tpot=100.0)
        rejected = make_request(arrival=0.0)
        rejected.mark_rejected(1.0, "oversized")
        report = summarize([rejected], makespan=5.0, slo=slo)
        assert report.slo_met == 0
        assert rejected.state is RequestState.REJECTED
