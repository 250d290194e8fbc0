"""TimingClient: retry taxonomy, backoff jitter, Retry-After."""

import random

import pytest

from repro.robustness.errors import (DeadlineError, InputError,
                                     OverloadError)
from repro.serve.client import (RetryPolicy, ServeClientError, TimingClient)
from repro.serve.protocol import ServeResponse, error_response

from .conftest import make_request


class _Script:
    """Scripted transport: each entry is a response or an exception."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, path, body):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def scripted_client(outcomes, **kwargs):
    kwargs.setdefault("policy", RetryPolicy(max_attempts=4,
                                            base_backoff_s=0.01))
    kwargs.setdefault("rng", random.Random(7))
    sleeps = []
    kwargs.setdefault("sleep", sleeps.append)
    client = TimingClient(host="127.0.0.1", port=1, **kwargs)
    script = _Script(outcomes)
    client._post_once = script
    return client, script, sleeps


OK = ServeResponse(ok=True)


class TestRetryTaxonomy:
    def test_transport_errors_retry_until_success(self):
        client, script, sleeps = scripted_client(
            [ConnectionRefusedError("down"), OSError("reset"), OK])
        assert client.submit(make_request(1)).ok
        assert script.calls == 3
        assert len(sleeps) == 2

    def test_all_transport_failures_raise_client_error(self):
        client, script, _ = scripted_client(
            [OSError("down")] * 4)
        with pytest.raises(ServeClientError, match="4 attempts"):
            client.submit(make_request(1))
        assert script.calls == 4

    def test_input_error_returned_without_retry(self):
        client, script, sleeps = scripted_client(
            [error_response(InputError("bad", stage="protocol")), OK])
        response = client.submit(make_request(1))
        assert response.error["type"] == "InputError"
        assert script.calls == 1 and not sleeps

    def test_deadline_error_returned_without_retry(self):
        client, script, _ = scripted_client(
            [error_response(DeadlineError("late")), OK])
        response = client.submit(make_request(1))
        assert response.error["type"] == "DeadlineError"
        assert script.calls == 1

    def test_internal_error_retried_exactly_once(self):
        client, script, _ = scripted_client(
            [error_response(RuntimeError("bug")),
             error_response(RuntimeError("bug")),
             OK])
        response = client.submit(make_request(1))
        assert response.error["type"] == "InternalError"
        assert script.calls == 2     # one re-roll, then give up

    def test_overload_retries_until_capacity_returns(self):
        client, script, _ = scripted_client(
            [error_response(OverloadError("full", retry_after_s=0.05)),
             error_response(OverloadError("full", retry_after_s=0.05)),
             OK])
        assert client.submit(make_request(1)).ok
        assert script.calls == 3


class TestBackoff:
    def test_retry_after_hint_is_honored_with_jitter(self):
        client, _, sleeps = scripted_client(
            [error_response(OverloadError("full", retry_after_s=0.1)), OK])
        client.submit(make_request(1))
        assert len(sleeps) == 1
        # Full hint times jitter in [0.8, 1.4): near it, never exactly it.
        assert 0.08 <= sleeps[0] < 0.14

    def test_exponential_backoff_with_full_jitter(self):
        policy = RetryPolicy(max_attempts=6, base_backoff_s=0.05,
                             max_backoff_s=0.4, backoff_multiplier=2.0)
        rng = random.Random(3)
        for attempt, cap in enumerate([0.05, 0.1, 0.2, 0.4, 0.4]):
            for _ in range(50):
                delay = policy.backoff(attempt, rng)
                assert 0.0 <= delay <= cap

    def test_transport_backoff_uses_policy(self):
        client, _, sleeps = scripted_client(
            [OSError("x"), OSError("x"), OK],
            policy=RetryPolicy(max_attempts=4, base_backoff_s=0.02,
                               max_backoff_s=1.0))
        client.submit(make_request(1))
        assert len(sleeps) == 2
        assert all(0.0 <= s <= 0.04 + 1e-9 for s in sleeps)

