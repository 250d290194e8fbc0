"""Client for the timing service: retries and backoff with jitter.

The retry policy mirrors the server's typed taxonomy:

* ``OverloadError`` (HTTP 429) — honor the server's ``Retry-After`` hint
  (falling back to exponential backoff), retry up to the budget;
* transport errors (connection refused/reset, short reads) — retry with
  exponential backoff + full jitter;
* ``DeadlineError`` (504) and ``InputError`` (400) — **not** retried: the
  first is the client's own budget expiring (retrying makes it worse),
  the second will fail identically every time;
* ``InternalError`` (500) — retried once; the server already degraded
  through its fallback ladder before saying this.

The RNG and sleep are injectable so the policy is testable without real
waiting.
"""

from __future__ import annotations

import http.client
import random  # repro-lint: disable=DET002 backoff jitter only; injectable via the rng parameter, never label-facing
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs import get_metrics
from .protocol import ServeRequest, ServeResponse, TimingQuery, decode_response

_RETRIES = get_metrics().counter("serve.client_retries")

#: Error types never worth retrying (same outcome every attempt).
_NO_RETRY = frozenset({"InputError", "DeadlineError"})


class ServeClientError(RuntimeError):
    """All attempts exhausted; carries the last typed server error."""

    def __init__(self, message: str,
                 last_response: Optional[ServeResponse] = None) -> None:
        super().__init__(message)
        self.last_response = last_response


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter, bounded attempts."""

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    backoff_multiplier: float = 2.0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter backoff for the given 0-based attempt index."""
        cap = min(self.max_backoff_s,
                  self.base_backoff_s * self.backoff_multiplier ** attempt)
        return rng.uniform(0.0, cap)


class TimingClient:
    """HTTP client for one service endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 policy: RetryPolicy = RetryPolicy(),
                 timeout_s: float = 10.0,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host = host
        self.port = port
        self.policy = policy
        self.timeout_s = timeout_s
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _post_once(self, path: str, body: bytes) -> ServeResponse:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout_s)
        try:
            connection.request("POST", path, body=body,
                               headers={"Content-Type": "application/json"})
            raw = connection.getresponse().read()
        finally:
            connection.close()
        return decode_response(raw)

    def _error_type(self, response: ServeResponse) -> Optional[str]:
        if response.ok or response.error is None:
            return None
        return str(response.error.get("type", "InternalError"))

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> ServeResponse:
        """Send with retries; returns the terminal (possibly error) response.

        Raises :class:`ServeClientError` only when every attempt failed at
        the transport layer or with a retryable server error — a typed
        non-retryable error (bad input, blown deadline) is returned as the
        response so callers see the taxonomy, not an opaque exception.
        """
        body = request.encode()
        last_response: Optional[ServeResponse] = None
        last_transport: Optional[Exception] = None
        for attempt in range(self.policy.max_attempts):
            if attempt > 0:
                _RETRIES.inc()
            try:
                response = self._post_once("/v1/timing", body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_transport = exc
                self.sleep(self.policy.backoff(attempt, self.rng))
                continue
            error_type = self._error_type(response)
            if error_type is None or error_type in _NO_RETRY:
                return response
            last_response = response
            if error_type == "InternalError" and attempt >= 1:
                return response  # one re-roll is plenty for a server bug
            retry_after_ms = response.error.get("retry_after_ms") \
                if response.error else None
            if retry_after_ms is not None:
                delay = max(float(retry_after_ms) / 1e3, 0.0)
                # Jitter the herd: everyone told "50 ms" must not return
                # in the same instant they were rejected in.
                delay *= self.rng.uniform(0.8, 1.4)
            else:
                delay = self.policy.backoff(attempt, self.rng)
            self.sleep(delay)
        if last_response is not None:
            return last_response
        raise ServeClientError(
            f"no response from {self.host}:{self.port} after "
            f"{self.policy.max_attempts} attempts: {last_transport}",
            last_response=None)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def estimate(self, queries: List[TimingQuery],
                 deadline_ms: Optional[float] = None,
                 request_id: Optional[str] = None) -> ServeResponse:
        return self.submit(ServeRequest(queries=queries,
                                        deadline_ms=deadline_ms,
                                        request_id=request_id))

    def health(self) -> dict:
        import json

        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout_s)
        try:
            connection.request("GET", "/healthz")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def ready(self) -> bool:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout_s)
        try:
            connection.request("GET", "/readyz")
            return connection.getresponse().status == 200
        except (OSError, http.client.HTTPException):
            return False
        finally:
            connection.close()


__all__ = ["RetryPolicy", "ServeClientError", "TimingClient"]
