"""The evaluation-service client protocol, written once for both
transports.

Everything a client decides lives here and nothing here touches a
socket (the *sans-IO* style). Each API call is a generator — a
*flow* — that yields effects (:class:`Send` one HTTP attempt,
:class:`Sleep` a backoff) and is sent each attempt's outcome back. A
transport runs flows with a short driver over its own sockets:
:class:`~repro.service.client.ServiceClient` blocking,
:class:`~repro.service.aio.AsyncServiceClient` on an event loop. So
policy validation, retries, reply interpretation, error messages and
every endpoint's request body and reply parser cannot drift apart.

Every call either returns a parsed, schema-checked JSON body or raises
:class:`~repro.core.errors.ServiceError` — never a hang (every attempt
carries ``timeout_s``), never a torn body posing as a metric.

Retry policy
------------
The evaluation API is deterministic and idempotent (``evaluate`` memoizes
a pure cost model; cache ``PUT`` is last-writer-wins), so *transport*
failures — connection refused/reset, socket timeout, a body that does
not parse — are retried up to ``retries`` times with exponential
backoff, capped so the total time asleep never exceeds
``backoff_cap_s``; a ``retries=0`` client never sleeps at all. A
*stale* keep-alive socket (closed by the server between requests) is
re-sent once without consuming a retry: the bytes never reached a live
peer. Exhaustion raises
:class:`~repro.core.errors.ServiceTransportError` (a
:class:`ServiceError` subtype schedulers key failover on). Responses
the server actually produced (4xx/5xx) are **not** retried:
re-sending the same request would deterministically fail the same way.
"""

from __future__ import annotations

import json
from typing import (
    Any, Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
    Union,
)
from urllib.parse import urlsplit

from repro.core.errors import ServiceError, ServiceTransportError
from repro.service.wire import (
    dump_body,
    jsonify,
    key_to_token,
    parse_batch_response,
    parse_cache_listing,
    parse_metrics_response,
)

T = TypeVar("T")


class Send(NamedTuple):
    """Effect: make one HTTP attempt. ``target`` is the request target
    (the base URL's path prefix included). The driver answers with
    ``(status, raw_body)``, or with the exception the attempt raised."""

    method: str
    target: str
    body: Optional[bytes]


class Sleep(NamedTuple):
    """Effect: back off for ``delay`` seconds before the next attempt."""

    delay: float


#: One API call: yields effects, receives attempt outcomes, returns
#: the call's result.
Flow = Generator[Union[Send, Sleep], Any, T]


class StaleSocket(ConnectionError):
    """What a transport answers a :class:`Send` with when a *reused*
    keep-alive socket turns out closed by the server: the request never
    reached a live peer, so it is re-sent once on a fresh socket."""


class ClientCore:
    """Validated policy and counters shared by both client transports.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8023"`` (trailing slash tolerated).
    timeout_s:
        Per-attempt socket timeout; a server that stalls longer fails
        the attempt instead of hanging the sweep.
    retries:
        Extra attempts after the first, for transport-level failures.
    backoff_s:
        First retry delay; doubles per subsequent retry.
    backoff_cap_s:
        Ceiling on the *total* time one request may spend asleep in
        backoff across all its retries.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ServiceError(
                f"service url must start with http:// or https://, got {base_url!r}"
            )
        if timeout_s <= 0:
            raise ServiceError(f"timeout_s must be > 0, got {timeout_s}")
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ServiceError(f"backoff_s must be >= 0, got {backoff_s}")
        if backoff_cap_s < 0:
            raise ServiceError(f"backoff_cap_s must be >= 0, got {backoff_cap_s}")
        split = urlsplit(base_url)
        if not split.netloc:
            raise ServiceError(f"service url has no host: {base_url!r}")
        self._split = split
        self._path_prefix = split.path.rstrip("/")
        self.base_url = f"{split.scheme}://{split.netloc}{self._path_prefix}"
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: Round trips attempted (including retries) — the denominator
        #: the batching microbenchmark compares against.
        self.requests_sent = 0
        #: Sockets opened; stays low while keep-alive reuse holds.
        self.connections_opened = 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(base_url={self.base_url!r}, "
            f"timeout_s={self.timeout_s}, retries={self.retries})"
        )


# -- retry loop -------------------------------------------------------------------


def request_flow(
    client: ClientCore, method: str, path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Flow[Tuple[int, Dict[str, Any]]]:
    """One API call under the retry policy; returns (status, body)."""
    body = dump_body(payload) if payload is not None else None
    send = Send(method, client._path_prefix + path, body)
    attempts = client.retries + 1
    slept_total = 0.0
    last_error: Optional[BaseException] = None
    for attempt in range(attempts):
        if attempt:
            # Exponential backoff after *any* retryable failure —
            # transport or body-parse alike — capped so the total
            # sleep never exceeds backoff_cap_s.
            delay = min(
                client.backoff_s * (2 ** (attempt - 1)),
                client.backoff_cap_s - slept_total,
            )
            if delay > 0:
                yield Sleep(delay)
                slept_total += delay
        reply = yield send
        if isinstance(reply, StaleSocket):
            # Nothing reached a live peer: one free re-send, not a retry.
            reply = yield send
        if isinstance(reply, BaseException):
            # Connection refused/reset, DNS failure, socket timeout,
            # torn framing.
            last_error = reply
            continue
        status, raw = reply
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as exc:
            if status >= 400:
                # The server answered an error with a non-JSON body;
                # deterministic, so do not retry.
                return status, {"error": raw[:200].decode("utf-8", errors="replace")}
            # Torn/truncated success body: the bytes arrived but do not
            # parse — retryable, the API is idempotent.
            last_error = exc
            continue
        if not isinstance(parsed, dict):
            if status >= 400:
                return status, {"error": str(parsed)}
            last_error = ValueError(f"expected a JSON object, got {parsed!r}")
            continue
        return status, parsed
    raise ServiceTransportError(
        f"{method} {client.base_url + path} failed after {attempts} attempt(s) "
        f"(timeout {client.timeout_s}s/attempt): {last_error!r}"
    )


def checked_flow(
    client: ClientCore, method: str, path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Flow[Dict[str, Any]]:
    """:func:`request_flow`, raising on a server-produced error."""
    status, parsed = yield from request_flow(client, method, path, payload)
    if status >= 400:
        raise ServiceError(
            f"{method} {client.base_url + path} -> HTTP {status}: "
            f"{parsed.get('error', parsed)}"
        )
    return parsed


# -- endpoints --------------------------------------------------------------------


def healthz(client: ClientCore) -> Flow[Dict[str, Any]]:
    """The server's liveness/inventory document."""
    return (yield from checked_flow(client, "GET", "/healthz"))


def evaluate(
    client: ClientCore,
    env: str,
    action: Dict[str, Any],
    env_kwargs: Optional[Dict[str, Any]] = None,
) -> Flow[Dict[str, float]]:
    """Evaluate one design point on the server's ``env``."""
    request: Dict[str, Any] = {"env": env, "action": jsonify(action)}
    if env_kwargs:
        request["kwargs"] = jsonify(env_kwargs)
    parsed = yield from checked_flow(client, "POST", "/evaluate", request)
    return parse_metrics_response(parsed, f"evaluate response for env {env!r}")


def evaluate_batch(
    client: ClientCore,
    env: str,
    actions: Sequence[Dict[str, Any]],
    env_kwargs: Optional[Dict[str, Any]] = None,
    memoize: bool = True,
) -> Flow[List[Dict[str, float]]]:
    """Evaluate many design points in one round trip.

    The server runs the whole batch under a single env-instance lock
    and (with ``memoize``, the default) answers repeat design points
    from its ``/cache`` store instead of re-simulating. Results come
    back in request order, one metric dict per action.
    """
    if not actions:
        raise ServiceError("evaluate_batch needs at least one action")
    request: Dict[str, Any] = {
        "env": env,
        "actions": [jsonify(a) for a in actions],
    }
    if env_kwargs:
        request["kwargs"] = jsonify(env_kwargs)
    if not memoize:
        request["memoize"] = False
    parsed = yield from checked_flow(client, "POST", "/evaluate_batch", request)
    return parse_batch_response(parsed, env, len(actions))


def cache_get(client: ClientCore, key_str: str) -> Flow[Optional[Dict[str, float]]]:
    """Server-cache lookup by encoded key; ``None`` on a miss."""
    status, parsed = yield from request_flow(
        client, "GET", f"/cache/{key_to_token(key_str)}"
    )
    if status == 404:
        return None
    if status >= 400:
        raise ServiceError(
            f"cache GET -> HTTP {status}: {parsed.get('error', parsed)}"
        )
    return parse_metrics_response(parsed, "cache response")


def cache_put(
    client: ClientCore, key_str: str, metrics: Dict[str, float]
) -> Flow[None]:
    """Store one entry in the server cache."""
    yield from checked_flow(
        client, "PUT", f"/cache/{key_to_token(key_str)}",
        {"metrics": jsonify(metrics)},
    )


def cache_size(client: ClientCore) -> Flow[int]:
    """Distinct keys currently held by the server cache."""
    parsed = yield from checked_flow(client, "GET", "/cache")
    return int(parsed.get("size", 0))


def cache_list(
    client: ClientCore, offset: int = 0, limit: int = 500
) -> Flow[Tuple[List[Tuple[str, Dict[str, float]]], int]]:
    """One page of the server cache in sorted-key order.

    Returns ``(entries, total)`` where ``entries`` is a list of
    ``(key_str, metrics)`` pairs starting at ``offset`` and ``total``
    is the map's full entry count — advance ``offset`` by each page's
    length until it reaches ``total`` to walk the whole map (what the
    host pool's anti-entropy backfill does).
    """
    parsed = yield from checked_flow(
        client, "GET", f"/cache?offset={int(offset)}&limit={int(limit)}"
    )
    return parse_cache_listing(parsed)
