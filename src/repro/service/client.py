"""Blocking HTTP client for the evaluation service.

:class:`ServiceClient` is the blocking socket layer under the shared
client protocol (:mod:`repro.service.protocol`, which owns the policy,
the retry loop, and every endpoint's request body and reply parser).
Each public method runs its protocol flow through
:meth:`ServiceClient._drive` on the caller's thread — ``http.client``
sockets, ``time.sleep`` backoff — so ``ServerCacheStore`` and a
single-URL ``RemoteBackend`` pay no event-loop hop per request.

Connection reuse
----------------
A sweep makes thousands of small requests; paying a TCP handshake per
request is the dominant cost for cheap cost models. The client keeps
one persistent :class:`http.client.HTTPConnection` per thread (the
server speaks HTTP/1.1 keep-alive). A reused socket the server has
closed meanwhile is reported stale, which the protocol re-sends once
on a fresh socket without consuming a retry. ``requests_sent`` counts
round trips and ``connections_opened`` counts sockets, so callers (and
the CI microbenchmark) can verify both batching and reuse.
"""

from __future__ import annotations

import functools
import http.client
import threading
import time
from typing import Any, Callable, Optional, Tuple

from repro.service import protocol
from repro.service.protocol import ClientCore, Flow, Sleep, StaleSocket, T

__all__ = ["ServiceClient"]

#: Failures that mean "the server went away between keep-alive
#: requests" — the request bytes never reached a live peer. A socket
#: timeout is deliberately absent: the peer *was* alive and slow.
_STALE_SOCKET_ERRORS = (
    http.client.BadStatusLine,  # includes RemoteDisconnected
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


def _blocking(flow: Callable[..., Flow[T]]) -> Callable[..., T]:
    """A method that runs ``flow`` to completion on the caller's thread."""

    @functools.wraps(flow)
    def method(self: "ServiceClient", *args: Any, **kwargs: Any) -> T:
        return self._drive(flow(self, *args, **kwargs))

    return method


class ServiceClient(ClientCore):
    """Talk to one :class:`~repro.service.server.EvaluationService`.

    Parameters are the shared policy of
    :class:`~repro.service.protocol.ClientCore`: ``base_url``,
    ``timeout_s``, ``retries``, ``backoff_s`` and ``backoff_cap_s``.
    Safe to share across threads: each thread gets its own socket.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ) -> None:
        super().__init__(base_url, timeout_s, retries, backoff_s, backoff_cap_s)
        # Counters are shared across threads (connections are not), so
        # their read-modify-writes sit under a lock.
        self._stats_lock = threading.Lock()
        # One persistent connection per thread: http.client connections
        # are not thread-safe, and a thread-local pool gives reuse
        # without socket-level locking on the hot path.
        self._conn_local = threading.local()
        # Every live connection, across all threads (under _stats_lock).
        # A dispatch thread that exits leaves its thread-local socket
        # unreachable but open; close() walks this registry so teardown
        # reclaims them all, not just the calling thread's.
        self._all_conns: set = set()

    # -- connection pool ----------------------------------------------------------

    def _get_conn(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection and whether it is being *reused*."""
        conn = getattr(self._conn_local, "conn", None)
        if conn is not None:
            return conn, True
        conn_cls = (
            http.client.HTTPSConnection
            if self._split.scheme == "https"
            else http.client.HTTPConnection
        )
        conn = conn_cls(self._split.netloc, timeout=self.timeout_s)
        self._conn_local.conn = conn
        with self._stats_lock:
            self.connections_opened += 1
            self._all_conns.add(conn)
        return conn, False

    def _drop_conn(self) -> None:
        conn = getattr(self._conn_local, "conn", None)
        self._conn_local.conn = None
        if conn is not None:
            with self._stats_lock:
                self._all_conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close every persistent connection this client ever opened —
        including those belonging to dispatch threads that have since
        exited, which a per-thread close could never reach.

        Teardown-only by contract: no other thread may be mid-request.
        Purely a resource-hygiene call either way — the next request
        transparently opens (and counts) a fresh socket.
        """
        self._drop_conn()
        with self._stats_lock:
            conns, self._all_conns = list(self._all_conns), set()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    # -- transport ----------------------------------------------------------------

    def _send(self, method: str, target: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        """One request/response on this thread's socket."""
        conn, reused = self._get_conn()
        with self._stats_lock:
            self.requests_sent += 1
        try:
            conn.request(
                method,
                target,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            try:
                status = resp.status
                raw = resp.read()  # drain fully so the socket stays reusable
            finally:
                resp.close()
        except (OSError, http.client.HTTPException) as exc:
            self._drop_conn()  # unknown socket state: never reuse it
            if reused and isinstance(exc, _STALE_SOCKET_ERRORS):
                raise StaleSocket(repr(exc)) from exc
            raise
        if resp.will_close:  # HTTP/1.0 peer or Connection: close
            self._drop_conn()
        return status, raw

    def _drive(self, flow: Flow[T]) -> T:
        """Run one protocol flow on this thread's socket."""
        reply: Any = None
        while True:
            try:
                effect = flow.send(reply)
            except StopIteration as done:
                return done.value
            reply = None
            if isinstance(effect, Sleep):
                time.sleep(effect.delay)
                continue
            try:
                reply = self._send(*effect)
            except (OSError, http.client.HTTPException) as exc:
                reply = exc  # the protocol's retry loop decides

    _request = _blocking(protocol.request_flow)
    _checked = _blocking(protocol.checked_flow)

    # -- API ----------------------------------------------------------------------

    healthz = _blocking(protocol.healthz)
    evaluate = _blocking(protocol.evaluate)
    evaluate_batch = _blocking(protocol.evaluate_batch)
    cache_get = _blocking(protocol.cache_get)
    cache_put = _blocking(protocol.cache_put)
    cache_size = _blocking(protocol.cache_size)
    cache_list = _blocking(protocol.cache_list)
