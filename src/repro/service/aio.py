"""Asyncio-native HTTP client for the evaluation service.

:class:`AsyncServiceClient` is the coroutine socket layer under the
shared client protocol (:mod:`repro.service.protocol`): it runs the
same flows as :class:`~repro.service.client.ServiceClient`, sending
attempts over :func:`asyncio.open_connection` (each bounded by
``timeout_s``) and backing off with ``await asyncio.sleep``, so one
event loop (one OS thread) holds a whole host fleet's requests in
flight. It is the transport of every :class:`repro.sweeps.HostPool`.

The HTTP/1.1 is hand-rolled, deliberately: the server
(:mod:`repro.service.server`) always answers with a ``Content-Length``
header and keep-alive, so a reply is a status line, a header block,
and ``readexactly(content_length)``.

Connection pool
---------------
Each client parks idle persistent connections to its one host for
reuse, with at most :data:`MAX_CONNECTIONS` checked out at once (an
:class:`asyncio.Semaphore`). A reused socket the server has closed in
the meantime is reported as stale, which the protocol re-sends once
without consuming a retry. ``requests_sent`` / ``connections_opened``
mean what they mean on the sync client (no lock: all mutation happens
on the owning event loop).
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.service import protocol
from repro.service.protocol import ClientCore, Flow, Sleep, StaleSocket, T

__all__ = ["AsyncServiceClient", "MAX_CONNECTIONS"]

#: Ceiling on concurrently checked-out sockets per client. The host
#: pool already serialises each host's requests, so this only bounds
#: direct concurrent use of one client.
MAX_CONNECTIONS = 8


class _TransportFailure(ConnectionError):
    """Malformed reply framing: the socket is unusable, and the attempt
    is retryable like any other connection failure."""


#: Exceptions one attempt may raise that the retry loop absorbs.
#: ``OSError`` covers connection failures (``_TransportFailure`` and
#: ``StaleSocket`` included) and the builtin ``TimeoutError``;
#: ``asyncio.TimeoutError`` is a distinct class on 3.10. ``EOFError`` is
#: ``asyncio.IncompleteReadError``'s base (torn reply mid-read).
_RETRYABLE = (OSError, EOFError, asyncio.TimeoutError)


def _coroutine(flow: Callable[..., Flow[T]]) -> Callable[..., Any]:
    """A coroutine method that runs ``flow`` on the client's loop."""

    @functools.wraps(flow)
    async def method(self: "AsyncServiceClient", *args: Any, **kwargs: Any) -> T:
        return await self._drive(flow(self, *args, **kwargs))

    return method


class _Conn(NamedTuple):
    """One open connection: a reader/writer pair."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter


class AsyncServiceClient(ClientCore):
    """Talk to one evaluation service from an event loop.

    Parameters are the shared policy of
    :class:`~repro.service.protocol.ClientCore`, and every coroutine
    answers like the :class:`~repro.service.client.ServiceClient`
    method of the same name.

    Single-loop by contract: all coroutines must run on one event
    loop (the pool's runner loop). Counters are plain ints for the
    same reason — no cross-thread access, no lock.
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
        self._idle: "deque[_Conn]" = deque()
        # Binds to the running loop on first contended use (3.10+).
        self._sem = asyncio.Semaphore(MAX_CONNECTIONS)

    # -- connection pool ----------------------------------------------------------

    async def _get_conn(self) -> Tuple[_Conn, bool]:
        """An idle pooled connection (reused) or a fresh one."""
        while self._idle:
            conn = self._idle.popleft()
            if not conn.writer.is_closing():
                return conn, True
            self._discard(conn)
        https = self._split.scheme == "https"
        reader, writer = await asyncio.open_connection(
            self._split.hostname or "",
            self._split.port or (443 if https else 80),
            ssl=True if https else None,
        )
        self.connections_opened += 1
        return _Conn(reader, writer), False

    def _discard(self, conn: _Conn) -> None:
        try:
            conn.writer.close()
        except OSError:
            pass

    async def close(self) -> None:
        """Close every idle pooled connection. Resource hygiene only —
        the next request transparently opens a fresh socket."""
        while self._idle:
            self._discard(self._idle.popleft())

    # -- transport ----------------------------------------------------------------

    async def _roundtrip(
        self, conn: _Conn, method: str, target: str, body: Optional[bytes],
        reused: bool,
    ) -> Tuple[int, bytes, bool]:
        """One request/response; returns (status, body, will_close)."""
        self.requests_sent += 1
        payload = body or b""
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {self._split.netloc}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "\r\n"
        ).encode("ascii")
        conn.writer.write(head + payload)
        await conn.writer.drain()
        try:
            head_block = await conn.reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if reused and not exc.partial:
                # The server closed the idle socket between requests.
                raise StaleSocket("connection closed before the status line")
            raise
        status_line, *header_lines = head_block[:-4].decode("latin-1").split("\r\n")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise _TransportFailure(f"malformed status line {status_line!r}")
        status = int(parts[1])
        http10 = parts[0].upper().startswith("HTTP/1.0")
        headers: Dict[str, str] = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length")
        if length_text is None or not length_text.isdigit():
            # The server always frames replies with Content-Length
            # (HTTP/1.1 keep-alive requires it); anything else is a
            # framing failure we cannot safely read past.
            raise _TransportFailure(
                f"response has no usable Content-Length: {length_text!r}"
            )
        raw = await conn.reader.readexactly(int(length_text))
        will_close = http10 or headers.get("connection", "").lower() == "close"
        return status, raw, will_close

    async def _send(
        self, method: str, target: str, body: Optional[bytes]
    ) -> Tuple[int, bytes]:
        """One attempt on a pooled socket."""
        async with self._sem:
            conn, reused = await self._get_conn()
            try:
                status, raw, will_close = await self._roundtrip(
                    conn, method, target, body, reused
                )
            except BaseException:
                # Timeout cancellation, stale or reset socket, torn
                # read — the socket's state is unknown; never park it.
                self._discard(conn)
                raise
            if will_close:
                self._discard(conn)
            else:
                self._idle.append(conn)
            return status, raw

    async def _drive(self, flow: Flow[T]) -> T:
        """Run one protocol flow on this loop's pooled sockets."""
        reply: Any = None
        while True:
            try:
                effect = flow.send(reply)
            except StopIteration as done:
                return done.value
            reply = None
            if isinstance(effect, Sleep):
                await asyncio.sleep(effect.delay)
                continue
            try:
                reply = await asyncio.wait_for(self._send(*effect), self.timeout_s)
            except _RETRYABLE as exc:
                reply = exc  # the protocol's retry loop decides

    # -- API ----------------------------------------------------------------------

    healthz = _coroutine(protocol.healthz)
    evaluate = _coroutine(protocol.evaluate)
    evaluate_batch = _coroutine(protocol.evaluate_batch)
    cache_get = _coroutine(protocol.cache_get)
    cache_put = _coroutine(protocol.cache_put)
    cache_size = _coroutine(protocol.cache_size)
    cache_list = _coroutine(protocol.cache_list)
