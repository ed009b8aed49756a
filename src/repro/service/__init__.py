"""Remote evaluation service: host environments behind HTTP so any
agent — unmodified — evaluates design points over the network.

Server side: :class:`EvaluationService` (stdlib ``ThreadingHTTPServer``)
serves ``POST /evaluate``, ``POST /evaluate_batch`` (many design
points per round trip, memoized server-side into the cache store),
``GET /healthz``, and ``GET/PUT /cache/<key>``.
Client side: one socket-free protocol (:mod:`repro.service.protocol`:
policy, retry loop, request bodies, reply parsers) under two socket
layers — :class:`ServiceClient` (blocking per-thread keep-alive
connections) and :class:`AsyncServiceClient` (one event loop holds a
whole fleet's requests in flight — the transport of every
:class:`repro.sweeps.HostPool`) — plus :class:`RemoteBackend` (adapts a
client — or a :class:`repro.sweeps.HostPool` — to ``ArchGymEnv``'s
``evaluate`` / ``evaluate_batch`` / ``evaluate_batch_stream`` backend
hooks), and :func:`RemoteEnv` (attach-and-return convenience). The
wire format is canonicalized in :mod:`repro.service.wire`; metrics
survive the JSON round trip bit-exactly, which is what lets every
remote mode stay byte-identical to an in-process run (see
``docs/ARCHITECTURE.md``).
"""

from repro.service.aio import AsyncServiceClient
from repro.service.client import ServiceClient
from repro.service.remote import RemoteBackend, RemoteEnv
from repro.service.server import EvaluationService
from repro.service.wire import WIRE_FORMAT

__all__ = [
    "EvaluationService",
    "ServiceClient",
    "AsyncServiceClient",
    "RemoteBackend",
    "RemoteEnv",
    "WIRE_FORMAT",
]
