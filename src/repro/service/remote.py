"""Client-side evaluation backends: point ``ArchGymEnv.evaluate`` at a
remote service (or a pool of them).

An :class:`~repro.core.env.ArchGymEnv` dispatches every cost-model call
through its attached *backend* (``None`` means the env's own
``evaluate``). :class:`RemoteBackend` is the over-the-wire
implementation: the action crosses HTTP to an
:class:`~repro.service.server.EvaluationService` hosting the same
environment, and the metrics come back bit-exact (floats survive the
JSON round trip). The agent above the env is untouched — reward
computation, episode accounting, caching tiers, and dataset logging all
stay client-side, so a remote sweep is bit-identical to an in-process
one except for the ``remote_evals`` counter and timing.

The transport underneath is pluggable: a URL builds a
:class:`ServiceClient` (persistent keep-alive connection); a list of
URLs builds a :class:`~repro.sweeps.hostpool.HostPool` (least-load
scheduling with failover); an existing client or pool is used as-is.
With ``batch=True`` every dispatch rides ``POST /evaluate_batch``
instead of ``POST /evaluate``, which turns on the server-side
memoization that feeds the service's ``/cache`` store.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from repro.core.env import ArchGymEnv
from repro.core.errors import ServiceError
from repro.service.client import ServiceClient

__all__ = ["RemoteBackend", "RemoteEnv"]


class RemoteBackend:
    """Evaluate design points on a remote evaluation service.

    Parameters
    ----------
    service:
        A base URL (``"http://host:port"``), a sequence of base URLs
        (a multi-host pool with least-load scheduling and failover),
        or an existing :class:`ServiceClient` /
        :class:`~repro.sweeps.hostpool.HostPool` (whose retry/timeout
        policy is reused; passing ``weights``, ``auto_weights`` or
        ``client_kwargs`` alongside one raises :class:`ServiceError`).
    env_kwargs:
        Environment construction arguments (workload, objective, …)
        forwarded with every request, so the server instantiates the
        same environment the client built locally.
    batch:
        Route dispatches through ``POST /evaluate_batch`` (server-side
        memoization feeding the service ``/cache`` store) instead of
        per-point ``POST /evaluate``.
    weights:
        Per-host capacity weights aligned with ``service`` when it is
        a sequence of URLs — forwarded to the
        :class:`~repro.sweeps.hostpool.HostPool` so least-load
        dispatch and generation scatter divide work accordingly.
    auto_weights:
        Let a multi-host pool self-tune those weights from each host's
        observed service rate (``/healthz`` counters, EWMA-smoothed) —
        see :class:`~repro.sweeps.hostpool.HostPool`. Ignored for a
        single URL, where there is nothing to balance.
    client_kwargs:
        ``timeout_s`` / ``retries`` / ``backoff_s`` when ``service`` is
        a URL or a sequence of URLs.
    """

    def __init__(
        self,
        service: Union[str, Sequence[str], ServiceClient, Any],
        env_kwargs: Optional[Dict[str, Any]] = None,
        batch: bool = False,
        weights: Optional[Sequence[float]] = None,
        auto_weights: bool = False,
        **client_kwargs: Any,
    ) -> None:
        if isinstance(service, str):
            self.client: Any = ServiceClient(service, **client_kwargs)
        elif isinstance(service, (list, tuple)):
            urls = list(service)
            if len(urls) == 1:
                self.client = ServiceClient(urls[0], **client_kwargs)
            else:
                # Imported lazily: repro.service must stay importable
                # without pulling in the whole sweeps package.
                from repro.sweeps.hostpool import HostPool

                self.client = HostPool(
                    urls, weights=weights, auto_weights=auto_weights,
                    **client_kwargs,
                )
        else:  # a ready-made ServiceClient or HostPool: policy is theirs
            ignored = sorted(client_kwargs)
            if weights is not None:
                ignored.append("weights")
            if auto_weights:
                ignored.append("auto_weights")
            if ignored:
                raise ServiceError(
                    f"{', '.join(ignored)} cannot be combined with a ready-made "
                    "client or pool — its own policy would silently win; set "
                    "it on the client or pool instead"
                )
            self.client = service
        self.env_kwargs = dict(env_kwargs) if env_kwargs else None
        self.batch = batch
        #: Per-point host provenance of the most recent
        #: :meth:`evaluate_batch` — what a scattering pool reports, and
        #: what :meth:`ArchGymEnv._dispatch_evaluate_batch` records.
        self.last_hosts: Optional[list] = None

    @property
    def last_host(self) -> Optional[str]:
        """URL that served the most recent evaluation — a pool reports
        its per-call choice, a single client its base URL."""
        pooled = getattr(self.client, "last_host", None)
        if pooled is not None:
            return pooled
        return getattr(self.client, "base_url", None)

    def evaluate(self, env_name: str, action: Dict[str, Any]) -> Dict[str, float]:
        """The backend hook :meth:`ArchGymEnv.step` dispatches through."""
        if self.batch:
            return self.evaluate_batch(env_name, [action])[0]
        return self.client.evaluate(env_name, action, env_kwargs=self.env_kwargs)

    def evaluate_batch(
        self, env_name: str, actions: Sequence[Dict[str, Any]]
    ) -> list:
        """Evaluate many design points in one round trip per host.

        A multi-host pool scatters the batch over its living hosts by
        capacity weight (parallel chunks, results reassembled in
        request order); a single client sends one round trip. Either
        way ``last_hosts`` afterwards names, per point, the host that
        answered it. Server-side memoization stays opt-in: it is
        requested only when this backend was built with ``batch=True``
        (the ``--service-batch`` contract), so generation dispatch
        alone never grows a server's memo map.
        """
        actions = list(actions)
        scatter = getattr(self.client, "evaluate_batch_scatter", None)
        if scatter is not None:
            metrics, hosts = scatter(
                env_name, actions, env_kwargs=self.env_kwargs,
                memoize=self.batch,
            )
            self.last_hosts = hosts
            return metrics
        metrics = self.client.evaluate_batch(
            env_name, actions, env_kwargs=self.env_kwargs,
            memoize=self.batch,
        )
        self.last_hosts = (
            [getattr(self.client, "base_url", None)] * len(actions)
        )
        return metrics

    def evaluate_batch_stream(self, env_name: str, actions: Sequence[Dict[str, Any]]):
        """Streaming sibling of :meth:`evaluate_batch`: yield
        ``(start_index, metrics_list, host_url)`` chunks as hosts
        finish, in completion order.

        A multi-host pool streams per work unit with work stealing
        (:meth:`~repro.sweeps.hostpool.HostPool.evaluate_batch_stream`),
        so the generator finishes as soon as every result is known —
        no barrier on the slowest host. A single client degenerates to
        one blocking whole-batch round trip yielded as a single chunk.
        ``last_hosts`` is rebuilt per point as chunks land, matching
        the barrier path's provenance contract once the stream is
        drained. Server-side memoization follows the same ``batch=True``
        opt-in as :meth:`evaluate_batch`.
        """
        actions = list(actions)
        self.last_hosts = [None] * len(actions)
        stream = getattr(self.client, "evaluate_batch_stream", None)
        if stream is None:
            metrics = self.client.evaluate_batch(
                env_name, actions, env_kwargs=self.env_kwargs,
                memoize=self.batch,
            )
            host = getattr(self.client, "base_url", None)
            self.last_hosts = [host] * len(actions)
            yield 0, metrics, host
            return
        for start, metrics_list, host in stream(
            env_name, actions, env_kwargs=self.env_kwargs, memoize=self.batch,
        ):
            for offset in range(len(metrics_list)):
                self.last_hosts[start + offset] = host
            yield start, metrics_list, host

    def close(self) -> None:
        """Close the transport's persistent resources: a single
        client's keep-alive sockets (every thread's, not just the
        caller's), or a pool's whole complement — each host's clients
        plus the async dispatch loop. The backend itself stays usable;
        connections reopen lazily on the next dispatch."""
        close = getattr(self.client, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:
        target = getattr(self.client, "base_url", None) or getattr(
            self.client, "urls", self.client
        )
        return f"RemoteBackend(service={target!r}, batch={self.batch})"


def RemoteEnv(  # noqa: N802 - constructor-style helper, returns the env
    env: ArchGymEnv,
    service: Union[str, Sequence[str], ServiceClient, Any],
    env_kwargs: Optional[Dict[str, Any]] = None,
    **client_kwargs: Any,
) -> ArchGymEnv:
    """Attach a :class:`RemoteBackend` to ``env`` and return it.

    The environment is still constructed locally — agents need its
    action space, reward spec, and episode bookkeeping — but every
    ``evaluate`` now runs on the service::

        env = RemoteEnv(repro.make("DRAMGym-v0"), "http://127.0.0.1:8023")
        obs, reward, *_ = env.step(action)   # cost model ran remotely

    ``service`` may also be a list of URLs — the evaluations then
    spread over a least-load :class:`~repro.sweeps.hostpool.HostPool`
    with automatic failover. ``env_kwargs`` must mirror the
    construction arguments so the server evaluates the same
    environment configuration.
    """
    env.attach_backend(
        RemoteBackend(service, env_kwargs=env_kwargs, **client_kwargs)
    )
    return env
