"""Multi-host scheduling for remote evaluation: spread one sweep's
cost-model traffic over several evaluation services.

The paper's §6 argument — fair agent comparison needs *huge* numbers of
simulator evaluations — makes the evaluation service the throughput
ceiling of a sweep. One ``repro serve`` host saturates at one
simulator's speed; :class:`HostPool` points a sweep at N of them:

- **Least-load dispatch.** Every call picks the healthy host with the
  fewest in-flight requests *per unit of capacity weight* (ties rotate
  round-robin), so slow hosts shed load to fast ones automatically and
  a host declared twice as big carries twice the concurrent load.
- **Generation scatter.** :meth:`HostPool.evaluate_batch_scatter`
  splits one batch of design points across all living hosts in
  weight-proportional contiguous chunks, dispatches the chunks in
  parallel, and reassembles the results in request order with
  per-point host provenance — the transport under generation-native
  agents (GA/ACO populations), which turns N per-point round trips
  into one per host. The scatter is a *barrier*: the call returns
  only when the slowest host has finished its chunk.
- **Streaming dispatch with work stealing.**
  :meth:`HostPool.evaluate_batch_stream` removes that barrier. The
  batch is cut into small contiguous *work units* that hosts pull
  from a shared queue as they finish (fast hosts naturally take
  more), completed units are yielded to the caller immediately —
  arrival order, not request order — and when the queue runs dry an
  idle host *steals* a straggler's in-flight unit by re-dispatching
  a duplicate request. Evaluations are deterministic and idempotent,
  so the first completion wins and the losing duplicates are
  cancelled; no unit is ever recorded twice. The stream finishes as
  soon as every *result* is known — it never waits for a straggler's
  abandoned request, which is exactly what lets a pipelined driver
  start the next generation on the idle hosts meanwhile.
- **Health and failover.** A host whose transport fails (connection
  refused/reset, timeout, torn body — after the client's own retry
  policy) is *quarantined* and the call fails over to a surviving
  host. Evaluations are deterministic and idempotent, so a re-sent
  design point can never produce a duplicate or divergent result —
  which is what keeps a multi-host sweep bit-identical to a serial
  in-process run.
- **Revival.** When every host is quarantined the pool re-probes each
  one via ``GET /healthz`` and revives any that answer (a restarted
  server rejoins automatically). Only when that last sweep finds no
  living host does the call raise, with a per-host error inventory;
  the executor layer wraps it with the failing trial's name.

Server-produced errors (HTTP 4xx/5xx bodies — unknown env, cost-model
crash) are **not** failover events: they are deterministic and would
fail identically on every host, so they propagate immediately.

Every request the pool sends is a coroutine task on one event loop,
run by a single daemon thread the pool owns, over
:class:`~repro.service.aio.AsyncServiceClient` transports: chunks,
work units, probes and backfills alike. An
:class:`asyncio.Semaphore` per host keeps one evaluation per host in
flight, and a pool of any size costs one OS thread. The driver-facing
API stays synchronous; each call blocks on its coroutine's result.

The pool answers the single-host client's ``evaluate``/
``evaluate_batch`` calls, so
:class:`~repro.service.remote.RemoteBackend` can carry either without
knowing which it holds.
"""

from __future__ import annotations

import asyncio
import math
import queue
import threading
import time
import weakref
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ServiceError, ServiceTransportError
from repro.service.aio import AsyncServiceClient

__all__ = ["HostPool", "weighted_split"]

#: EWMA smoothing factor for observed per-host service rates: high
#: enough that a genuinely slow host is demoted within a few refresh
#: windows, low enough that one noisy window cannot whipsaw the split.
_AUTO_WEIGHT_ALPHA = 0.4
#: Floor on the observed-rate multiplier applied to a host's static
#: weight — the "never starved" clamp: however slow a host measures,
#: it keeps at least this fraction of its declared capacity, so it
#: continues to receive (and report on) work and can be promoted back.
_AUTO_WEIGHT_FLOOR = 0.1
#: Page size for the anti-entropy cache backfill of a revived host.
_BACKFILL_PAGE = 200
#: Smallest busy-time delta a refresh window may turn into a rate.
#: With ``auto_weights_interval_s=0`` two healthz polls can land
#: back-to-back; dividing a 1-evaluation delta by a sub-microsecond
#: busy window would fold an absurd rate spike into the EWMA.
_MIN_RATE_WINDOW_S = 1e-6


def weighted_split(n: int, weights: Sequence[float]) -> List[int]:
    """Apportion ``n`` items over ``weights`` proportionally.

    Largest-remainder rounding (ties to the earlier position), so the
    counts always sum to ``n`` and the split is deterministic for a
    given weight vector.
    """
    if not weights:
        raise ServiceError("weighted_split needs at least one weight")
    total = float(sum(weights))
    if total <= 0:
        # A weight vector derived from *observed* service rates can
        # legitimately be all zero (a cold fleet with no measurements
        # yet): split uniformly instead of dividing by zero.
        weights = [1.0] * len(weights)
        total = float(len(weights))
    raw = [n * w / total for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(
        range(len(weights)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


class _LoopThread(threading.Thread):
    """The daemon thread that runs a pool's dispatch event loop."""

    def __init__(self, pool: "HostPool") -> None:
        super().__init__(name="hostpool-aio", daemon=True)
        self.loop = asyncio.new_event_loop()
        #: Stops the loop and joins the thread, at most once: called by
        #: :meth:`HostPool.close`, or when ``pool`` is garbage collected
        #: unclosed, so a dropped pool does not leak its thread and the
        #: sockets its loop holds. Keeps no reference to ``pool``.
        self.stop = weakref.finalize(pool, _stop_loop, self.loop, self)

    def run(self) -> None:
        self.loop.run_forever()


def _stop_loop(loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
    loop.call_soon_threadsafe(loop.stop)
    if thread is threading.current_thread():
        return  # collected on the loop thread: it stops after this callback
    thread.join(timeout=5)
    try:
        loop.close()
    except RuntimeError:
        pass


class _Host:
    """One evaluation service inside the pool."""

    __slots__ = (
        "url", "aio_client", "aio_probe", "aio_sem", "weight", "alive",
        "inflight", "evals", "last_error", "quarantined_at", "auto_weight",
        "rate_ewma", "seen_evals", "seen_busy_s",
    )

    def __init__(
        self, client: AsyncServiceClient, probe: AsyncServiceClient,
        weight: float = 1.0,
    ) -> None:
        self.url = client.base_url
        self.aio_client = client
        #: Short-timeout, zero-retry client for healthz re-probes of a
        #: quarantined host (and for backfill and auto-weight polls) —
        #: a probe of a still-dead host must cost seconds, not the full
        #: evaluation timeout × retries.
        self.aio_probe = probe
        #: One-request-at-a-time semaphore, created lazily *on* the
        #: runner loop (3.9 binds the loop at construction) and reset
        #: by :meth:`HostPool.close`.
        self.aio_sem: Optional[asyncio.Semaphore] = None
        #: Relative capacity: a weight-2 host takes twice the
        #: concurrent load (least-load compares inflight/weight) and
        #: twice the share of a scattered generation.
        self.weight = weight
        self.alive = True
        self.inflight = 0
        self.evals = 0  # design points this host answered
        self.last_error: Optional[str] = None
        self.quarantined_at = 0.0
        #: Effective dispatch weight: equals ``weight`` until an
        #: auto-weights refresh blends in the observed service rate.
        self.auto_weight = weight
        #: EWMA of the observed service rate (design points per busy
        #: second, from the host's /healthz counters); None until the
        #: first measurement window with actual work in it.
        self.rate_ewma: Optional[float] = None
        # healthz counter baselines for per-window rate deltas
        self.seen_evals = 0
        self.seen_busy_s = 0.0

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"quarantined ({self.last_error})"
        return (
            f"_Host({self.url!r}, {state}, weight={self.weight}, "
            f"inflight={self.inflight})"
        )


class HostPool:
    """Schedule evaluation calls over several service hosts.

    Parameters
    ----------
    urls:
        Base URLs of running evaluation services. Duplicates are
        collapsed (one host, one health state). Order is the tie-break
        for least-load dispatch.
    weights:
        Per-host capacity weights aligned with ``urls`` (``None`` =
        all 1.0). A weight-W host carries W× the concurrent load under
        least-load dispatch (load is counted as ``inflight / weight``)
        and receives a W-proportional share of every scattered batch.
        Weights must be positive and finite; duplicate URLs must agree
        on their weight.
    timeout_s, retries, backoff_s:
        Per-host :class:`~repro.service.aio.AsyncServiceClient` policy —
        each host gets its own client (and with it its own keep-alive
        connections).
    revive_after_s:
        How long a quarantined host rests before the pool re-probes
        its ``/healthz`` (with a short-timeout, zero-retry probe) and
        revives it on success — so one transient failure costs a host
        at most this long, not the rest of the sweep. A failed probe
        restarts the clock. ``0`` probes on every dispatch; ``None``
        disables timed revival (the all-dead revival sweep still runs).
        A revived host is first *backfilled*: the pool pages a living
        replica's ``/cache`` map into it (the anti-entropy sweep), so
        a server that restarted empty rejoins with the fleet's shared
        entries instead of forcing re-simulation.
    auto_weights:
        Self-tune the dispatch weights from observed service rates.
        Every ``auto_weights_interval_s`` the pool reads each living
        host's ``/healthz`` counters (``evaluations`` and the server's
        ``busy_s`` accumulator), computes the per-window service rate
        (design points per busy second), smooths it with an EWMA, and
        scales each host's static weight by its rate relative to the
        fastest host — clamped to a floor so a slow host keeps a
        trickle of work (and a *cold* host with no measurements keeps
        its full static weight, never starved). Least-load dispatch
        and generation scatter then rebalance a heterogeneous fleet
        automatically. Purely a placement knob: evaluations are
        deterministic, so results are byte-identical either way.
    auto_weights_interval_s:
        Seconds between auto-weight refreshes (``0`` refreshes on
        every dispatch — useful in tests and microbenchmarks).

    Thread-safe: many threads may drive one pool; their calls all run
    on the pool's one event loop. Host selection and in-flight
    accounting sit under one lock, which is never held across an
    await.
    """

    def __init__(
        self,
        urls: Sequence[str],
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        revive_after_s: Optional[float] = 30.0,
        weights: Optional[Sequence[float]] = None,
        auto_weights: bool = False,
        auto_weights_interval_s: float = 5.0,
    ) -> None:
        if isinstance(urls, str):  # a lone URL is a 1-host pool
            urls = (urls,)
        if not urls:
            raise ServiceError("HostPool needs at least one service url")
        if weights is None:
            weights = [1.0] * len(urls)
        if len(weights) != len(urls):
            raise ServiceError(
                f"HostPool got {len(urls)} url(s) but {len(weights)} "
                "weight(s); pass one weight per url (or None for all-1)"
            )
        for url, weight in zip(urls, weights):
            if not (isinstance(weight, (int, float))
                    and math.isfinite(weight) and weight > 0):
                raise ServiceError(
                    f"host weight for {url!r} must be a positive finite "
                    f"number, got {weight!r}"
                )
        # Dedupe on the client-normalized base URL, not the raw string:
        # 'http://h:1' and 'http://h:1/' are one server, and two _Host
        # entries for it would split its quarantine state and double
        # its share of least-load dispatch.
        self._hosts: List[_Host] = []
        seen: Dict[str, float] = {}
        for url, weight in zip(urls, weights):
            client = AsyncServiceClient(
                url, timeout_s=timeout_s, retries=retries, backoff_s=backoff_s,
            )
            if client.base_url in seen:
                if seen[client.base_url] != float(weight):
                    raise ServiceError(
                        f"conflicting weights for host {client.base_url!r}: "
                        f"{seen[client.base_url]} vs {weight}"
                    )
                continue
            seen[client.base_url] = float(weight)
            probe = AsyncServiceClient(
                url, timeout_s=min(timeout_s, 2.0), retries=0,
                backoff_s=backoff_s,
            )
            self._hosts.append(_Host(client, probe, weight=float(weight)))
        self.revive_after_s = revive_after_s
        if auto_weights_interval_s < 0:
            raise ServiceError(
                f"auto_weights_interval_s must be >= 0, got "
                f"{auto_weights_interval_s}"
            )
        self.auto_weights = auto_weights
        self.auto_weights_interval_s = auto_weights_interval_s
        self._weights_refreshed_at = float("-inf")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0  # round-robin cursor for load ties
        #: Cumulative streaming-dispatch accounting (under ``_lock``):
        #: work units dispatched, units re-dispatched by an idle host
        #: stealing a straggler's in-flight work, and late duplicate
        #: completions discarded because another host won the unit.
        self.stream_units = 0
        self.stream_steals = 0
        self.stream_duplicates = 0
        #: Auto-weight refreshes that actually recomputed the
        #: effective weights (at least one host had rate data).
        self.auto_weight_updates = 0
        #: Cache entries copied into revived hosts by the
        #: anti-entropy backfill.
        self.cache_backfills = 0
        #: The dispatch event loop's runner thread (created lazily on
        #: first dispatch; recreated after :meth:`close`). Mutated
        #: under ``_lock``.
        self._runner: Optional[_LoopThread] = None

    # -- introspection ------------------------------------------------------------

    @property
    def urls(self) -> List[str]:
        return [h.url for h in self._hosts]

    @property
    def alive_urls(self) -> List[str]:
        with self._lock:
            return [h.url for h in self._hosts if h.alive]

    @property
    def quarantined_urls(self) -> List[str]:
        with self._lock:
            return [h.url for h in self._hosts if not h.alive]

    @property
    def evals_by_host(self) -> Dict[str, int]:
        """Design points answered per host (successful calls only)."""
        with self._lock:
            return {h.url: h.evals for h in self._hosts if h.evals}

    @property
    def weights_by_host(self) -> Dict[str, float]:
        """Static capacity weight per host (the declared ``=WEIGHT``)."""
        return {h.url: h.weight for h in self._hosts}

    @property
    def effective_weights_by_host(self) -> Dict[str, float]:
        """The weights dispatch actually uses right now: the static
        weights, scaled by observed service rates when
        ``auto_weights`` is on (identical to :attr:`weights_by_host`
        until the first refresh with rate data)."""
        with self._lock:
            return {h.url: h.auto_weight for h in self._hosts}

    @property
    def last_host(self) -> Optional[str]:
        """URL that served the calling thread's most recent success —
        how :class:`~repro.core.env.ArchGymEnv` attributes its per-host
        ``remote_evals`` counters."""
        return getattr(self._local, "last_host", None)

    def __repr__(self) -> str:
        return f"HostPool(hosts={self.urls}, alive={self.alive_urls})"

    # -- health -------------------------------------------------------------------

    def check_health(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """Probe every host's ``/healthz``; returns ``url -> health``
        (``None`` for non-responders, which are quarantined). Raises
        :class:`ServiceError` only if *no* host answers — a pool with
        any survivor can still run the sweep."""
        report = self._run_on_loop(self._check_health_async())
        if not any(v is not None for v in report.values()):
            raise ServiceError(
                f"no evaluation host is healthy: {self._error_inventory()}"
            )
        return report

    async def _check_health_async(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """Probe each host in order; a quarantined host that answers is
        backfilled before it rejoins."""
        report: Dict[str, Optional[Dict[str, Any]]] = {}
        for host in self._hosts:
            with self._lock:
                was_dead = not host.alive
            try:
                report[host.url] = await host.aio_client.healthz()
            except ServiceError as exc:
                report[host.url] = None
                self._mark(host, alive=False, error=str(exc))
                continue
            if was_dead:
                await self._backfill_cache_async(host)
            self._mark(host, alive=True)
        return report

    def _mark(self, host: _Host, alive: bool, error: Optional[str] = None) -> None:
        with self._lock:
            host.alive = alive
            host.last_error = None if alive else (error or host.last_error)
            if not alive:
                host.quarantined_at = time.monotonic()

    def _claim_revival_probe(self, host: _Host, now: float) -> bool:
        """Atomically check-and-claim one revival probe slot: True when
        ``host`` is quarantined and its rest period has elapsed. The
        claim restarts its clock, so concurrent dispatchers — and a
        failed probe — cannot double-probe within one window."""
        with self._lock:
            due = (
                not host.alive
                and now - host.quarantined_at >= self.revive_after_s
            )
            if due:
                host.quarantined_at = now  # claim this probe slot
        return due

    async def _timed_revival_async(self) -> None:
        """Re-probe quarantined hosts whose rest period has elapsed.

        One short healthz per due host per ``revive_after_s`` window —
        a failed probe restarts its clock, so a still-dead host costs
        the dispatch path a bounded, occasional probe instead of the
        full evaluation timeout on every trial.
        """
        if self.revive_after_s is None:
            return
        now = time.monotonic()
        for host in self._hosts:
            if not self._claim_revival_probe(host, now):
                continue
            try:
                await host.aio_probe.healthz()
            except ServiceError:
                continue
            await self._backfill_cache_async(host)
            self._mark(host, alive=True)

    def _error_inventory(self) -> str:
        with self._lock:
            return "; ".join(
                f"{h.url}: {h.last_error or 'ok'}" for h in self._hosts
            )

    async def _revive_sweep_async(self) -> int:
        """All hosts are quarantined: healthz-probe each one and revive
        the responders. Returns how many came back."""
        revived = 0
        for host in self._hosts:
            with self._lock:
                dead = not host.alive
            if not dead:
                continue
            try:
                await host.aio_probe.healthz()
            except ServiceError:
                continue
            await self._backfill_cache_async(host)
            self._mark(host, alive=True)
            revived += 1
        return revived

    async def _backfill_cache_async(self, revived: _Host) -> None:
        """Anti-entropy: page a living replica's cache into ``revived``.

        A host that restarted rejoins with an empty in-memory cache;
        its replicas still hold every entry the shared cache tier
        wrote through. Before the revived host takes traffic again,
        copy one live donor's ``GET /cache`` listing into it page by
        page, so none of its lost entries ever forces a re-simulation.
        Best-effort: if the donor (or the revived host) dies mid-copy
        the partial progress is kept and the next donor — or the next
        revival — continues; reads fall back to replicas meanwhile.
        """
        with self._lock:
            donors = [h for h in self._hosts if h.alive and h is not revived]
        for donor in donors:
            copied = 0
            offset = 0
            try:
                while True:
                    entries, total = await donor.aio_probe.cache_list(
                        offset=offset, limit=_BACKFILL_PAGE
                    )
                    for key_str, metrics in entries:
                        await revived.aio_probe.cache_put(key_str, metrics)
                        copied += 1
                    offset += len(entries)
                    if not entries or offset >= total:
                        break
            except ServiceError:
                with self._lock:
                    self.cache_backfills += copied
                continue  # partial copy kept; try the next donor
            with self._lock:
                self.cache_backfills += copied
            return

    async def _refresh_auto_weights_async(self) -> None:
        """Blend observed service rates into the dispatch weights.

        Reads each living host's ``/healthz`` counters through the
        cheap probe client, turns the counter deltas since the last
        refresh into a per-window service rate (evaluations per busy
        second), smooths it with an EWMA, and scales each host's
        static weight by its rate relative to the fastest host. The
        ratio is clamped to ``_AUTO_WEIGHT_FLOOR`` so a slow host
        keeps a trickle of work (and can be promoted back when it
        speeds up); a *cold* host with no measurements keeps its full
        static weight — never starved by missing data.
        """
        if not self.auto_weights:
            return
        if not self._claim_refresh_slot():
            return
        with self._lock:
            living = [h for h in self._hosts if h.alive]
        for host in living:
            try:
                health = await host.aio_probe.healthz()
            except ServiceError:
                continue  # quarantining is the dispatch path's call
            self._note_rate_sample(
                host,
                int(health.get("evaluations", 0)),
                float(health.get("busy_s", 0.0)),
            )
        self._apply_auto_weights()

    def _claim_refresh_slot(self) -> bool:
        """Atomically claim the next auto-weights refresh window (one
        refresher per ``auto_weights_interval_s``)."""
        now = time.monotonic()
        with self._lock:
            if now - self._weights_refreshed_at < self.auto_weights_interval_s:
                return False
            self._weights_refreshed_at = now  # claim this refresh slot
            return True

    def _note_rate_sample(self, host: _Host, evals: int, busy: float) -> None:
        """Fold one host's healthz counter reading into its rate EWMA."""
        with self._lock:
            d_evals = evals - host.seen_evals
            d_busy = busy - host.seen_busy_s
            if d_evals < 0 or d_busy < 0:
                # Counters went backwards: the host restarted.
                # Re-baseline and wait for a fresh window.
                host.seen_evals = evals
                host.seen_busy_s = busy
                return
            if d_evals == 0 or d_busy < _MIN_RATE_WINDOW_S:
                # Zero-delta (or sub-epsilon) window — nothing to
                # measure. Crucially, do NOT advance the baseline:
                # with interval 0, back-to-back polls would
                # otherwise consume the accumulation window and a
                # later poll would see a 0-or-spike rate.
                return
            host.seen_evals = evals
            host.seen_busy_s = busy
            rate = d_evals / d_busy
            host.rate_ewma = (
                rate if host.rate_ewma is None
                else _AUTO_WEIGHT_ALPHA * rate
                + (1.0 - _AUTO_WEIGHT_ALPHA) * host.rate_ewma
            )

    def _apply_auto_weights(self) -> None:
        """Recompute the effective dispatch weights from the rate EWMAs
        (a no-op — and no counted update — until at least one host has
        a measurement)."""
        with self._lock:
            rated = [
                h.rate_ewma for h in self._hosts if h.rate_ewma is not None
            ]
            if not rated:
                return
            top = max(rated)
            for host in self._hosts:
                if host.rate_ewma is None or top <= 0:
                    host.auto_weight = host.weight
                else:
                    host.auto_weight = host.weight * max(
                        host.rate_ewma / top, _AUTO_WEIGHT_FLOOR
                    )
            self.auto_weight_updates += 1

    # -- the event loop -----------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        """The pool's dispatch event loop, created (with its single
        daemon runner thread) on first use and after :meth:`close`."""
        with self._lock:
            runner = self._runner
            if runner is not None:
                return runner.loop
            runner = self._runner = _LoopThread(self)
        runner.start()
        return runner.loop

    def _run_on_loop(self, coro: Any) -> Any:
        """Run one coroutine to completion on the dispatch loop from a
        sync caller thread — the bridge that keeps the driver-facing
        API synchronous while the fan-out itself is task-based."""
        return asyncio.run_coroutine_threadsafe(coro, self._ensure_loop()).result()

    def _host_sem(self, host: _Host) -> asyncio.Semaphore:
        """``host``'s one-request-at-a-time semaphore, created lazily
        *on* the running loop (3.9 binds the loop at construction) and
        reset by :meth:`close`."""
        sem = host.aio_sem
        if sem is None:
            sem = asyncio.Semaphore(1)
            host.aio_sem = sem
        return sem

    async def _aclose_clients(self) -> None:
        """Park-and-close every transport's pooled connections."""
        for host in self._hosts:
            await host.aio_client.close()
            await host.aio_probe.close()

    # -- dispatch -----------------------------------------------------------------

    async def _prepare_dispatch(self) -> List[_Host]:
        """The prologue of every dispatch: timed revival, then an
        auto-weights refresh; returns the hosts alive afterwards."""
        await self._timed_revival_async()
        await self._refresh_auto_weights_async()
        with self._lock:
            return [h for h in self._hosts if h.alive]

    def _acquire(self) -> Optional[_Host]:
        """Least-loaded living host (in-flight count bumped), or None.

        Load is in-flight requests *divided by effective capacity
        weight* (the static weight, rate-scaled when auto-weights is
        on), so a weight-2 host is only "as busy" as a weight-1 host
        carrying half its requests. Load ties break round-robin, not
        by position: a serial caller (whose in-flight count is always
        zero at dispatch time) must still spread its requests over the
        whole fleet instead of pinning the first host.
        """
        with self._lock:
            living = [(i, h) for i, h in enumerate(self._hosts) if h.alive]
            if not living:
                return None
            n = len(self._hosts)
            start = self._next % n
            index, host = min(
                living,
                key=lambda ih: (
                    ih[1].inflight / ih[1].auto_weight, (ih[0] - start) % n
                ),
            )
            self._next = index + 1
            host.inflight += 1
            return host

    def _release(self, host: _Host, n_evals: int, ok: bool) -> None:
        with self._lock:
            host.inflight -= 1
            if ok:
                host.evals += n_evals

    async def _try_host_async(
        self, host: _Host, op: str, n_evals: int, *args: Any, **kwargs: Any
    ) -> Any:
        """One attempt pinned to ``host`` (in-flight accounted).

        Transport death quarantines the host and re-raises so the
        caller can fail the work over; server-produced errors
        propagate untouched, like :meth:`_call_async`.
        """
        with self._lock:
            host.inflight += 1
        ok = False
        try:
            async with self._host_sem(host):
                result = await getattr(host.aio_client, op)(*args, **kwargs)
            ok = True
            return result
        except ServiceTransportError as exc:
            self._mark(host, alive=False, error=str(exc))
            raise
        finally:
            self._release(host, n_evals, ok)

    async def _call_async(
        self, op: str, n_evals: int, *args: Any, **kwargs: Any
    ) -> Tuple[Any, str]:
        """Run ``op`` on the least-loaded host, failing over on
        transport death; at most one all-dead revival sweep per call.
        Returns ``(result, host_url)``: tasks share one loop thread, so
        a thread-local cannot carry their provenance."""
        await self._prepare_dispatch()
        revived_once = False
        while True:
            host = self._acquire()
            if host is None:
                if not revived_once and await self._revive_sweep_async():
                    revived_once = True
                    continue
                raise ServiceTransportError(
                    f"all {len(self._hosts)} evaluation host(s) failed: "
                    f"{self._error_inventory()}"
                )
            ok = False
            try:
                async with self._host_sem(host):
                    result = await getattr(host.aio_client, op)(*args, **kwargs)
                ok = True
            except ServiceTransportError as exc:
                # The host is unreachable (after the client's own
                # retries): quarantine it and fail over. The request is
                # idempotent, so the next host re-runs it safely.
                self._mark(host, alive=False, error=str(exc))
                continue
            finally:
                self._release(host, n_evals, ok)
            return result, host.url

    def _call(self, op: str, n_evals: int, *args: Any, **kwargs: Any) -> Any:
        """:meth:`_call_async` from a sync caller, which stamps the
        calling thread's :attr:`last_host`."""
        result, url = self._run_on_loop(
            self._call_async(op, n_evals, *args, **kwargs)
        )
        self._local.last_host = url
        return result

    # -- the client surface RemoteBackend uses -----------------------------------

    def evaluate(
        self,
        env: str,
        action: Dict[str, Any],
        env_kwargs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, float]:
        """Evaluate one design point on the best available host."""
        return self._call("evaluate", 1, env, action, env_kwargs=env_kwargs)

    def evaluate_batch(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
        memoize: bool = True,
    ) -> List[Dict[str, float]]:
        """Evaluate a batch on one host (whole-batch failover)."""
        return self._call(
            "evaluate_batch", len(actions), env, actions,
            env_kwargs=env_kwargs, memoize=memoize,
        )

    def evaluate_batch_scatter(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
        memoize: bool = True,
    ) -> Tuple[List[Dict[str, float]], List[Optional[str]]]:
        """Split one batch across the living hosts and run the chunks
        in parallel.

        The batch (typically a GA/ACO generation) is cut into
        contiguous chunks sized by capacity weight — a weight-2 host
        receives twice the design points — each chunk rides one
        ``POST /evaluate_batch``, and the results are reassembled in
        request order. Returns ``(metrics, hosts)`` where ``hosts[i]``
        names the host that answered point ``i`` (the per-point
        provenance :class:`~repro.core.env.ArchGymEnv` records).

        A chunk whose assigned host dies mid-flight is quarantined and
        the chunk re-dispatched through the ordinary least-load
        failover path (evaluations are idempotent, so a re-sent chunk
        cannot diverge). A batch that would land on a single host —
        one living host, or a batch too small to split — delegates to
        the whole-batch path so tiny batches keep round-robin/
        least-load placement instead of pinning the heaviest host.
        """
        actions = list(actions)
        if not actions:
            return [], []
        metrics, hosts = self._run_on_loop(
            self._scatter_async(env, actions, env_kwargs, memoize)
        )
        self._local.last_host = hosts[-1]
        return metrics, hosts

    async def _scatter_async(
        self,
        env: str,
        actions: List[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]],
        memoize: bool,
    ) -> Tuple[List[Dict[str, float]], List[Optional[str]]]:
        """Coroutine core of :meth:`evaluate_batch_scatter`: the chunks
        are ``gather``-ed tasks on the loop."""
        alive = await self._prepare_dispatch()
        chunks: List[Tuple[_Host, List[Dict[str, Any]]]] = []
        if len(alive) > 1:
            counts = weighted_split(
                len(actions), [h.auto_weight for h in alive]
            )
            cursor = 0
            for host, count in zip(alive, counts):
                if count:
                    chunks.append((host, actions[cursor:cursor + count]))
                    cursor += count
        if len(chunks) <= 1:
            got, url = await self._call_async(
                "evaluate_batch", len(actions), env, actions,
                env_kwargs=env_kwargs, memoize=memoize,
            )
            return got, [url] * len(actions)

        async def run_chunk(
            host: _Host, sub: List[Dict[str, Any]]
        ) -> Tuple[List[Dict[str, float]], str]:
            try:
                got = await self._try_host_async(
                    host, "evaluate_batch", len(sub), env, sub,
                    env_kwargs=env_kwargs, memoize=memoize,
                )
                return got, host.url
            except ServiceTransportError:
                # The assigned host died (now quarantined): re-run
                # the chunk through the normal failover path.
                return await self._call_async(
                    "evaluate_batch", len(sub), env, sub,
                    env_kwargs=env_kwargs, memoize=memoize,
                )

        results = await asyncio.gather(
            *(run_chunk(host, sub) for host, sub in chunks),
            return_exceptions=True,
        )
        for result in results:  # surface the first failure in chunk order
            if isinstance(result, BaseException):
                raise result
        metrics: List[Dict[str, float]] = []
        hosts: List[Optional[str]] = []
        for (_, sub), (got, url) in zip(chunks, results):
            metrics.extend(got)
            hosts.extend([url] * len(sub))
        return metrics, hosts

    def evaluate_batch_stream(
        self,
        env: str,
        actions: Sequence[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]] = None,
        memoize: bool = True,
        unit_size: Optional[int] = None,
    ) -> Iterator[Tuple[int, List[Dict[str, float]], Optional[str]]]:
        """Stream one batch's results back as hosts finish, with work
        stealing for stragglers.

        The batch is cut into contiguous *work units* of ``unit_size``
        design points (default: enough units for every living host to
        pull roughly four as it goes). One worker coroutine per living
        host pulls units from a shared queue — a fast host simply
        pulls more, so dynamic load balancing replaces the static
        weighted split of :meth:`evaluate_batch_scatter` — and each
        completed unit is yielded immediately as
        ``(start_index, metrics, host_url)``, in **completion order**
        (the caller reassembles proposal order; see
        :meth:`~repro.core.env.ArchGymEnv.step_batch_stream`).

        **Work stealing.** When the queue is empty but units are still
        in flight, an idle worker re-dispatches a straggler's unit
        (never its own; the unit with the fewest runners first). The
        evaluation API is deterministic and idempotent, so duplicates
        are harmless: the first completion wins the unit and the
        losers' requests are cancelled — ``stream_duplicates`` counts
        them, and no unit is ever yielded twice.

        **No tail barrier.** The generator finishes when every unit's
        *result* is known, not when every request has returned: the
        moment the last result lands (or the caller abandons the
        generator), every request still in flight is cancelled. That
        is the pipelining hook — the driver can breed and dispatch the
        next generation to the idle hosts instead of waiting on a
        straggler's stale request.

        **Failure.** A host whose transport dies is quarantined; its
        unfinished unit returns to the queue (unless a thief already
        carries it) and the remaining workers absorb the work. If
        every worker dies with units outstanding, one revival sweep
        re-probes the fleet and restaffs; only when that finds no
        living host does the stream raise
        :class:`ServiceTransportError`. Server-produced errors
        (deterministic 4xx/5xx) propagate immediately, as everywhere
        else in the pool.

        A batch with fewer than two work units — or a pool with fewer
        than two living hosts — delegates to the whole-batch
        least-load path and yields a single chunk.
        """
        actions = list(actions)
        if not actions:
            return
        # Validate before the prologue: a rejected call must not probe,
        # revive or backfill any host.
        if unit_size is not None and unit_size < 1:
            raise ServiceError(f"unit_size must be >= 1, got {unit_size}")
        alive = self._run_on_loop(self._prepare_dispatch())
        if unit_size is None:
            # ~4 units per living host: small enough that the tail is
            # short and steals are meaningful, large enough that the
            # per-request overhead stays amortized.
            unit_size = max(1, math.ceil(len(actions) / (4 * max(1, len(alive)))))
        units: List[Tuple[int, List[Dict[str, Any]]]] = [
            (start, actions[start:start + unit_size])
            for start in range(0, len(actions), unit_size)
        ]
        if len(alive) < 2 or len(units) < 2:
            metrics = self._call(
                "evaluate_batch", len(actions), env, actions,
                env_kwargs=env_kwargs, memoize=memoize,
            )
            yield 0, metrics, self.last_host
            return
        with self._lock:
            self.stream_units += len(units)
        completions: "queue.Queue[Tuple[str, Any, Any, Any]]" = queue.Queue()
        future = asyncio.run_coroutine_threadsafe(
            self._stream_async(env, units, alive, env_kwargs, memoize, completions),
            self._ensure_loop(),
        )
        n_done = 0
        last_host: Optional[str] = None
        try:
            while n_done < len(units):
                kind, a, b, c = completions.get()
                if kind == "unit":
                    uid, got, url = a, b, c
                    start, sub = units[uid]
                    if len(got) != len(sub):
                        raise ServiceError(
                            f"host {url} answered {len(got)} metric "
                            f"object(s) for a {len(sub)}-point unit"
                        )
                    n_done += 1
                    last_host = url
                    yield start, got, url
                else:  # ("error", exc, ...)
                    raise a
        finally:
            # Finished or abandoned: tear the supervisor down (it
            # cancels every worker and in-flight unit task).
            future.cancel()
        self._local.last_host = last_host

    async def _unit_eval(
        self,
        host: _Host,
        env: str,
        sub: List[Dict[str, Any]],
        env_kwargs: Optional[Dict[str, Any]],
        memoize: bool,
    ) -> List[Dict[str, float]]:
        """One streaming work unit on ``host`` — the cancellable inner
        task work stealing aborts when another host wins the unit."""
        async with self._host_sem(host):
            return await host.aio_client.evaluate_batch(
                env, sub, env_kwargs=env_kwargs, memoize=memoize,
            )

    async def _stream_async(
        self,
        env: str,
        units: List[Tuple[int, List[Dict[str, Any]]]],
        alive: List[_Host],
        env_kwargs: Optional[Dict[str, Any]],
        memoize: bool,
        completions: "queue.Queue[Tuple[str, Any, Any, Any]]",
    ) -> None:
        """Streaming-dispatch supervisor.

        One worker coroutine per living host pulls units from the
        shared queue. A unit's winner **cancels** the losers' in-flight
        tasks; each successful cancellation is one discarded duplicate
        for ``stream_duplicates`` (a loser that completed before the
        cancel counts its own). Scheduling state
        (``pending``/``runners``/``done``) needs no lock: every
        mutation happens between awaits on the one loop thread.
        Counters and host state stay under ``self._lock``, shared with
        sync callers.
        """
        pending: "deque[int]" = deque(range(len(units)))
        runners: Dict[int, Dict[_Host, "asyncio.Task"]] = {}
        done: Dict[int, bool] = {}
        stop = [False]
        exits: "asyncio.Queue[_Host]" = asyncio.Queue()
        worker_tasks: List["asyncio.Task"] = []

        def take_work(host: _Host) -> Optional[int]:
            """Next unit for ``host`` (bumping in-flight), or None."""
            if stop[0]:
                return None
            if pending:
                uid, stolen = pending.popleft(), False
            else:
                candidates = [
                    u for u, r in runners.items()
                    if u not in done and r and host not in r
                ]
                if not candidates:
                    return None
                uid = min(candidates, key=lambda u: (len(runners[u]), u))
                stolen = True
            runners.setdefault(uid, {})
            with self._lock:
                host.inflight += 1
                if stolen:
                    self.stream_steals += 1
            return uid

        async def worker(host: _Host) -> None:
            try:
                while True:
                    uid = take_work(host)
                    if uid is None:
                        return
                    sub = units[uid][1]
                    task = asyncio.ensure_future(
                        self._unit_eval(host, env, sub, env_kwargs, memoize)
                    )
                    runners[uid][host] = task
                    try:
                        got = await task
                    except ServiceTransportError as exc:
                        self._mark(host, alive=False, error=str(exc))
                        with self._lock:
                            host.inflight -= 1
                        crew = runners.get(uid)
                        if crew is not None:
                            crew.pop(host, None)
                        if uid not in done and not crew:
                            # No thief carries this unit: put it
                            # back for the surviving workers.
                            pending.appendleft(uid)
                        return  # quarantined: this worker retires
                    except asyncio.CancelledError:
                        with self._lock:
                            host.inflight -= 1
                        crew = runners.get(uid)
                        if crew is not None:
                            crew.pop(host, None)
                        if task.cancelled():
                            # The unit's winner cancelled this
                            # duplicate (already counted): keep
                            # pulling work.
                            continue
                        # The worker itself is being torn down: abort
                        # the in-flight unit and propagate.
                        task.cancel()
                        raise
                    except BaseException as exc:
                        # Server-produced (deterministic) error: would
                        # fail identically on every host — surface it.
                        with self._lock:
                            host.inflight -= 1
                        stop[0] = True
                        crew = runners.get(uid)
                        if crew is not None:
                            crew.pop(host, None)
                        completions.put(("error", exc, None, None))
                        return
                    crew = runners.pop(uid, None) or {}
                    crew.pop(host, None)
                    won = uid not in done
                    if won:
                        done[uid] = True
                    with self._lock:
                        host.inflight -= 1
                        if won:
                            host.evals += len(sub)
                        else:
                            self.stream_duplicates += 1
                    if won:
                        for straggler in crew.values():
                            if straggler is not None and straggler.cancel():
                                with self._lock:
                                    self.stream_duplicates += 1
                        completions.put(("unit", uid, got, host.url))
            finally:
                exits.put_nowait(host)

        def staff(hosts: Sequence[_Host]) -> int:
            for host in hosts:
                worker_tasks.append(asyncio.ensure_future(worker(host)))
            return len(hosts)

        workers_live = staff(alive)
        revived_once = False
        try:
            while len(done) < len(units):
                await exits.get()
                workers_live -= 1
                if workers_live > 0:
                    continue
                if len(done) >= len(units) or stop[0]:
                    break
                # Every worker is gone with units outstanding: at most
                # one revival sweep per stream (like _call_async), then
                # restaff the living hosts — which includes a host
                # whose worker merely ran out of stealable work before
                # a straggler died and requeued its unit.
                if not revived_once and await self._revive_sweep_async():
                    revived_once = True
                with self._lock:
                    living = [h for h in self._hosts if h.alive]
                if not living:
                    raise ServiceTransportError(
                        f"all {len(self._hosts)} evaluation "
                        f"host(s) failed with "
                        f"{len(units) - len(done)} work unit(s) "
                        f"outstanding: {self._error_inventory()}"
                    )
                workers_live = staff(living)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            completions.put(("error", exc, None, None))
        finally:
            stop[0] = True
            for task in worker_tasks:
                task.cancel()
            for crew in list(runners.values()):
                for straggler in list(crew.values()):
                    if straggler is not None:
                        straggler.cancel()

    def healthz(self) -> Dict[str, Any]:
        """Liveness document of the least-loaded living host."""
        return self._call("healthz", 0)

    def close(self) -> None:
        """Release every transport resource the pool holds: the
        clients' pooled connections, and the dispatch loop with its
        runner thread.

        Teardown-only by contract (no dispatch may be in flight), but
        the pool itself stays usable: quarantine state and counters
        survive, and the loop/connections are recreated lazily on the
        next dispatch — which is what lets a cached backend keep its
        pool across trials while each trial's teardown returns the
        process to zero open sockets.
        """
        with self._lock:
            runner, self._runner = self._runner, None
        if runner is not None:
            try:
                asyncio.run_coroutine_threadsafe(
                    self._aclose_clients(), runner.loop
                ).result(timeout=5)
            except Exception:
                pass  # best effort: the loop is going away regardless
            runner.stop()
        for host in self._hosts:
            # The semaphore was bound to the closed loop (3.9 binds at
            # construction): drop it so the next dispatch rebuilds it
            # on the fresh loop.
            host.aio_sem = None
