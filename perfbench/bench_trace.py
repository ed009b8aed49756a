"""Instrumentation the benchmark wraps around the program from outside.

Two levels, both installed by monkey-patching public entry points of
``repro`` for the duration of one sweep and removed afterwards:

* :class:`RoundTimer` (always on) times agent rounds. A round opens at
  the outermost ``propose``/``propose_batch`` call and closes when the
  outermost ``observe``/``observe_batch`` call returns, so it covers
  propose -> step -> observe. It also records the first proposal, which
  ends the set-up interval.
* :class:`SpeedProbe` (untraced runs only) samples the machine's speed
  between rounds, so times can be scaled to a reference speed.
* :class:`Tracer` (traced runs only) adds spans at every layer boundary:
  name, layer, start, end, parent span, thread and trace id (one trace
  id per agent round). Spans nest per thread by a stack, so a span's
  self time is its duration minus the durations of its direct children
  on the same thread. On the driver thread the self times of one round
  therefore add up to exactly the round's wall time. Spans on the host
  pool's dispatch threads carry the round's trace id and parent, but
  run concurrently with the driver and are kept out of that partition.

Generators (``step_batch_stream``, ``evaluate_batch_stream``) are
traced one ``next()`` at a time, so the driver's replay work between
chunks is not charged to the layer that produced the chunk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter

#: Agent methods that open (propose*) and close (observe*) a round.
_OPENERS = ("propose", "propose_batch")
_CLOSERS = ("observe", "observe_batch")


def _agent_classes() -> List[type]:
    from repro.agents.base import Agent

    found, todo = [], [Agent]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class _Patches:
    """Monkey patches with exact undo, in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, module_name: str, name: str, wrap: Callable) -> None:
        """Wrap a module-level function everywhere it was imported by
        name, so ``from x import f`` call sites see the wrapper too."""
        original = getattr(sys.modules[module_name], name)
        wrapped = wrap(original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self.set(module, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _reference_kernel() -> None:
    """Fixed pure-Python work (about a millisecond): the speed yardstick."""
    x = 0
    for i in range(12_000):
        x += i * i


class SpeedProbe:
    """Samples the machine's current speed between agent rounds.

    A virtual machine on shared cores speeds up and slows down by tens
    of percent within seconds, which swamps code changes. After a round
    closes, at most every ``EVERY_S`` seconds, the probe times one run of
    a fixed reference kernel. Metrics are then scaled to a reference
    speed by :meth:`factor`; the probe's own time is kept out of the
    measured sweep time (``spent_s``).
    """

    #: Reference-kernel duration that counts as speed 1.0.
    NOMINAL_S = 0.00075
    #: Least time between two samples.
    EVERY_S = 0.02

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._last = _now()

    def tick(self, now: float) -> None:
        if now - self._last < self.EVERY_S:
            return
        self.samples += measure_speed(1)
        self._last = _now()
        self.spent_s += self._last - now

    def factor(self) -> float:
        """Mean kernel time over nominal: 1.2 means the machine ran 20%
        slower than the reference speed while the probe watched."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / self.NOMINAL_S


def measure_speed(n: int = 20) -> List[float]:
    """``n`` back-to-back reference-kernel timings (seconds)."""
    samples = []
    for _ in range(n):
        start = _now()
        _reference_kernel()
        samples.append(_now() - start)
    return samples


class RoundTimer:
    """Round latencies and the first proposal, from the driver thread."""

    def __init__(self, speed: Optional[SpeedProbe] = None) -> None:
        self.rounds: List[float] = []  # seconds per round
        self.first_proposal: Optional[float] = None
        self.speed = speed
        self.on_round_open: Optional[Callable[[float], None]] = None
        self.on_round_close: Optional[Callable[[float], None]] = None
        self._depth = 0
        self._open_at: Optional[float] = None
        self._driver = threading.get_ident()
        self._patches = _Patches()

    def _wrap_agent(self, fn: Callable, opener: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(agent: Any, *args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self._driver:
                return fn(agent, *args, **kwargs)
            if self._depth == 0 and opener and self._open_at is None:
                start = _now()
                if self.first_proposal is None:
                    self.first_proposal = start
                self._open_at = start
                if self.on_round_open is not None:
                    self.on_round_open(start)
            self._depth += 1
            try:
                return fn(agent, *args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0 and not opener and self._open_at is not None:
                    end = _now()
                    self.rounds.append(end - self._open_at)
                    self._open_at = None
                    if self.on_round_close is not None:
                        self.on_round_close(end)
                    if self.speed is not None:
                        self.speed.tick(end)

        return wrapper

    def install(self) -> None:
        for cls in _agent_classes():
            for name in _OPENERS + _CLOSERS:
                if name in cls.__dict__:
                    self._patches.set(
                        cls, name,
                        self._wrap_agent(cls.__dict__[name], name in _OPENERS),
                    )

    def uninstall(self) -> None:
        self._patches.undo()
        self._depth = 0
        self._open_at = None


class _Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "trace",
                 "tid", "child", "self_s")

    def __init__(self, sid: int, name: str, layer: str, parent: Optional["_Span"],
                 trace: Optional[int], tid: int) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.trace = trace
        self.tid = tid
        self.start = _now()
        self.end = 0.0
        self.child = 0.0
        self.self_s = 0.0


class Tracer:
    """Layer spans around the public functions of each ``repro`` layer.

    ``layer_self_s`` accumulates self time per layer and ``counts``
    per-layer event counts; ``spans`` keeps every finished span for the
    Chrome trace export and the nesting checks.
    """

    def __init__(self, timer: RoundTimer) -> None:
        self.timer = timer
        self.spans: List[_Span] = []
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.clients: List[Any] = []
        self.pools: List[Any] = []
        self._local = threading.local()
        self._driver = timer._driver
        self._round: Optional[_Span] = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._patches = _Patches()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> _Span:
        tid = threading.get_ident()
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and tid != self._driver:
            parent = self._round  # a pool dispatch thread works for the round
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        trace = self._round.sid if self._round is not None else None
        span = _Span(sid, name, layer, parent, trace, tid)
        stack.append(span)
        return span

    def _close(self, span: _Span, end: Optional[float] = None) -> None:
        span.end = _now() if end is None else end
        stack = self._stack()
        stack.pop()
        duration = span.end - span.start
        span.self_s = duration - span.child
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.layer_self_s[span.layer] += span.self_s
            self.spans.append(span)

    def span(self, name: str, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def generator_span(self, name: str, layer: str, fn: Callable) -> Callable:
        """Trace the call and then each ``next()`` as its own segment."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, layer)
            try:
                inner = fn(*args, **kwargs)
            finally:
                self._close(span)
            return self._segments(name, layer, inner)

        return wrapper

    def _segments(self, name: str, layer: str, inner: Any) -> Any:
        iterator = iter(inner)
        try:
            while True:
                span = self._open(name, layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _open_round(self, start: float) -> None:
        span = self._open("round", "round")
        span.start = start
        self._round = span
        span.trace = span.sid
        self.counts["agents.rounds"] += 1

    def _close_round(self, end: float) -> None:
        span = self._round
        self._round = None
        self._close(span, end)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import repro.sweeps.executor  # noqa: F401  (patched by name below)
        import repro.sweeps.shards  # noqa: F401

        p = self._patches
        self.timer.on_round_open = self._open_round
        self.timer.on_round_close = self._close_round

        # Agents: spans inside the round the timer opens. The timer's
        # wrappers must sit outside these, so it is installed afterwards.
        for cls in _agent_classes():
            for name in _OPENERS + _CLOSERS:
                if name in cls.__dict__:
                    kind = "propose" if name in _OPENERS else "observe"
                    p.set(cls, name, self.span(f"agents.{kind}", f"agents.{kind}",
                                               cls.__dict__[name]))

        from repro.core.env import ArchGymEnv

        p.set(ArchGymEnv, "step", self.span("env.step", "env", ArchGymEnv.step))
        p.set(ArchGymEnv, "step_batch",
              self.span("env.step_batch", "env", ArchGymEnv.step_batch))
        p.set(ArchGymEnv, "step_batch_stream",
              self.generator_span("env.step_batch_stream", "env",
                                  ArchGymEnv.step_batch_stream))

        from repro.envs.dram import DRAMGymEnv
        from repro.envs.farsi_env import FARSIGymEnv
        from repro.envs.maestro_env import MaestroGymEnv
        from repro.envs.timeloop_env import TimeloopGymEnv

        for cls, layer in ((DRAMGymEnv, "dramsys"), (TimeloopGymEnv, "timeloop"),
                           (FARSIGymEnv, "farsi"), (MaestroGymEnv, "maestro")):
            p.set(cls, "evaluate", self._counted(
                f"{layer}.evals", self.span(f"{layer}.eval", layer, cls.evaluate)))

        from repro.core.cache_store import ServerCacheStore, SharedCacheStore

        for cls in (SharedCacheStore, ServerCacheStore):
            p.set(cls, "get", self._cache_get(cls.get))
            p.set(cls, "put", self._counted(
                "cache_store.put_calls",
                self.span("cache_store.put", "cache_store.put", cls.put)))
            p.set(cls, "list_encoded", self._counted(
                "cache_store.list_calls",
                self.span("cache_store.list", "cache_store.list", cls.list_encoded)))

        from repro.service.client import ServiceClient

        for name in ("healthz", "evaluate", "evaluate_batch", "cache_get",
                     "cache_put", "cache_size", "cache_list"):
            p.set(ServiceClient, name, self.span(
                f"service.client.{name}", "service.client",
                ServiceClient.__dict__[name]))
        p.set(ServiceClient, "__init__", self._registering(
            self.clients, ServiceClient.__init__))
        for name in ("dump_body", "parse_batch_response", "parse_metrics_response",
                     "parse_cache_listing"):
            p.replace_function("repro.service.wire", name, functools.partial(
                self.span, f"service.wire.{name}", "service.wire"))

        from repro.sweeps.hostpool import HostPool

        for name in ("evaluate", "evaluate_batch", "evaluate_batch_scatter"):
            p.set(HostPool, name, self.span(
                f"hostpool.{name}", "hostpool", HostPool.__dict__[name]))
        p.set(HostPool, "evaluate_batch_stream", self.generator_span(
            "hostpool.evaluate_batch_stream", "hostpool",
            HostPool.evaluate_batch_stream))
        p.set(HostPool, "__init__", self._registering(self.pools, HostPool.__init__))

        p.replace_function("repro.sweeps.executor", "run_trial", lambda fn: self._counted(
            "executor.trials", self.span("executor.run_trial", "executor", fn)))
        p.replace_function("repro.sweeps.shards", "write_shard", lambda fn: self._counted(
            "shards.writes", self.span("shards.write_shard", "shards", fn)))

        from repro.proxy.online import OnlineProxy

        p.set(OnlineProxy, "maybe_refit", self._refit(OnlineProxy.maybe_refit))
        p.set(OnlineProxy, "predict_batch", self.span(
            "proxy.predict_batch", "proxy.predict", OnlineProxy.predict_batch))
        p.set(OnlineProxy, "harvest", self.span(
            "proxy.harvest", "proxy.harvest", OnlineProxy.harvest))

    def uninstall(self) -> None:
        self._patches.undo()
        self.timer.on_round_open = None
        self.timer.on_round_close = None
        self._round = None
        self._local = threading.local()

    # -- wrappers that also count -------------------------------------------

    def _counted(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_get(self, fn: Callable) -> Callable:
        traced = self.span("cache_store.get", "cache_store.get", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            found = traced(*args, **kwargs)
            with self._lock:
                self.counts["cache_store.get_calls"] += 1
                self.counts["cache_store.get_hits"] += found is not None
            return found

        return wrapper

    def _refit(self, fn: Callable) -> Callable:
        traced = self.span("proxy.maybe_refit", "proxy.refit", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            refitted = traced(*args, **kwargs)
            if refitted:
                self.counts["proxy.refits"] += 1
            return refitted

        return wrapper

    @staticmethod
    def _registering(registry: List[Any], init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            registry.append(obj)

        return wrapper

    # -- reporting ----------------------------------------------------------

    def round_spans(self) -> Dict[int, List[_Span]]:
        """Finished spans grouped by trace id (one id per round)."""
        by_trace: Dict[int, List[_Span]] = defaultdict(list)
        for span in self.spans:
            if span.trace is not None:
                by_trace[span.trace].append(span)
        return by_trace

    def write_chrome(self, path: str, limit: int = 200_000) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``
        or Perfetto); at most ``limit`` spans, earliest first."""
        spans = sorted(self.spans, key=lambda s: s.start)[:limit]
        t0 = spans[0].start if spans else 0.0
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.tid,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {"span": s.sid, "parent": s.parent.sid if s.parent else None,
                         "trace": s.trace},
            }
            for s in spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def check_spans(tracer: Tracer, tolerance_s: float = 1e-6) -> List[str]:
    """Structural checks on a finished trace; returns the violations.

    * a driver-thread span lies inside its parent's interval;
    * a dispatch-thread span starts inside its round;
    * within each round, the layer self times of driver-thread spans
      add up to no more than the round's wall time.
    """
    problems: List[str] = []
    for span in tracer.spans:
        parent = span.parent
        if parent is None or not parent.end:
            continue
        if span.start < parent.start - tolerance_s:
            problems.append(f"{span.name} starts before its parent {parent.name}")
        if span.tid == tracer._driver and span.end > parent.end + tolerance_s:
            problems.append(f"{span.name} ends after its parent {parent.name}")
    for trace, spans in tracer.round_spans().items():
        root = next((s for s in spans if s.sid == trace), None)
        if root is None:
            continue
        wall = root.end - root.start
        layers = sum(s.self_s for s in spans
                     if s.tid == tracer._driver and s is not root)
        if layers > wall + tolerance_s:
            problems.append(f"round {trace}: layer self time {layers:.6f}s "
                            f"exceeds round wall time {wall:.6f}s")
    return problems


@contextlib.contextmanager
def instrument(traced: bool) -> Iterator[Tuple[RoundTimer, Optional[Tracer]]]:
    """Install the round timer, plus the tracer when ``traced``, for the
    duration of the block. Untraced runs also probe the machine's speed;
    traced runs do not, so the probe never shows up in a layer."""
    timer = RoundTimer(None if traced else SpeedProbe())
    tracer = Tracer(timer) if traced else None
    if tracer is not None:
        tracer.install()
    timer.install()
    try:
        yield timer, tracer
    finally:
        timer.uninstall()
        if tracer is not None:
            tracer.uninstall()


__all__ = ["RoundTimer", "SpeedProbe", "measure_speed", "Tracer", "check_spans", "instrument"]
