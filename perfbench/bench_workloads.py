"""The benchmark's workloads and the code that runs one cold iteration.

A workload is a list of sweeps (:class:`SweepSpec`); one *iteration*
runs each sweep once through ``repro.sweeps.run_lottery_sweep`` with
envs built by ``repro.cli.RegistryEnvFactory`` (the ``repro sweep``
path). Every iteration starts cold: fresh temp ``out_dir``, fresh
envs (so a fresh LRU) and, on ``pool-remote``, two freshly spawned
``repro serve`` processes that are killed and reaped before it ends.
The workload seed only picks each sweep's ``seed`` argument.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench_gate import check_trials, trial_digests
from bench_trace import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temp out_dirs and trace files.
WORK = ROOT / ".perfbench"


@dataclass(frozen=True)
class SweepSpec:
    """One ``run_lottery_sweep`` call of an iteration."""

    env_id: str
    agents: Tuple[str, ...]
    n_trials: int
    n_samples: int
    env_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Extra ``run_lottery_sweep`` keyword arguments.
    options: Dict[str, Any] = field(default_factory=dict)
    #: Give the sweep a fresh temp ``out_dir`` (durable shards).
    durable: bool = False
    #: ``repro serve`` processes to spawn; 0 runs in-process.
    hosts: int = 0


WORKLOADS: Dict[str, List[SweepSpec]] = {
    # Kernel-bound: serial driver, cache off (the Fig. 8 method). Timeloop
    # rounds come in two modes (~1.4 and ~2.4 ms a point) whose mix depends
    # on the tickets drawn; with Timeloop at 60% of the rounds the median
    # falls inside its slow mode and p90 inside DRAM's, never between modes.
    "sim-inproc": [
        SweepSpec("DRAMGym-v0", ("ga", "aco", "rw"), 6, 8,
                  env_kwargs={"cache_size": 0}),
        SweepSpec("TimeloopGym-v0", ("ga", "aco", "rw"), 6, 12,
                  env_kwargs={"cache_size": 0}),
    ],
    # Harness-bound: cheap cost models, batched driver, every cache tier.
    # Two small sweeps ride along so that every layer is measured on a
    # workload whose figures repeat across seeds: one screens with the
    # online proxy (whose refits would otherwise swamp the harness), one
    # runs over two fresh `repro serve` hosts (the pool-remote setup,
    # which on its own swings with the machine by more than any bound).
    # The pool sweep is GA only: its rounds are whole generations, slower
    # than the 90th percentile, so their noise cannot move the quantiles.
    "harness-inproc": [
        *(SweepSpec(env_id, ("ga", "aco", "rw", "rl"), 3, 200,
                    options={"generation_dispatch": True, "shared_cache": True},
                    durable=True)
          for env_id in ("FARSIGym-v0", "MaestroGym-v0")),
        SweepSpec("FARSIGym-v0", ("aco",), 1, 100,
                  options={"proxy_screen": True, "shared_cache": True},
                  durable=True),
        SweepSpec("MaestroGym-v0", ("ga",), 1, 100,
                  options={"pipeline": True, "service_batch": True,
                           "shared_cache": True},
                  durable=True, hosts=2),
    ],
    # Transport-bound: two fresh servers, pipelined batched dispatch,
    # server-backed replicated shared cache. Not in BENCHMARK.json: with
    # three processes on two cores its rate followed the machine's slow
    # spells (IQR 34% of the median over ten seeds).
    "pool-remote": [
        SweepSpec("MaestroGym-v0", ("ga", "aco", "rw"), 6, 50,
                  options={"pipeline": True, "service_batch": True,
                           "shared_cache": True},
                  durable=True, hosts=2),
    ],
    # Surrogate-bound: online proxy screening on the env where its gate
    # opens. One agent per sweep, each with its own shared tier, so the
    # corpus sizes at which the proxy refits repeat from ticket to ticket.
    # Not in BENCHMARK.json: its round latency mixes refit rounds with
    # plain ones in ticket-dependent shares and does not repeat across
    # seeds. Run it traced to see where a screened sweep's time goes.
    "proxy-screen": [
        SweepSpec("FARSIGym-v0", (agent,), 1, 150,
                  options={"proxy_screen": True, "shared_cache": True},
                  durable=True)
        for agent in ("ga", "aco")
    ],
}


def sweep_seed(seed: int, iteration: int, position: int) -> int:
    """The ``seed`` argument of sweep ``position`` in ``iteration``."""
    return (seed * 1_000_003 + iteration * 101 + position) % (2**31 - 1)


def factory(spec: SweepSpec) -> Any:
    from repro.cli import RegistryEnvFactory

    return RegistryEnvFactory(spec.env_id, **spec.env_kwargs)


# -- servers -----------------------------------------------------------------

class Server:
    """One ``repro serve`` child process, ready once its banner is read."""

    _BANNER = re.compile(r"serving \d+ environment\(s\) at (\S+)")

    def __init__(self, env_id: str, log_dir: Path) -> None:
        self.log = open(log_dir / f"serve-{time.monotonic_ns()}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--envs", env_id, "--port", "0"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.url: Optional[str] = None

    def wait_ready(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        while self.url is None:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError(f"repro serve exited or stalled (rc={self.proc.poll()})")
            match = self._BANNER.search(line)
            if match:
                self.url = match.group(1)
        self.healthz()  # ready means answering /healthz
        return self.url

    def healthz(self) -> Dict[str, Any]:
        with urllib.request.urlopen(self.url + "/healthz", timeout=10) as resp:
            return json.loads(resp.read())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()


#: ``/healthz`` counters a fresh server accumulates over one sweep.
_SERVER_COUNTERS = ("evaluations", "busy_s", "memo_hits", "batch_requests")


def spawn_servers(env_id: str, n: int, log_dir: Path) -> List[Server]:
    servers = [Server(env_id, log_dir) for _ in range(n)]
    try:
        for server in servers:
            server.wait_ready()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers


# -- one iteration -----------------------------------------------------------

@dataclass
class Iteration:
    """What one cold iteration measured."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    #: Machine speed while the sweeps ran (see ``SpeedProbe.factor``).
    speed: float = 1.0
    steps: int = 0
    rounds: List[float] = field(default_factory=list)
    trials: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digests: List[List[str]] = field(default_factory=list)  # per sweep
    server_rss_mb: float = 0.0
    server: Dict[str, float] = field(default_factory=dict)
    results: List[Any] = field(default_factory=list)  # SearchResult per trial
    tracer: Optional[Tracer] = None


def _sweep(spec: SweepSpec, seed: int, out_dir: Optional[Path],
           urls: Optional[List[str]]) -> Any:
    from repro.sweeps import run_lottery_sweep

    options = dict(spec.options)
    if urls is None:
        options.pop("service_batch", None)  # a server-side memo knob
    return run_lottery_sweep(
        factory(spec), spec.agents, n_trials=spec.n_trials,
        n_samples=spec.n_samples, seed=seed, workers=1,
        out_dir=str(out_dir) if out_dir is not None else None,
        service_url=urls, **options,
    )


def run_iteration(workload: str, seed: int, index: int, traced: bool = False,
                  golden: Optional[List[List[str]]] = None,
                  specs: Optional[List[SweepSpec]] = None) -> Iteration:
    """Run every sweep of ``workload`` once, cold, and check it."""
    from repro.sweeps.executor import clear_backend_cache

    specs = specs if specs is not None else WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    it = Iteration(digests=[[] for _ in specs])
    done: List[Tuple[int, SweepSpec, int, Optional[Path], Any]] = []
    begin = time.perf_counter()
    try:
        with instrument(traced) as (timer, tracer):
            it.tracer = tracer
            for position, spec in enumerate(specs):
                seed_j = sweep_seed(seed, index, position)
                n_trials = len(spec.agents) * spec.n_trials
                it.trials += n_trials
                out_dir = tmp / f"sweep-{position}" if spec.durable else None
                servers: List[Server] = []
                try:
                    servers = spawn_servers(spec.env_id, spec.hosts, tmp)
                    urls = [s.url for s in servers] or None
                    start = time.perf_counter()
                    report = _sweep(spec, seed_j, out_dir, urls)
                    end = time.perf_counter()
                    if position == 0:
                        if timer.first_proposal is None:
                            raise RuntimeError("the sweep made no proposal")
                        it.setup_s = timer.first_proposal - begin
                        start = timer.first_proposal
                    it.timed_s += end - start
                    for server in servers:
                        health = server.healthz()
                        for key in _SERVER_COUNTERS:
                            it.server[key] = it.server.get(key, 0) + health[key]
                    it.server_rss_mb += sum(s.peak_rss_mb() for s in servers)
                except Exception as exc:  # a failed sweep fails its trials
                    it.failed += n_trials
                    it.errors.append(f"{spec.env_id}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    for server in servers:
                        server.stop()
                    clear_backend_cache()
                done.append((position, spec, seed_j, out_dir, report))
        it.rounds = list(timer.rounds)
        if timer.speed is not None:
            it.timed_s -= timer.speed.spent_s
            it.speed = timer.speed.factor()
        for position, spec, seed_j, out_dir, report in done:
            _check(it, position, spec, seed_j, out_dir, report, golden, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return it


def _check(it: Iteration, position: int, spec: SweepSpec, seed: int,
           out_dir: Optional[Path], report: Any,
           golden: Optional[List[List[str]]], tmp: Path) -> None:
    """Correctness gate for one finished sweep; wrong trials count as failed."""
    results = [r for rs in report.results.values() for r in rs]
    it.results.extend(results)
    it.steps += sum(len(r.reward_history) for r in results)
    digests = trial_digests(report, out_dir)
    it.digests[position] = digests
    wrong = set(check_trials(report, factory(spec), spec.n_samples))
    if golden is not None and position < len(golden):
        expected = golden[position]
        if len(digests) != len(expected):
            wrong |= set(range(len(digests)))
        wrong |= {i for i, (a, b) in enumerate(zip(digests, expected)) if a != b}
    if spec.hosts:
        # The byte-parity oracle: the same sweep, in-process.
        local_dir = tmp / f"oracle-{position}" if spec.durable else None
        try:
            local = trial_digests(
                _sweep(replace(spec, hosts=0), seed, local_dir, None), local_dir)
        except Exception as exc:  # no oracle: no trial can be vouched for
            it.errors.append(f"{spec.env_id} oracle: {type(exc).__name__}: {exc}")
            local = []
        wrong |= {i for i in range(len(digests))
                  if i >= len(local) or digests[i] != local[i]}
    if wrong:
        it.failed += len(wrong)
        it.errors.append(f"{spec.env_id}: trials {sorted(wrong)} wrong")


__all__ = ["Iteration", "ROOT", "SweepSpec", "WORK", "WORKLOADS",
           "run_iteration", "spawn_servers", "sweep_seed"]
