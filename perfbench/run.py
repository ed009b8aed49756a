"""ArchGym reproduction benchmark: named sweep workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload harness-inproc --seed 1 --seconds 10 --trace 0

Each run repeats cold iterations of the workload (see
``bench_workloads.WORKLOADS``) until ``--seconds`` of sweep time have
been measured, checks every trial, and prints one JSON object as its
last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. README.md next to this file
defines every metric.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: What ``import`` costs a fresh ``repro sweep`` process: the CLI module
#: pulls in every env, agent and the sweep machinery.
_IMPORT = "import repro.cli, repro.sweeps"

try:
    import repro.cli  # noqa: E402,F401
    import repro.sweeps  # noqa: E402,F401
except ImportError as exc:
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)

_IMPORT_S = time.perf_counter() - _T0

from bench_gate import load_golden  # noqa: E402
from bench_trace import SpeedProbe, measure_speed  # noqa: E402
from bench_workloads import WORK, WORKLOADS, Iteration, run_iteration  # noqa: E402

DEFAULT_SEED = 0
#: Extra fresh-interpreter import timings per run (the run's own import
#: is one more sample).
IMPORT_PROBES = 2


def import_probe_s() -> float:
    """Import time of the program in a fresh interpreter, scaled to the
    reference speed the interpreter measured around it."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        "from bench_trace import measure_speed; before = measure_speed(); "
        f"t = time.perf_counter(); {_IMPORT}; t = time.perf_counter() - t; "
        "print(t, sum(before + measure_speed()) / 40)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(Path(__file__).parent)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    import_s, kernel_s = map(float, out.stdout.split())
    return import_s * SpeedProbe.NOMINAL_S / kernel_s


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _sockets() -> Dict[str, str]:
    found = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            found[fd] = target
    return found


#: Sockets inherited from the caller (stdin may be one); not ours to close.
_INHERITED = _sockets()


def leftovers() -> List[str]:
    """Child processes and sockets this process opened and still holds."""
    gc.collect()
    found = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                found += [f"child process {pid}" for pid in fh.read().split()]
        except OSError:
            pass
    found += [f"open socket fd {fd}" for fd, target in _sockets().items()
              if _INHERITED.get(fd) != target]
    return found


def measure(workload: str, seed: int, seconds: float, traced: bool,
            golden: Optional[List[List[List[str]]]]) -> Dict[str, Any]:
    """Run iterations until ``seconds`` of sweep time are measured.

    A traced run pairs every traced iteration with an untraced one of
    the same sweeps, so the tracing overhead is measured on equal work.
    """
    plain: List[Iteration] = []
    traced_its: List[Iteration] = []
    index = 0
    while True:
        gold = golden[index] if golden is not None and index < len(golden) else None
        plain.append(run_iteration(workload, seed, index, golden=gold))
        if traced:
            traced_its.append(run_iteration(workload, seed, index, traced=True,
                                            golden=gold))
        index += 1
        spent = sum(it.timed_s for it in plain + traced_its)
        if spent >= seconds or all(it.timed_s == 0 for it in plain):
            return {"plain": plain, "traced": traced_its}


def end_to_end(plain: List[Iteration], import_s: float) -> Dict[str, Any]:
    """The end-to-end metrics, ``{name: (value, unit, samples)}``.

    Every time is scaled to the reference machine speed measured while
    its iteration ran (see ``bench_trace.SpeedProbe``), so a slow spell
    of the machine does not read as a slow program. Rates and round
    quantiles pool all iterations of the run, which averages over more
    hyperparameter tickets than any one iteration holds. ``import_s``
    comes already scaled.
    """
    timed = [it for it in plain if it.timed_s > 0 and it.rounds]
    rounds_ms = [r * 1000.0 / it.speed for it in timed for r in it.rounds]
    steps = sum(it.steps for it in timed)
    seconds = sum(it.timed_s / it.speed for it in timed)

    def quantile_ms(q: float) -> float:
        return quantile(rounds_ms, q) if rounds_ms else 0.0

    setups = [it.setup_s / it.speed for it in plain]
    driver_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "steps_per_s": (steps / seconds if seconds else 0.0, "1/s", steps),
        "round_p50_ms": (quantile_ms(0.5), "ms", len(rounds_ms)),
        "round_p90_ms": (quantile_ms(0.9), "ms", len(rounds_ms)),
        "setup_s": (import_s + statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (driver_mb + max(it.server_rss_mb for it in plain), "MB",
                        len(plain)),
    }


def per_layer(plain: List[Iteration],
              traced: List[Iteration]) -> Tuple[Dict[str, Any], List[str]]:
    """The per-layer metrics ``{name: (value, unit)}`` of the traced
    iterations, and any violations of the span structure."""
    from bench_trace import check_spans

    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    server: Dict[str, float] = {}
    results = []
    problems: List[str] = []
    spans = 0
    skew_evals: Dict[int, int] = {}  # host position -> evaluations
    hostpool = {"units": 0, "steals": 0, "duplicates": 0, "quarantined": 0}
    requests = connections = 0
    for it in traced:
        tracer = it.tracer
        for layer, value in tracer.layer_self_s.items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        for name, value in tracer.counts.items():
            counts[name] = counts.get(name, 0) + value
        for name, value in it.server.items():
            server[name] = server.get(name, 0) + value
        results += it.results
        spans += len(tracer.spans)
        problems += check_spans(tracer)
        for pool in tracer.pools:
            hostpool["units"] += pool.stream_units
            hostpool["steals"] += pool.stream_steals
            hostpool["duplicates"] += pool.stream_duplicates
            hostpool["quarantined"] += len(pool.quarantined_urls)
            for position, n in enumerate(pool.evals_by_host.values()):
                skew_evals[position] = skew_evals.get(position, 0) + n
        for client in tracer.clients:
            requests += client.requests_sent
            connections += client.connections_opened

    def ms(layer: str) -> float:
        return self_s.get(layer, 0.0) * 1000.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lru_hits = sum(r.cache_hits for r in results)
    lru_lookups = lru_hits + sum(r.cache_misses + r.shared_cache_hits for r in results)
    screened = sum(r.proxy_screened for r in results)
    accepted = sum(r.proxy_accepted for r in results)
    host_evals = list(skew_evals.values())
    plain_rate = ratio(sum(it.steps for it in plain), sum(it.timed_s for it in plain))
    traced_rate = ratio(sum(it.steps for it in traced), sum(it.timed_s for it in traced))
    n = lambda name: counts.get(name, 0)  # noqa: E731
    metrics = {
        "agents.propose_ms": (ms("agents.propose"), "ms"),
        "agents.observe_ms": (ms("agents.observe"), "ms"),
        "agents.rounds": (n("agents.rounds"), "count"),
        "env.self_ms": (ms("env"), "ms"),
        "env.steps": (sum(it.steps for it in traced), "count"),
        "env.lru_lookups": (lru_lookups, "count"),
        "env.lru_hit_ratio": (ratio(lru_hits, lru_lookups), "ratio"),
        "cache_store.get_ms": (ms("cache_store.get"), "ms"),
        "cache_store.get_calls": (n("cache_store.get_calls"), "count"),
        "cache_store.put_ms": (ms("cache_store.put"), "ms"),
        "cache_store.put_calls": (n("cache_store.put_calls"), "count"),
        "cache_store.list_ms": (ms("cache_store.list"), "ms"),
        "cache_store.list_calls": (n("cache_store.list_calls"), "count"),
        "cache_store.shared_hit_ratio": (
            ratio(n("cache_store.get_hits"), n("cache_store.get_calls")), "ratio"),
    }
    for model in ("dramsys", "timeloop", "farsi", "maestro"):
        metrics[f"{model}.eval_ms"] = (ms(model), "ms")
        metrics[f"{model}.evals"] = (n(f"{model}.evals"), "count")
    metrics.update({
        "service.client.rtt_ms": (ms("service.client"), "ms"),
        "service.client.requests": (requests, "count"),
        "service.client.connections": (connections, "count"),
        "service.wire.codec_ms": (ms("service.wire"), "ms"),
        "service.server.evals": (server.get("evaluations", 0), "count"),
        "service.server.busy_ms": (server.get("busy_s", 0.0) * 1000.0, "ms"),
        "service.server.memo_hits": (server.get("memo_hits", 0), "count"),
        "service.server.batch_requests": (server.get("batch_requests", 0), "count"),
        "hostpool.dispatch_ms": (ms("hostpool"), "ms"),
        "hostpool.units": (hostpool["units"], "count"),
        "hostpool.steals": (hostpool["steals"], "count"),
        "hostpool.duplicates": (hostpool["duplicates"], "count"),
        "hostpool.quarantined": (hostpool["quarantined"], "count"),
        "hostpool.host_skew": (
            ratio(max(host_evals), statistics.mean(host_evals)) if host_evals else 0.0,
            "ratio"),
        "executor.trial_ms": (ms("executor"), "ms"),
        "executor.trials": (n("executor.trials"), "count"),
        "shards.write_ms": (ms("shards"), "ms"),
        "shards.writes": (n("shards.writes"), "count"),
        "proxy.refit_ms": (ms("proxy.refit"), "ms"),
        "proxy.refits": (n("proxy.refits"), "count"),
        "proxy.predict_ms": (ms("proxy.predict"), "ms"),
        "proxy.harvest_ms": (ms("proxy.harvest"), "ms"),
        "proxy.screened": (screened, "count"),
        "proxy.accepted": (accepted, "count"),
        "proxy.accept_ratio": (ratio(accepted, screened), "ratio"),
        "driver.idle_ms": (ms("round"), "ms"),
        "trace.round_ms": (sum(r for it in traced for r in it.rounds) * 1000.0, "ms"),
        "trace.spans": (spans, "count"),
        "trace.steps_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": (
            100.0 * (1.0 - traced_rate / plain_rate) if plain_rate else 0.0, "%"),
    })
    return metrics, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = load_golden().get(args.workload) if args.seed == DEFAULT_SEED else None
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    its: List[Iteration] = runs["plain"] + runs["traced"]
    attempted = sum(it.trials for it in its)
    failed = sum(it.failed for it in its)
    errors = [e for it in its for e in it.errors]

    if args.trace:
        metrics, problems = per_layer(runs["plain"], runs["traced"])
        errors += [f"trace structure: {p}" for p in problems[:5]]
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        runs["traced"][-1].tracer.write_chrome(str(trace_path))
        print(f"chrome trace of the last traced iteration: {trace_path}")
        samples: Dict[str, Any] = {}
    else:
        kernel_s = statistics.mean(measure_speed(40))
        imports = [_IMPORT_S * SpeedProbe.NOMINAL_S / kernel_s]
        imports += [import_probe_s() for _ in range(IMPORT_PROBES)]
        measured = end_to_end(runs["plain"], statistics.median(imports))
        metrics = {k: (v, unit) for k, (v, unit, _) in measured.items()}
        samples = {k: n for k, (_, _, n) in measured.items()}
        speeds = [round(it.speed, 3) for it in runs["plain"]]
        print(f"machine speed factor per iteration (1.0 = reference): {speeds}")
    for it in its:
        it.tracer = None  # drop the spans before the leak check
    errors += leftovers()

    for name, (value, unit) in metrics.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:32s} {value:14.4f} {unit}{extra}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
