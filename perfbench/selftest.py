"""Self-test of the benchmark: every workload at smoke size.

Run from the root of a checkout (takes well under a minute)::

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that a perturbed result trips the correctness gate, and that the
traced spans nest inside their parents with the layer self times of a
round adding up to no more than the round's wall time.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import replace

import run  # noqa: F401  (puts the program on sys.path)
from bench_gate import check_trials, trial_digests
from bench_trace import check_spans
from bench_workloads import ROOT, WORKLOADS, factory, run_iteration

SMOKE_SEED = 3


def smoke_specs(workload: str) -> list:
    return [replace(spec, n_trials=1, n_samples=min(spec.n_samples, 24))
            for spec in WORKLOADS[workload]]


def check_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        specs = smoke_specs(workload)
        plain = run_iteration(workload, SMOKE_SEED, 0, specs=specs)
        traced = run_iteration(workload, SMOKE_SEED, 0, traced=True, specs=specs)
        for it in (plain, traced):
            assert it.failed == 0 and not it.errors, (workload, it.errors)
            assert it.steps == sum(len(s.agents) * s.n_trials * s.n_samples
                                   for s in specs)
        assert plain.digests == traced.digests, workload  # tracing changes nothing

        problems = check_spans(traced.tracer)
        assert not problems, (workload, problems[:3])
        rounds = traced.tracer.round_spans()
        assert len(rounds) == len(traced.rounds) > 0, workload

        emitted = {
            **{k: u for k, (_, u, _) in run.end_to_end([plain], 1.0).items()},
            **{k: u for k, (_, u) in run.per_layer([plain], [traced])[0].items()},
        }
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert emitted.get(metric["name"]) == metric["unit"], (workload, metric)
        print(f"ok  {workload}: metrics, spans ({len(traced.tracer.spans)}), parity")


def check_gate() -> None:
    spec = smoke_specs("harness-inproc")[0]
    it = run_iteration("harness-inproc", SMOKE_SEED, 0, specs=[spec])
    assert it.failed == 0, it.errors

    # A golden digest that does not match fails every trial it covers.
    wrong = [["0" * 20] * len(it.digests[0])]
    bad = run_iteration("harness-inproc", SMOKE_SEED, 0, specs=[spec], golden=wrong)
    assert bad.failed == bad.trials == len(spec.agents), bad.errors

    # A perturbed result changes its digest and fails the exact re-check.
    from repro.sweeps import run_lottery_sweep

    report = run_lottery_sweep(factory(spec), spec.agents, n_trials=1,
                               n_samples=spec.n_samples, seed=SMOKE_SEED,
                               generation_dispatch=True)
    assert check_trials(report, factory(spec), spec.n_samples) == []
    before = trial_digests(report, None)
    perturbed = copy.deepcopy(report)
    result = perturbed.results[spec.agents[1]][0]
    name = next(iter(result.best_metrics))
    result.best_metrics[name] = math.nextafter(result.best_metrics[name], math.inf)
    after = trial_digests(perturbed, None)
    assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [1]
    assert check_trials(perturbed, factory(spec), spec.n_samples) == [1]
    print("ok  gate: golden mismatch and a perturbed metric both fail")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_metrics(spec)
    assert not run.leftovers(), run.leftovers()
    print("ok  teardown: no child processes or sockets left")
    return 0


if __name__ == "__main__":
    sys.exit(main())
