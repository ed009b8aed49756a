"""Correctness gate: trial digests, golden files and exact re-checks.

The cost models are deterministic and metrics round-trip JSON exactly,
so every comparison here is exact. Before hashing, the fields that
legitimately depend on how a trial ran are zeroed — the same four the
repository's parity suites zero: ``wall_time_s``, ``sim_time_s``,
``remote_evals`` and ``remote_hosts``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_EXECUTION_FIELDS = {"wall_time_s": 0.0, "sim_time_s": 0.0,
                     "remote_evals": 0, "remote_hosts": {}}


def normalized_record(result: Any) -> Dict[str, Any]:
    """A trial's ``SearchResult`` record with execution fields zeroed."""
    record = result.to_record()
    record.update(_EXECUTION_FIELDS)
    return record


def normalized_shard(path: Path) -> bytes:
    """A shard file's canonical bytes with execution fields zeroed."""
    record = json.loads(path.read_text())
    record["result"].update(_EXECUTION_FIELDS)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def trial_digests(report: Any, out_dir: Optional[Path]) -> List[str]:
    """One digest per trial, in the report's (agent, trial) order: the
    normalized result record plus, for a durable sweep, its shard row."""
    shards = sorted(out_dir.glob("trial-*.json")) if out_dir is not None else []
    shard_rows = {json.loads(p.read_text())["index"]: p for p in shards}
    digests = []
    index = 0
    for agent in report.results:  # insertion order == task order
        for result in report.results[agent]:
            data = json.dumps(normalized_record(result), sort_keys=True).encode()
            if out_dir is not None:
                data += normalized_shard(shard_rows[index])
            digests.append(_sha(data))
            index += 1
    return digests


def check_trials(report: Any, env_factory: Any, n_samples: int) -> List[int]:
    """Exact checks every trial must pass at any seed; returns the
    positions of the trials that fail.

    * the trial spent exactly its sample budget;
    * its best-fitness history is monotone and ends at its best fitness;
    * re-simulating its best design point in-process, with no cache,
      reproduces the reported metrics and reward bit for bit.
    """
    env = env_factory()
    env.disable_cache()
    higher = env.reward_spec.higher_is_better
    bad = []
    try:
        position = 0
        for agent in report.results:
            for result in report.results[agent]:
                history = result.best_fitness_history
                metrics = {k: float(v) for k, v in env.evaluate(result.best_action).items()}
                reward = float(env.reward_spec.compute(metrics))
                ok = (
                    len(result.reward_history) == n_samples
                    and len(history) == n_samples
                    and all(a <= b for a, b in zip(history, history[1:]))
                    and history[-1] == result.best_fitness
                    and result.best_fitness == (reward if higher else -reward)
                    and {k: metrics[k] for k in result.best_metrics} == result.best_metrics
                )
                if not ok:
                    bad.append(position)
                position += 1
    finally:
        env.close()
    return bad


def load_golden() -> Dict[str, Any]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


__all__ = ["GOLDEN_PATH", "check_trials", "load_golden", "normalized_record",
           "normalized_shard", "trial_digests"]
