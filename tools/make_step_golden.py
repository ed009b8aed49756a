#!/usr/bin/env python
"""Generate the environment step-path golden corpus.

The corpus (``tests/data/step_golden.json``) pins everything one gym
step produces, for a seeded action stream driven through the serial
``ArchGymEnv.step`` loop (auto-reset between episodes, exactly like
``run_agent``'s serial driver):

- per step: the observation, reward, ``terminated``/``truncated`` flags
  and the full ``info`` dict;
- at the end: every ``EnvStats`` counter (wall-clock ``total_sim_time``
  aside), the local LRU's keys in recency order, the number of real
  cost-model runs, the shared store's size, and the dataset JSONL bytes.

Scenarios cover the cache configurations the step path branches on:
LRU off; a 3-entry LRU with evictions and in-batch duplicates; a file
``SharedCacheStore`` with and without the LRU (pre-populated by an
earlier "process"); ``terminate_on_target`` with episodes ending
mid-generation; numpy-scalar actions; and an in-process backend that
answers batches out of order and attributes points to hosts.

The cost model is a toy defined here, so the corpus pins the step
bookkeeping only, independent of any simulator kernel. Floats are
stored with ``float.hex``. ``--check`` replays the corpus through all
three step entry points -- ``step``, ``step_batch`` in generation-sized
chunks, and a drained ``step_batch_stream`` -- and requires each to
reproduce it. Regenerate only for a deliberate, reviewed change of the
step semantics::

    python tools/make_step_golden.py          # rewrite
    python tools/make_step_golden.py --check  # compare
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.cache_store import SharedCacheStore  # noqa: E402
from repro.core.dataset import ArchGymDataset  # noqa: E402
from repro.core.env import ArchGymEnv, canonical_action_key  # noqa: E402
from repro.core.rewards import TargetReward  # noqa: E402
from repro.core.spaces import (  # noqa: E402
    Categorical,
    CompositeSpace,
    Continuous,
    Discrete,
)

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "step_golden.json"
MODES = ("step", "step_batch", "step_batch_stream")

#: One entry per scenario. ``pool`` distinct design points are drawn
#: first and the ``n_steps`` actions sampled from them, so small pools
#: make duplicates (and, with a small LRU, evictions) common.
#: ``prefill`` pool points are put into the shared store before the run.
SCENARIOS: List[Dict[str, Any]] = [
    {"name": "lru-off", "seed": 1, "pool": 6, "n_steps": 40,
     "generation": 5, "cache_size": 0, "shared": False, "prefill": 0,
     "episode_length": 10_000, "terminate_on_target": False,
     "numpy": False, "backend": False},
    {"name": "lru-3-evicting", "seed": 2, "pool": 7, "n_steps": 60,
     "generation": 6, "cache_size": 3, "shared": False, "prefill": 0,
     "episode_length": 10_000, "terminate_on_target": False,
     "numpy": False, "backend": False},
    {"name": "shared-file", "seed": 3, "pool": 8, "n_steps": 50,
     "generation": 5, "cache_size": 0, "shared": True, "prefill": 3,
     "episode_length": 10_000, "terminate_on_target": False,
     "numpy": False, "backend": False},
    {"name": "shared-file-lru-2", "seed": 4, "pool": 9, "n_steps": 60,
     "generation": 7, "cache_size": 2, "shared": True, "prefill": 3,
     "episode_length": 10_000, "terminate_on_target": False,
     "numpy": False, "backend": False},
    {"name": "terminate-on-target", "seed": 15, "pool": 8, "n_steps": 50,
     "generation": 6, "cache_size": 8, "shared": False, "prefill": 0,
     "episode_length": 4, "terminate_on_target": True,
     "numpy": False, "backend": False},
    {"name": "numpy-actions", "seed": 6, "pool": 6, "n_steps": 40,
     "generation": 5, "cache_size": 16, "shared": False, "prefill": 0,
     "episode_length": 7, "terminate_on_target": False,
     "numpy": True, "backend": False},
    {"name": "backend-lru-3", "seed": 7, "pool": 7, "n_steps": 48,
     "generation": 6, "cache_size": 3, "shared": False, "prefill": 0,
     "episode_length": 10_000, "terminate_on_target": False,
     "numpy": False, "backend": True},
]


class StepGoldenEnv(ArchGymEnv):
    """A cheap deterministic cost model with awkward float outputs."""

    env_id = "StepGolden-v0"

    def __init__(self, episode_length: int, terminate_on_target: bool) -> None:
        super().__init__(
            action_space=CompositeSpace([
                Discrete("x", 0, 7, 1),
                Categorical("m", ("a", "b", "c")),
                Continuous("v", 0.0, 1.0),
            ]),
            observation_metrics=["latency", "power"],
            reward_spec=TargetReward("latency", target=1.5, tolerance=0.3),
            episode_length=episode_length,
            terminate_on_target=terminate_on_target,
        )
        self.evaluations = 0

    def evaluate(self, action: Mapping[str, Any]) -> Dict[str, float]:
        self.evaluations += 1
        scale = {"a": 0.1, "b": 0.2, "c": 0.3}[str(action["m"])]
        x, v = int(action["x"]), float(action["v"])
        return {
            "latency": (x + 1) * scale + v / 3.0,
            "power": 0.1 + 0.2 * x + v * v,
            # Not observed, and a numpy scalar: a miss's ``info`` keeps
            # the raw value, a cache hit serves the float-cleaned copy.
            "area": np.float64(x) / 7.0 + scale,
        }


class EchoBackend:
    """In-process backend speaking all three dispatch hooks.

    Hosts are a function of the design point, so per-host attribution
    is the same whichever hook answered it; the stream hook delivers
    one-point chunks in reverse order to force out-of-order replay.
    """

    def __init__(self, env: StepGoldenEnv) -> None:
        self.env = env
        self.last_host: Optional[str] = None
        self.last_hosts: Optional[List[str]] = None

    @staticmethod
    def host_of(action: Mapping[str, Any]) -> str:
        return f"http://h{int(action['x']) % 2}"

    def evaluate(self, env_id: str, action: Mapping[str, Any]) -> Dict[str, float]:
        self.last_host = self.host_of(action)
        return self.env.evaluate(action)

    def evaluate_batch(
        self, env_id: str, actions: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, float]]:
        self.last_hosts = [self.host_of(a) for a in actions]
        return [self.env.evaluate(a) for a in actions]

    def evaluate_batch_stream(
        self, env_id: str, actions: Sequence[Mapping[str, Any]]
    ) -> Iterator[Any]:
        for index in reversed(range(len(actions))):
            action = actions[index]
            yield index, [self.env.evaluate(action)], self.host_of(action)


# -- encoding ---------------------------------------------------------------------


def encode(value: Any) -> Any:
    """JSON-safe, bit-exact encoding: floats become ``float.hex`` and
    numpy scalars keep their dtype name."""
    if isinstance(value, np.generic):
        return {"np": type(value).__name__, "value": encode(value.item())}
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, int):
        return value
    if isinstance(value, np.ndarray):
        return [encode(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _numpy_default(value: Any) -> Any:
    if isinstance(value, np.generic):
        return {"np": type(value).__name__, "value": value.item()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dataset_jsonl(dataset: ArchGymDataset) -> str:
    """``ArchGymDataset.save_jsonl``'s bytes. Numpy scalars, which
    ``save_jsonl`` cannot serialize, are tagged with their dtype, so the
    corpus also pins that a row keeps the agent's raw action values."""
    lines = [json.dumps({"env_id": dataset.env_id, "format": "archgym-jsonl-v1"})]
    lines += [json.dumps(t.to_record(), default=_numpy_default) for t in dataset]
    return "\n".join(lines) + "\n"


# -- scenario inputs --------------------------------------------------------------


def scenario_actions(spec: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The seeded action stream of one scenario."""
    rng = np.random.default_rng(spec["seed"])
    space = StepGoldenEnv(1, False).action_space
    pool = [space.sample(rng) for _ in range(spec["pool"])]
    actions = []
    for i in range(spec["n_steps"]):
        action = dict(pool[int(rng.integers(len(pool)))])
        if spec["numpy"] and i % 2:
            action = {
                "x": np.int64(action["x"]),
                "m": np.str_(action["m"]),
                "v": np.float64(action["v"]),
            }
        actions.append(action)
    return actions


def build_env(spec: Mapping[str, Any], directory: pathlib.Path) -> StepGoldenEnv:
    """A fresh, reset environment configured for ``spec``."""
    env = StepGoldenEnv(spec["episode_length"], spec["terminate_on_target"])
    env.enable_cache(spec["cache_size"])
    if spec["shared"]:
        store = SharedCacheStore(directory / "shared-cache")
        rng = np.random.default_rng(spec["seed"])
        prior = StepGoldenEnv(1, False)
        for _ in range(spec["prefill"]):
            action = prior.action_space.sample(rng)
            metrics = {k: float(v) for k, v in prior.evaluate(action).items()}
            store.put(canonical_action_key(action), metrics)
        env.attach_shared_cache(store)
    if spec["backend"]:
        env.attach_backend(EchoBackend(env))
    env.attach_dataset(ArchGymDataset(env.env_id), source=f"golden[{spec['name']}]")
    env.reset(seed=spec["seed"])
    return env


# -- driving ----------------------------------------------------------------------


def drive(env: ArchGymEnv, actions: List[Dict[str, Any]], mode: str,
          generation: int) -> List[Any]:
    """Run ``actions`` through one step entry point, resetting after an
    episode end the way ``run_agent`` does."""
    if mode == "step":
        results = []
        for action in actions:
            result = env.step(action)
            results.append(result)
            if result[2] or result[3]:
                env.reset()
        return results
    results = []
    for start in range(0, len(actions), generation):
        chunk = actions[start:start + generation]
        if mode == "step_batch":
            got = env.step_batch(chunk)
        elif mode == "step_batch_stream":
            got = list(env.step_batch_stream(chunk))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        results.extend(got)
        if got[-1][2] or got[-1][3]:
            env.reset()
    return results


def run_scenario(spec: Mapping[str, Any], mode: str = "step") -> Dict[str, Any]:
    """Every output of one scenario driven through ``mode``."""
    with tempfile.TemporaryDirectory() as tmp:
        env = build_env(spec, pathlib.Path(tmp))
        results = drive(env, scenario_actions(spec), mode, spec["generation"])
        stats = {
            name: value for name, value in sorted(vars(env.stats).items())
            if name != "total_sim_time"
        }
        final = {
            "stats": stats,
            "cache_info": env.cache_info(),
            "lru": [] if env._eval_cache is None else list(env._eval_cache),
            "evaluations": env.evaluations,
            "steps_in_episode": env._steps_in_episode,
            "shared_size": 0 if env.shared_cache is None else len(env.shared_cache),
        }
        return {
            "steps": [
                {"observation": obs, "reward": reward, "terminated": term,
                 "truncated": trunc, "info": info}
                for obs, reward, term, trunc, info in encode(results)
            ],
            "final": encode(final),
            "dataset_jsonl": dataset_jsonl(env.dataset),
        }


def build_corpus(mode: str = "step") -> Dict[str, Any]:
    """Evaluate every scenario through ``mode``."""
    return {
        "scenarios": [
            {"spec": spec, **run_scenario(spec, mode)} for spec in SCENARIOS
        ]
    }


def dumps(corpus: Dict[str, Any]) -> str:
    """One step per line: compact, yet diffs point at the changed step."""
    blocks = []
    for scenario in corpus["scenarios"]:
        steps = ",\n".join(json.dumps(s, sort_keys=True) for s in scenario["steps"])
        head = {k: v for k, v in scenario.items() if k != "steps"}
        body = json.dumps(head, sort_keys=True)[:-1]
        blocks.append(f'{body}, "steps": [\n{steps}\n]}}')
    return '{"scenarios": [\n' + ",\n".join(blocks) + "\n]}\n"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="replay through every step entry point and compare against "
             "the committed corpus instead of rewriting it",
    )
    args = parser.parse_args(argv)
    if args.check:
        stored = json.loads(GOLDEN_PATH.read_text())
        failed = [mode for mode in MODES if build_corpus(mode) != stored]
        if failed:
            print(f"MISMATCH: {', '.join(failed)} no longer reproduce {GOLDEN_PATH}")
            return 1
        n_steps = sum(len(s["steps"]) for s in stored["scenarios"])
        print(f"OK: {len(stored['scenarios'])} scenarios, {n_steps} steps match "
              f"through {', '.join(MODES)}")
        return 0
    corpus = build_corpus()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(dumps(corpus))
    n_steps = sum(len(s["steps"]) for s in corpus["scenarios"])
    print(f"wrote {GOLDEN_PATH}: {len(corpus['scenarios'])} scenarios, {n_steps} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
