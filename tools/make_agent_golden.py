#!/usr/bin/env python
"""Generate the search-agent golden corpus.

The corpus (``tests/data/agent_golden.json``) pins what every search
agent does for a fixed seed: each agent drives ``N`` proposals through
the serial ``propose``/``observe`` loop against a deterministic toy
fitness, and the corpus records

- every proposed design point, in order;
- at the end: the agent's generator state (so a change that consumes
  the RNG stream differently fails even when the proposals happen to
  agree) and its learned state -- ACO's pheromone trails, RL's policy
  weights and Adam step, the GA/GAMMA population, the random walker's
  incumbent, the BO surrogate's size.

Scenarios cover ga, aco (greediness 0, 0.1 and 1), rw, rl (reinforce
and ppo), bo and gamma, each on two spaces: a mixed space (integer,
categorical, discretized continuous and a one-value parameter) and a
mapping-style space whose ``LoopOrder`` parameter GAMMA reorders.
Floats are stored with ``float.hex``. ``--check`` replays the corpus
through the serial loop *and* through the generation-native
``propose_batch``/``observe_batch`` loop (generations truncated by the
sample budget, as ``run_agent`` does) and requires both to reproduce
it. Regenerate only for a deliberate, reviewed change of an agent::

    python tools/make_agent_golden.py          # rewrite
    python tools/make_agent_golden.py --check  # compare
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
from typing import Any, Dict, List, Mapping

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.agents import (  # noqa: E402
    ACOAgent,
    Agent,
    BOAgent,
    GAAgent,
    GammaAgent,
    RandomWalkerAgent,
    RLAgent,
    make_agent,
)
from repro.core.spaces import (  # noqa: E402
    Categorical,
    CompositeSpace,
    Continuous,
    Discrete,
)

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "agent_golden.json"
MODES = ("serial", "batched")

SPACES: Dict[str, CompositeSpace] = {
    "mixed": CompositeSpace([
        Discrete("x", 0, 7, 1),
        Categorical("m", ("a", "b", "c")),
        Continuous("v", 0.0, 1.0, resolution=8),
        Categorical("fixed", ("only",)),
    ]),
    "mapping": CompositeSpace([
        Categorical("LoopOrder", ("KCX", "KXC", "CKX", "CXK", "XKC", "XCK")),
        Discrete.pow2("tile", 1, 64),
        Discrete("pe", 1, 32, 1),
    ]),
}

#: ``(name, agent, hyperparameters, samples)``; every one runs on every
#: space with the same seed.
AGENTS: List[Dict[str, Any]] = [
    {"name": "ga", "agent": "ga", "samples": 48,
     "hyperparams": {"population_size": 8, "mutation_rate": 0.25}},
    {"name": "aco-greedy-0", "agent": "aco", "samples": 48,
     "hyperparams": {"n_ants": 6, "greediness": 0.0}},
    {"name": "aco-greedy-0.1", "agent": "aco", "samples": 48,
     "hyperparams": {"n_ants": 6, "greediness": 0.1, "alpha": 2.0,
                     "evaporation_rate": 0.3}},
    {"name": "aco-greedy-1", "agent": "aco", "samples": 48,
     "hyperparams": {"n_ants": 6, "greediness": 1.0}},
    {"name": "rw", "agent": "rw", "samples": 48,
     "hyperparams": {"locality": 0.5}},
    {"name": "rl-reinforce", "agent": "rl", "samples": 64,
     "hyperparams": {"algo": "reinforce", "batch_size": 8, "hidden_size": 8}},
    {"name": "rl-ppo", "agent": "rl", "samples": 64,
     "hyperparams": {"algo": "ppo", "batch_size": 8, "hidden_size": 8,
                     "ppo_epochs": 3, "entropy_coef": 0.05}},
    {"name": "bo", "agent": "bo", "samples": 30,
     "hyperparams": {"n_init": 5, "candidate_pool": 32,
                     "max_observations": 20}},
    {"name": "gamma", "agent": "gamma", "samples": 48,
     "hyperparams": {"population_size": 8, "max_age": 2}},
]

SCENARIOS: List[Dict[str, Any]] = [
    {**spec, "space": space, "seed": 7 + i}
    for i, (space, spec) in enumerate(itertools.product(SPACES, AGENTS))
]


# -- encoding ---------------------------------------------------------------------


def encode(value: Any) -> Any:
    """JSON-safe, bit-exact encoding: floats become ``float.hex``."""
    if isinstance(value, np.generic):
        return encode(value.item())
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, int):
        return value
    if isinstance(value, np.ndarray):
        return encode(value.tolist())
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


# -- the toy problem ----------------------------------------------------------------


def fitness(space: CompositeSpace, action: Mapping[str, Any]) -> float:
    """A smooth bowl with a ripple: deterministic, tie-free in practice."""
    u = space.to_unit_vector(action)
    weights = np.arange(1, len(u) + 1) / len(u)
    return float(-np.sum(weights * (u - 0.37) ** 2) + 0.05 * np.sin(11.0 * u.sum()))


def agent_state(agent: Agent) -> Dict[str, Any]:
    """Everything the run leaves behind that later proposals depend on."""
    state: Dict[str, Any] = {"rng": agent.rng.bit_generator.state}
    if isinstance(agent, ACOAgent):
        state["trails"] = agent._trails
        state["cohort"] = len(agent._cohort)
    elif isinstance(agent, RLAgent):
        state["params"] = agent.net.params
        state["updates"] = agent.updates
        state["adam_t"] = agent.opt.t
        state["batch"] = len(agent._batch)
    elif isinstance(agent, GAAgent):  # GAMMA too
        state["genomes"] = agent._genomes
        state["fitness"] = agent._fitness
        state["generation"] = agent.generation
        if isinstance(agent, GammaAgent):
            state["ages"] = agent._ages
    elif isinstance(agent, RandomWalkerAgent):
        state["best_action"] = agent._best_action
        state["best_fitness"] = agent._best_fitness
    elif isinstance(agent, BOAgent):
        state["gp_observations"] = agent._gp.n_observations
    return state


# -- driving ----------------------------------------------------------------------


def drive(agent: Agent, space: CompositeSpace, samples: int,
          mode: str) -> List[Dict[str, Any]]:
    """Spend ``samples`` proposals through one Q1/Q2 interface."""
    proposals: List[Dict[str, Any]] = []
    if mode == "serial":
        for _ in range(samples):
            action = agent.propose()
            score = fitness(space, action)
            agent.observe(action, score, {"score": score})
            proposals.append(action)
        return proposals
    if mode != "batched":
        raise ValueError(f"unknown mode {mode!r}")
    while len(proposals) < samples:
        batch = agent.propose_batch()[: samples - len(proposals)]
        scores = [fitness(space, action) for action in batch]
        agent.observe_batch(batch, scores, [{"score": s} for s in scores])
        proposals.extend(batch)
    return proposals


def run_scenario(spec: Mapping[str, Any], mode: str = "serial") -> Dict[str, Any]:
    """Every output of one scenario driven through ``mode``."""
    space = SPACES[spec["space"]]
    agent = make_agent(spec["agent"], space, seed=spec["seed"], **spec["hyperparams"])
    proposals = drive(agent, space, spec["samples"], mode)
    return {"proposals": encode(proposals), "final": encode(agent_state(agent))}


def build_corpus(mode: str = "serial") -> Dict[str, Any]:
    return {
        "scenarios": [
            {"spec": spec, **run_scenario(spec, mode)} for spec in SCENARIOS
        ]
    }


def dumps(corpus: Dict[str, Any]) -> str:
    """One proposal per line: compact, yet diffs point at the changed step."""
    blocks = []
    for scenario in corpus["scenarios"]:
        rows = ",\n".join(
            json.dumps(p, sort_keys=True) for p in scenario["proposals"]
        )
        head = {k: v for k, v in scenario.items() if k != "proposals"}
        body = json.dumps(head, sort_keys=True)[:-1]
        blocks.append(f'{body}, "proposals": [\n{rows}\n]}}')
    return '{"scenarios": [\n' + ",\n".join(blocks) + "\n]}\n"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="replay through the serial and the batched agent interface "
             "and compare against the committed corpus instead of "
             "rewriting it",
    )
    args = parser.parse_args(argv)
    if args.check:
        stored = json.loads(GOLDEN_PATH.read_text())
        failed = [mode for mode in MODES if build_corpus(mode) != stored]
        if failed:
            print(f"MISMATCH: {', '.join(failed)} no longer reproduce {GOLDEN_PATH}")
            return 1
        n = sum(len(s["proposals"]) for s in stored["scenarios"])
        print(f"OK: {len(stored['scenarios'])} scenarios, {n} proposals match "
              f"through {', '.join(MODES)}")
        return 0
    corpus = build_corpus()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(dumps(corpus))
    n = sum(len(s["proposals"]) for s in corpus["scenarios"])
    print(f"wrote {GOLDEN_PATH}: {len(corpus['scenarios'])} scenarios, {n} proposals")
    return 0


if __name__ == "__main__":
    sys.exit(main())
