"""Golden gate for the search agents.

``tests/data/agent_golden.json`` (written by ``tools/make_agent_golden.py``
from the serial ``propose``/``observe`` loop) records every proposal,
the final generator state and the learned state (trails, policy
weights, population) of 18 seeded scenarios. Both the serial and the
generation-native agent interface must reproduce it: parity is checked
against the stored file, never against a sibling path.

ACO and RL sample through ``_choice_index`` instead of
``Generator.choice``; a property test pins that the two agree draw for
draw and leave the generator in the same state.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.base import _choice_index

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    path = REPO_ROOT / "tools" / "make_agent_golden.py"
    spec = importlib.util.spec_from_file_location("make_agent_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_tool = _load_tool()

CORPUS = json.loads(golden_tool.GOLDEN_PATH.read_text())


def test_corpus_specs_are_the_tools_scenarios():
    """The stored scenarios are exactly the tool's, so a regenerated
    corpus can only differ in its outputs."""
    assert [s["spec"] for s in CORPUS["scenarios"]] == golden_tool.SCENARIOS


def test_corpus_covers_every_agent_on_both_spaces():
    covered = {(s["spec"]["space"], s["spec"]["name"]) for s in CORPUS["scenarios"]}
    names = {"ga", "aco-greedy-0", "aco-greedy-0.1", "aco-greedy-1", "rw",
             "rl-reinforce", "rl-ppo", "bo", "gamma"}
    assert covered == {(space, name) for space in ("mixed", "mapping") for name in names}
    by_key = {(s["spec"]["space"], s["spec"]["name"]): s for s in CORPUS["scenarios"]}
    for space in ("mixed", "mapping"):
        # the learned state moved away from its initial value
        assert by_key[(space, "rl-ppo")]["final"]["updates"] == 8
        trails = by_key[(space, "aco-greedy-0")]["final"]["trails"]
        assert any(len(set(trail)) > 1 for trail in trails)


@pytest.mark.parametrize("mode", golden_tool.MODES)
@pytest.mark.parametrize(
    "stored", CORPUS["scenarios"],
    ids=[f"{s['spec']['space']}-{s['spec']['name']}" for s in CORPUS["scenarios"]],
)
def test_agent_reproduces_golden(stored, mode):
    got = golden_tool.run_scenario(stored["spec"], mode)
    for index, (want, have) in enumerate(zip(stored["proposals"], got["proposals"])):
        assert have == want, f"proposal {index} differs"
    assert len(got["proposals"]) == len(stored["proposals"])
    assert got["final"] == stored["final"]


# -- _choice_index == Generator.choice ----------------------------------------

#: Raw weights: exact zeros, ordinary values, and a few huge ones so that
#: near-one masses (one entry ~1, the rest ~1e-12) come up often.
_weight = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1.0),
    st.sampled_from([1e-12, 1e-6, 1e6, 1e12]),
)


def _probabilities(weights):
    w = np.asarray(weights, dtype=np.float64)
    if w.sum() <= 0.0:
        w[-1] = 1.0
    return w / w.sum()


@given(st.lists(_weight, min_size=1, max_size=12), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_choice_index_draws_what_generator_choice_draws(weights, seed):
    p = _probabilities(weights)
    reference, ours = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        want = reference.choice(len(p), p=p)
        assert _choice_index(p, ours.random()) == want
        assert reference.bit_generator.state == ours.bit_generator.state


@given(st.lists(st.lists(_weight, min_size=1, max_size=6), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_vector_draw_is_the_per_dimension_choice_stream(dims, seed):
    """RL's form: one ``rng.random(n)`` for n dimensions equals n
    sequential ``choice`` calls, indices and generator state alike."""
    probs = [_probabilities(w) for w in dims]
    reference, ours = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [reference.choice(len(p), p=p) for p in probs]
    draws = ours.random(len(probs))
    assert [_choice_index(p, u) for p, u in zip(probs, draws)] == want
    assert reference.bit_generator.state == ours.bit_generator.state


def test_choice_index_edge_vectors():
    rng = np.random.default_rng(0)
    assert _choice_index(np.array([1.0]), rng.random()) == 0
    # zero-mass values are never drawn, even at u's extremes
    assert _choice_index(np.array([0.0, 1.0, 0.0]), 0.0) == 1
    assert _choice_index(np.array([0.0, 1.0, 0.0]), np.nextafter(1.0, 0.0)) == 1
