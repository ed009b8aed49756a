"""The shared step core of ``ArchGymEnv``: the bounded LRU shadow of the
decision pass and the typed errors of the replay pass.

1. **Bounded shadow** — ``_plan_batch`` shadows only the
   ``len(actions)`` least-recent LRU keys. Hypothesis-generated LRU
   sizes, pre-filled caches, shared tiers and duplicate-heavy batches
   must plan exactly what a brute-force full-copy shadow (kept here as
   the reference) plans, and a one-point plan over a 4096-entry LRU
   iterates at most one cached key.
2. **Wrong-length backend replies** — a batch reply one short or one
   long, and a stream chunk overrunning its miss slots, raise
   :class:`EnvironmentError_` with the expected and received counts.
3. **Sim time** — ``total_sim_time`` charges the backend call on every
   entry point.
"""

import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.env import canonical_action_key
from repro.core.errors import EnvironmentError_

from test_service import SvcCountingEnv


def _point(i: int) -> Dict[str, Any]:
    """Design point ``i`` of the 16-point SvcCountingEnv space."""
    return {"x": i % 8, "m": "ab"[i // 8]}


class _DictStore:
    """A shared tier without files: the ``get``/``put`` contract only."""

    def __init__(self) -> None:
        self.entries: Dict[Any, Dict[str, float]] = {}

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, metrics):
        self.entries[key] = dict(metrics)


def reference_plan(env, actions, keys) -> Tuple[List[Tuple[str, Any]], list, dict]:
    """The decision pass with a full copy of the LRU as its shadow."""
    plan: List[Tuple[str, Any]] = []
    miss_actions: list = []
    sim: Optional[OrderedDict] = (
        OrderedDict((k, None) for k in env._eval_cache)
        if env._eval_cache is not None else None
    )
    pending: Dict[Any, int] = {}
    shared_seen: Dict[Any, Dict[str, float]] = {}
    shared = env._shared_cache

    def remember(key):
        if sim is None:
            return
        sim[key] = None
        sim.move_to_end(key)
        while len(sim) > env._eval_cache_maxsize:
            sim.popitem(last=False)

    for action, key in zip(actions, keys):
        if sim is not None and key in sim:
            sim.move_to_end(key)
            plan.append(("local", key))
            continue
        if key is not None and key in pending and shared is not None:
            plan.append(("shared-dup", pending[key]))
            remember(key)
            continue
        if key is not None and shared is not None:
            found = shared_seen.get(key)
            if found is None:
                found = shared.get(key)
            if found is not None:
                shared_seen[key] = found
                plan.append(("shared", key))
                remember(key)
                continue
        index = len(miss_actions)
        miss_actions.append(action)
        plan.append(("miss", index))
        if key is not None:
            pending[key] = index
            remember(key)
    return plan, miss_actions, shared_seen


point_ids = st.integers(min_value=0, max_value=15)


class TestBoundedShadow:
    @settings(max_examples=300, deadline=None)
    @given(
        maxsize=st.integers(min_value=0, max_value=9),
        prefill=st.lists(point_ids, max_size=14),
        shared_ids=st.one_of(st.none(), st.sets(point_ids, max_size=6)),
        batch=st.lists(point_ids, min_size=1, max_size=24),
    )
    def test_plan_matches_full_copy_reference(
        self, maxsize, prefill, shared_ids, batch
    ):
        env = SvcCountingEnv()
        env.enable_cache(maxsize)  # 0 leaves the LRU off
        for i in prefill:
            env._remember_local(canonical_action_key(_point(i)), {"cost": float(i)})
        if shared_ids is not None:
            store = _DictStore()
            for i in shared_ids:
                store.put(canonical_action_key(_point(i)), {"cost": float(i)})
            env.attach_shared_cache(store)
        before = None if env._eval_cache is None else list(env._eval_cache)
        actions = [_point(i) for i in batch]
        caching = env._eval_cache is not None or shared_ids is not None
        keys = [canonical_action_key(a) if caching else None for a in actions]

        assert env._plan_batch(actions, keys) == reference_plan(env, actions, keys)
        # the decision pass only reads the real LRU
        assert (None if env._eval_cache is None else list(env._eval_cache)) == before

    def test_one_point_plan_iterates_at_most_one_cached_key(self):
        class CountingLRU(OrderedDict):
            iterated = 0

            def __iter__(self):
                for key in super().__iter__():
                    self.iterated += 1
                    yield key

        env = SvcCountingEnv()
        env.enable_cache(4096)
        lru = CountingLRU(
            ((("m", "z"), ("x", i)), {"cost": float(i)}) for i in range(4096)
        )
        hit = _point(3)
        lru[canonical_action_key(hit)] = {"cost": 3.0}
        lru.popitem(last=False)  # back to 4096 entries
        env._eval_cache = lru

        for action in (hit, _point(12)):  # a resident point, then a miss
            key = canonical_action_key(action)
            plan = env._plan_batch([action], [key])[0]
            assert plan[0][0] == ("local" if action is hit else "miss")
            assert lru.iterated <= 1
            lru.iterated = 0

        env.reset()
        env.step(_point(12))  # the full serial step: a miss that evicts
        assert lru.iterated <= 1
        assert len(lru) == 4096 and env.stats.cache_misses == 1


class _MiscountingBackend:
    """Answers every design point with a real FARSI evaluation, then
    drops the last answer (``delta=-1``) or repeats the first
    (``delta=+1``)."""

    def __init__(self, delta: int) -> None:
        self.delta = delta
        self.model = repro.make("FARSIGym-v0")

    def evaluate(self, env_id, action):
        return self.model.evaluate(action)

    def evaluate_batch(self, env_id, actions):
        metrics = [self.model.evaluate(a) for a in actions]
        return metrics[:-1] if self.delta < 0 else metrics + metrics[:1]


class _OverrunningStreamBackend(_MiscountingBackend):
    """Streams one chunk that starts at design point 1 but carries an
    answer for every design point sent."""

    def evaluate_batch_stream(self, env_id, actions):
        yield 1, [self.model.evaluate(a) for a in actions], "http://overrun"


def _farsi_with(backend):
    env = repro.make("FARSIGym-v0")
    env.attach_backend(backend)
    env.reset(seed=0)
    return env, [env.random_action() for _ in range(3)]


class TestWrongLengthReplies:
    def test_barrier_reply_one_short(self):
        env, actions = _farsi_with(_MiscountingBackend(delta=-1))
        with pytest.raises(EnvironmentError_, match=r"with 2 of 3 design points"):
            env.step_batch(actions)

    def test_barrier_reply_one_long(self):
        env, actions = _farsi_with(_MiscountingBackend(delta=+1))
        with pytest.raises(
            EnvironmentError_,
            match=r"returned 4 metrics from design point 0 of the 3 sent "
                  r"\(expected at most 3\)",
        ):
            env.step_batch(actions)

    def test_stream_chunk_overrunning_its_slots(self):
        env, actions = _farsi_with(_OverrunningStreamBackend(delta=0))
        with pytest.raises(
            EnvironmentError_,
            match=r"returned 3 metrics from design point 1 of the 3 sent "
                  r"\(expected at most 2\)",
        ):
            list(env.step_batch_stream(actions))


class _SlowBackend:
    """Every cost-model run takes at least ``delay`` seconds."""

    delay = 0.02

    def __init__(self) -> None:
        self.model = SvcCountingEnv()

    def evaluate(self, env_id, action):
        time.sleep(self.delay)
        return self.model.evaluate(action)

    def evaluate_batch(self, env_id, actions):
        return [self.evaluate(env_id, a) for a in actions]

    def evaluate_batch_stream(self, env_id, actions):
        for index, action in enumerate(actions):
            yield index, [self.evaluate(env_id, action)], None


@pytest.mark.parametrize("entry", ["step", "step_batch", "step_batch_stream"])
def test_sim_time_covers_the_dispatch(entry):
    """``total_sim_time`` (a trial's ``sim_time_s``) charges the backend
    call on every entry point, whichever chunk source it uses."""
    env = SvcCountingEnv()
    env.attach_backend(_SlowBackend())
    env.reset(seed=0)
    actions = [_point(1), _point(2)]
    if entry == "step":
        for action in actions:
            env.step(action)
    else:
        list(getattr(env, entry)(actions))
    assert env.stats.total_sim_time >= 2 * _SlowBackend.delay
