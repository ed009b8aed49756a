"""Golden gate for the environment step path.

``tests/data/step_golden.json`` (written by ``tools/make_step_golden.py``
from the serial ``step`` loop) records every observation, reward, flag,
``info`` dict, ``EnvStats`` counter, final LRU order and dataset JSONL
byte of seven seeded scenarios. All three step entry points must
reproduce it: parity is checked against the stored file, never against
a sibling path.
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    path = REPO_ROOT / "tools" / "make_step_golden.py"
    spec = importlib.util.spec_from_file_location("make_step_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_tool = _load_tool()

CORPUS = json.loads(golden_tool.GOLDEN_PATH.read_text())


def test_corpus_specs_are_the_tools_scenarios():
    """The stored scenarios are exactly the tool's, so a regenerated
    corpus can only differ in its outputs."""
    assert [s["spec"] for s in CORPUS["scenarios"]] == golden_tool.SCENARIOS


def test_corpus_exercises_every_branch():
    by_name = {s["spec"]["name"]: s for s in CORPUS["scenarios"]}
    stats = {name: s["final"]["stats"] for name, s in by_name.items()}
    assert stats["lru-off"]["cache_misses"] == 0  # no key, no accounting
    assert stats["lru-3-evicting"]["cache_hits"] > 0
    # evicted duplicates re-simulate: more misses than distinct points
    assert stats["lru-3-evicting"]["cache_misses"] > by_name["lru-3-evicting"]["spec"]["pool"]
    assert stats["shared-file"]["shared_cache_hits"] > 0
    assert stats["shared-file-lru-2"]["shared_cache_hits"] > 0
    steps = by_name["terminate-on-target"]["steps"]
    assert any(s["terminated"] for s in steps) and any(s["truncated"] for s in steps)
    assert set(stats["backend-lru-3"]["remote_evals_by_host"]) == {
        "http://h0", "http://h1"
    }
    assert '"np": "int64"' in by_name["numpy-actions"]["dataset_jsonl"]


@pytest.mark.parametrize("mode", golden_tool.MODES)
@pytest.mark.parametrize(
    "stored", CORPUS["scenarios"], ids=[s["spec"]["name"] for s in CORPUS["scenarios"]]
)
def test_entry_point_reproduces_golden(stored, mode):
    got = golden_tool.run_scenario(stored["spec"], mode)
    for index, (want, have) in enumerate(zip(stored["steps"], got["steps"])):
        assert have == want, f"step {index} differs"
    assert len(got["steps"]) == len(stored["steps"])
    assert got["final"] == stored["final"]
    assert got["dataset_jsonl"] == stored["dataset_jsonl"]
