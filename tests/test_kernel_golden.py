"""Bit-exactness gate for the DRAM and Timeloop cost-model kernels.

``tests/data/kernel_golden.json`` (written by
``tools/make_kernel_golden.py``) records every ``SimResult`` and
``LayerCost`` field and every ``evaluate_network`` dict of a seeded
corpus, floats as ``float.hex``. The kernels must reproduce it exactly.
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    path = REPO_ROOT / "tools" / "make_kernel_golden.py"
    spec = importlib.util.spec_from_file_location("make_kernel_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_tool = _load_tool()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(golden_tool.GOLDEN_PATH.read_text())


def test_corpus_inputs_are_the_generated_ones(corpus):
    """The stored cases are exactly what the tool's seeded sampler draws,
    so a regenerated corpus can only differ in its outputs."""
    def inputs(rows, outputs):
        return [{k: v for k, v in row.items() if k not in outputs} for row in rows]

    assert inputs(corpus["dram"], {"result"}) == golden_tool.dram_cases()
    assert inputs(corpus["timeloop"], {"layers", "network"}) == golden_tool.timeloop_cases()


def test_corpus_covers_every_trace_device_and_workload(corpus):
    from repro.dnn import WORKLOAD_NAMES
    from repro.dramsys import TRACE_NAMES

    pairs = {(r["trace"], r["device"]) for r in corpus["dram"]}
    assert pairs == {
        (t, d) for t in TRACE_NAMES for d in golden_tool.DRAM_DEVICES
    }
    assert {r["workload"] for r in corpus["timeloop"]} == set(WORKLOAD_NAMES)
    # both branches of the mapper are pinned
    feasible = {layer["feasible"] for r in corpus["timeloop"] for layer in r["layers"]}
    assert feasible == {True, False}


def test_dram_kernel_matches_golden_bit_for_bit(corpus):
    from repro.dramsys import DramSimulator

    simulators = {
        name: DramSimulator(dev) for name, dev in golden_tool.DRAM_DEVICES.items()
    }
    mismatches = [
        (i, case["trace"], case["device"])
        for i, case in enumerate(corpus["dram"])
        if golden_tool.run_dram(case, simulators[case["device"]]) != case["result"]
    ]
    assert not mismatches, f"{len(mismatches)} DRAM points differ, first: {mismatches[:5]}"


def test_timeloop_kernel_matches_golden_bit_for_bit(corpus):
    from repro.timeloop import TimeloopModel

    model = TimeloopModel()
    mismatches = []
    for i, case in enumerate(corpus["timeloop"]):
        got = golden_tool.run_timeloop(case, model)
        if got != {"layers": case["layers"], "network": case["network"]}:
            mismatches.append((i, case["workload"]))
    assert not mismatches, f"{len(mismatches)} networks differ, first: {mismatches[:5]}"
