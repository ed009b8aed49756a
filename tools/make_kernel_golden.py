#!/usr/bin/env python
"""Generate the cost-model kernel golden corpus.

The corpus (``tests/data/kernel_golden.json``) pins the exact outputs of
the two hot cost-model kernels:

- ``DramSimulator.simulate``: seeded controller configs on every trace
  name and on each device preset (plus a row-interleaved DDR4 variant),
  recording every ``SimResult`` field including ``energy_breakdown_nj``;
- ``TimeloopModel``: seeded accelerator configs on every DNN workload,
  recording every ``LayerCost`` field and the ``evaluate_network`` dict.

Floats are stored with ``float.hex`` so the comparison in
``tests/test_kernel_golden.py`` is bit-for-bit. Any kernel rewrite must
reproduce the corpus unchanged; regenerate it only for a deliberate,
reviewed change of the simulated model itself::

    python tools/make_kernel_golden.py          # rewrite
    python tools/make_kernel_golden.py --check  # compare
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import Any, Dict, List

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dnn import WORKLOAD_NAMES, get_workload  # noqa: E402
from repro.dramsys import (  # noqa: E402
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    TRACE_NAMES,
    ControllerConfig,
    DramSimulator,
    controller_space,
    generate_trace,
)
from repro.timeloop import (  # noqa: E402
    EYERISS_LIKE,
    AcceleratorConfig,
    TimeloopModel,
    accelerator_space,
)

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "kernel_golden.json"

DRAM_DEVICES = {
    dev.name: dev
    for dev in (
        DDR4_2400,
        DDR3_1600,
        LPDDR4_3200,
        dataclasses.replace(
            DDR4_2400, name="DDR4-2400-rowint", address_mapping="row_interleaved"
        ),
    )
}
DRAM_N_REQUESTS = 1000
DRAM_CONFIGS_PER_PAIR = 16       # plus the default controller
TIMELOOP_ARCHS_PER_WORKLOAD = 40  # plus the Eyeriss-like reference
SEED = 0


def encode(value: Any) -> Any:
    """JSON-safe, bit-exact encoding: floats become ``float.hex``."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__}")


def arch_from_record(action: Dict[str, Any]) -> AcceleratorConfig:
    return AcceleratorConfig.from_action(
        {**action, "ClockGHz": float.fromhex(action["ClockGHz"])}
    )


def dram_cases() -> List[Dict[str, Any]]:
    """The corpus inputs for the DRAM kernel (no outputs)."""
    rng = np.random.default_rng(SEED)
    space = controller_space()
    cases = []
    for trace_seed, device in enumerate(DRAM_DEVICES):
        for trace in TRACE_NAMES:
            configs = [ControllerConfig().to_action()] + [
                ControllerConfig.from_action(space.sample(rng)).to_action()
                for _ in range(DRAM_CONFIGS_PER_PAIR)
            ]
            for config in configs:
                cases.append({
                    "trace": trace,
                    "n_requests": DRAM_N_REQUESTS,
                    "trace_seed": trace_seed,
                    "device": device,
                    "config": config,
                })
    return cases


def timeloop_cases() -> List[Dict[str, Any]]:
    """The corpus inputs for the Timeloop kernel (no outputs)."""
    rng = np.random.default_rng(SEED)
    space = accelerator_space()
    cases = []
    for workload in WORKLOAD_NAMES:
        archs = [EYERISS_LIKE] + [
            AcceleratorConfig.from_action(space.sample(rng))
            for _ in range(TIMELOOP_ARCHS_PER_WORKLOAD)
        ]
        for arch in archs:
            cases.append({"workload": workload, "arch": encode(arch.to_action())})
    return cases


def run_dram(case: Dict[str, Any], simulator: DramSimulator) -> Dict[str, Any]:
    trace = generate_trace(
        case["trace"], n_requests=case["n_requests"], seed=case["trace_seed"]
    )
    result = simulator.simulate(ControllerConfig.from_action(case["config"]), trace)
    return encode(dataclasses.asdict(result))


def run_timeloop(case: Dict[str, Any], model: TimeloopModel) -> Dict[str, Any]:
    arch = arch_from_record(case["arch"])
    layers = get_workload(case["workload"])
    return {
        "layers": [
            encode(dataclasses.asdict(model.evaluate_layer(arch, layer)))
            for layer in layers
        ],
        "network": encode(model.evaluate_network(arch, layers)),
    }


def build_corpus() -> Dict[str, Any]:
    """Evaluate every corpus case with the current kernels."""
    simulators = {name: DramSimulator(dev) for name, dev in DRAM_DEVICES.items()}
    model = TimeloopModel()
    dram = [
        {**case, "result": run_dram(case, simulators[case["device"]])}
        for case in dram_cases()
    ]
    timeloop = [
        {**case, **run_timeloop(case, model)} for case in timeloop_cases()
    ]
    return {"dram": dram, "timeloop": timeloop}


def dumps(corpus: Dict[str, Any]) -> str:
    """One record per line: compact, yet diffs point at the changed case."""
    sections = []
    for key in sorted(corpus):
        rows = ",\n".join(json.dumps(row, sort_keys=True) for row in corpus[key])
        sections.append(f"{json.dumps(key)}: [\n{rows}\n]")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed corpus instead of rewriting it",
    )
    args = parser.parse_args(argv)
    corpus = build_corpus()
    if args.check:
        stored = json.loads(GOLDEN_PATH.read_text())
        if stored != corpus:
            print(f"MISMATCH: kernels no longer reproduce {GOLDEN_PATH}")
            return 1
        print(f"OK: {len(corpus['dram'])} DRAM points and "
              f"{len(corpus['timeloop'])} Timeloop networks match")
        return 0
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(dumps(corpus))
    print(f"wrote {GOLDEN_PATH}: {len(corpus['dram'])} DRAM points, "
          f"{len(corpus['timeloop'])} Timeloop networks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
