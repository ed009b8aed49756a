"""Memo-safety of the cost-model kernels.

``DramSimulator`` keeps the decode of the last trace it saw,
``generate_trace`` memoizes recent traces and ``TimeloopModel`` keeps
each layer's tile grid. None of these may ever serve one input's
result for another: interleaved use of one instance must equal fresh
instances.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.dnn import WORKLOAD_NAMES, ConvLayer, get_workload
from repro.dramsys import (
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    ControllerConfig,
    DramSimulator,
    controller_space,
    generate_trace,
)
from repro.dramsys.traces import _generate
from repro.envs.dram import DRAMGymEnv
from repro.timeloop import TimeloopModel, accelerator_space
from repro.timeloop.arch import AcceleratorConfig


def _hammer(check, n_threads=4, reps=3):
    """Run ``check(worker, rep)`` from more threads than cores, with a
    short switch interval so the threads interleave mid-call."""
    errors = []

    def worker(i):
        try:
            for rep in range(reps):
                check(i, rep)
        except AssertionError as exc:
            errors.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


def _configs(n, seed=0):
    rng = np.random.default_rng(seed)
    space = controller_space()
    return [ControllerConfig.from_action(space.sample(rng)) for _ in range(n)]


class TestDramDecodeMemo:
    def test_interleaved_traces_and_devices_equal_fresh_instances(self):
        traces = [generate_trace("stream", 300, seed=1), generate_trace("random", 300, seed=2)]
        devices = [DDR4_2400, DDR3_1600]
        # every step changes exactly one of (trace, device)
        order = [(0, 0), (0, 1), (1, 1), (1, 0)]
        shared = DramSimulator()
        for k, cfg in enumerate(_configs(12)):
            t, d = order[k % len(order)]
            trace, device = traces[t], devices[d]
            shared.device = device
            got = shared.simulate(cfg, trace)
            assert got == DramSimulator(device).simulate(cfg, trace)

    def test_switching_back_and_forth_between_traces(self):
        a = _generate.__wrapped__("cloud-1", 300, 5)
        b = _generate.__wrapped__("cloud-2", 300, 5)
        sim = DramSimulator(LPDDR4_3200)
        cfg = ControllerConfig(page_policy="Closed")
        first = sim.simulate(cfg, a)
        assert sim.simulate(cfg, b) == DramSimulator(LPDDR4_3200).simulate(cfg, b)
        assert sim.simulate(cfg, a) == first

    def test_threads_sharing_one_simulator_equal_fresh_instances(self):
        traces = [generate_trace("cloud-2", 250, seed=s) for s in (3, 4, 5)]
        configs = _configs(6, seed=9)
        expected = {
            (t, c): DramSimulator().simulate(configs[c], traces[t])
            for t in range(3) for c in range(6)
        }
        shared = DramSimulator()

        def check(worker, rep):
            for c in range(6):
                t = (c + worker + rep) % 3
                assert shared.simulate(configs[c], traces[t]) == expected[t, c]

        _hammer(check)

    def test_env_with_non_default_trace_and_device_gets_its_own_decode(self):
        default = DRAMGymEnv(cache_size=0)
        other = DRAMGymEnv(device=DDR3_1600, trace_seed=3, cache_size=0)
        assert other.trace == _generate.__wrapped__("stream", 1000, 3)
        for cfg in _configs(6, seed=4):
            action = cfg.to_action()
            for env, device, seed in ((default, DDR4_2400, 0), (other, DDR3_1600, 3)):
                fresh = DramSimulator(device).simulate(
                    cfg, _generate.__wrapped__("stream", 1000, seed)
                )
                assert env.evaluate(action) == fresh.metrics()
        assert default.evaluate(action) != other.evaluate(action)


class TestGenerateTraceMemo:
    def test_equal_arguments_give_equal_traces(self):
        a = generate_trace("cloud-1", 400, seed=7)
        assert generate_trace("cloud-1", n_requests=400, seed=np.int64(7)) == a
        assert _generate.__wrapped__("cloud-1", 400, 7) == a

    @pytest.mark.parametrize("change", [{"seed": 8}, {"n_requests": 401}, {"name": "cloud-2"}])
    def test_different_arguments_give_different_traces(self, change):
        args = {"name": "cloud-1", "n_requests": 400, "seed": 7}
        changed = {**args, **change}
        other = generate_trace(**changed)
        assert other != generate_trace(**args)
        assert other == _generate.__wrapped__(
            changed["name"], changed["n_requests"], changed["seed"]
        )

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            generate_trace("stream", 100, seed=np.random.default_rng(0))


class TestTimeloopGridMemo:
    def test_interleaved_workloads_equal_fresh_models(self):
        rng = np.random.default_rng(11)
        space = accelerator_space()
        shared = TimeloopModel()
        for k in range(3 * len(WORKLOAD_NAMES)):
            arch = AcceleratorConfig.from_action(space.sample(rng))
            layers = get_workload(WORKLOAD_NAMES[k % len(WORKLOAD_NAMES)])
            assert shared.evaluate_network(arch, layers) == (
                TimeloopModel().evaluate_network(arch, layers)
            )

    def test_threads_sharing_one_model_equal_fresh_models(self):
        rng = np.random.default_rng(12)
        space = accelerator_space()
        archs = [AcceleratorConfig.from_action(space.sample(rng)) for _ in range(4)]
        expected = {
            (w, a): TimeloopModel().evaluate_network(archs[a], get_workload(w))
            for w in WORKLOAD_NAMES for a in range(4)
        }
        shared = TimeloopModel()

        def check(worker, rep):
            for k, w in enumerate(WORKLOAD_NAMES):
                a = (k + worker + rep) % 4
                assert shared.evaluate_network(archs[a], get_workload(w)) == expected[w, a]

        _hammer(check)

    def test_same_name_different_shape_not_confused(self):
        layer = get_workload("alexnet")[0]
        reshaped = dataclasses.replace(layer, K=layer.K // 2)
        assert isinstance(reshaped, ConvLayer) and reshaped.name == layer.name
        shared = TimeloopModel()
        arch = AcceleratorConfig()
        first = shared.evaluate_layer(arch, layer)
        assert shared.evaluate_layer(arch, reshaped) == (
            TimeloopModel().evaluate_layer(arch, reshaped)
        )
        assert shared.evaluate_layer(arch, layer) == first
