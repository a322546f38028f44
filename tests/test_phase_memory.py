"""Unit tests for :class:`repro.core.monitor.PhaseMemory`."""

import pytest

from repro.core.monitor import PhaseMemory
from repro.errors import PolicyError
from repro.gpu.config import HardwareConfig
from repro.units import GHZ, MHZ

CONFIG_A = HardwareConfig(32, 1 * GHZ, 475 * MHZ)
CONFIG_B = HardwareConfig(16, 700 * MHZ, 1375 * MHZ)

PHASE_1 = (0.010, 0.002, 40.0, 0.14)
PHASE_2 = (0.025, 0.004, 40.0, 0.14)


class TestRecall:
    def test_empty_memory_recalls_nothing(self):
        memory = PhaseMemory()
        assert memory.recall("k", PHASE_1) is None

    def test_exact_match(self):
        memory = PhaseMemory()
        memory.remember("k", PHASE_1, CONFIG_A)
        assert memory.recall("k", PHASE_1) == CONFIG_A

    def test_fuzzy_match_within_threshold(self):
        memory = PhaseMemory(threshold=0.10)
        memory.remember("k", PHASE_1, CONFIG_A)
        near = (0.0105, 0.00205, 41.0, 0.14)  # each within 10%
        assert memory.recall("k", near) == CONFIG_A

    def test_no_match_beyond_threshold(self):
        memory = PhaseMemory(threshold=0.10)
        memory.remember("k", PHASE_1, CONFIG_A)
        assert memory.recall("k", PHASE_2) is None

    def test_distinct_phases_stored_separately(self):
        memory = PhaseMemory()
        memory.remember("k", PHASE_1, CONFIG_A)
        memory.remember("k", PHASE_2, CONFIG_B)
        assert memory.recall("k", PHASE_1) == CONFIG_A
        assert memory.recall("k", PHASE_2) == CONFIG_B
        assert memory.phase_count("k") == 2

    def test_update_in_place(self):
        memory = PhaseMemory()
        memory.remember("k", PHASE_1, CONFIG_A)
        memory.remember("k", PHASE_1, CONFIG_B)
        assert memory.recall("k", PHASE_1) == CONFIG_B
        assert memory.phase_count("k") == 1

    def test_kernels_independent(self):
        memory = PhaseMemory()
        memory.remember("a", PHASE_1, CONFIG_A)
        assert memory.recall("b", PHASE_1) is None

    def test_reset(self):
        memory = PhaseMemory()
        memory.remember("k", PHASE_1, CONFIG_A)
        memory.reset()
        assert memory.recall("k", PHASE_1) is None
        assert memory.phase_count("k") == 0

    def test_bad_threshold(self):
        with pytest.raises(PolicyError):
            PhaseMemory(threshold=0.0)


class TestPolicyIntegration:
    def test_recall_fires_on_recurring_phases(self, context):
        from repro.core.harmonia import HarmoniaPolicy
        from repro.runtime.simulator import ApplicationRunner
        from repro.workloads.application import Application
        from repro.workloads.registry import get_application

        base = get_application("Graph500")
        app = Application(name="Graph500x2", suite="Graph500",
                          kernels=base.kernels,
                          iterations=base.iterations * 2)
        training = context.training
        policy = HarmoniaPolicy(
            context.platform.config_space, training.compute,
            training.bandwidth,
        )
        ApplicationRunner(context.platform).run(app, policy)
        control = policy.control_state("Graph500.BottomStepUp")
        assert control.phase_recalls >= 1

    def test_memory_can_be_disabled(self, context):
        from repro.core.harmonia import HarmoniaPolicy
        training = context.training
        policy = HarmoniaPolicy(
            context.platform.config_space, training.compute,
            training.bandwidth, enable_phase_memory=False,
        )
        assert policy.phase_memory is None
