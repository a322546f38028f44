"""Policy-level telemetry: the decision event stream and ``stats()``.

A scripted two-phase kernel (compute-heavy opening, memory-heavy tail)
drives a fresh Harmonia policy through the full CG -> FG sequence twice;
the emitted event stream must tell that story in order, and the disabled
path must reproduce the exact same run.
"""

from __future__ import annotations

import pytest

from repro.core.harmonia import ControllerStats
from repro.runtime.simulator import ApplicationRunner
from repro.perf.kernelspec import KernelSpec
from repro.telemetry.events import (
    CGJump,
    ConfigApplied,
    FGConverged,
    FGRevert,
    FGStep,
    KernelLaunch,
    PhaseChange,
)
from repro.telemetry.export import InMemorySink
from repro.telemetry.handle import NULL_TELEMETRY, Telemetry
from repro.workloads.application import Application
from repro.workloads.kernel import TableSchedule, WorkloadKernel

ITERATIONS = 12
PHASE_SWITCH = 6

#: Compute-heavy opening phase: lots of VALU work per fetched byte.
_COMPUTE_PHASE = {
    "valu_insts_per_item": 2400.0,
    "vfetch_insts_per_item": 1.0,
    "vwrite_insts_per_item": 0.5,
}

#: Memory-heavy tail phase: streaming fetches, little arithmetic.
_MEMORY_PHASE = {
    "valu_insts_per_item": 40.0,
    "vfetch_insts_per_item": 14.0,
    "vwrite_insts_per_item": 4.0,
}


def _two_phase_application() -> Application:
    base = KernelSpec(
        name="Scripted.TwoPhase",
        total_workitems=1 << 18,
        workgroup_size=256,
        valu_insts_per_item=2400.0,
        vfetch_insts_per_item=1.0,
        vwrite_insts_per_item=0.5,
        bytes_per_fetch=8.0,
        bytes_per_write=8.0,
    )
    rows = tuple([_COMPUTE_PHASE] * PHASE_SWITCH
                 + [_MEMORY_PHASE] * (ITERATIONS - PHASE_SWITCH))
    kernel = WorkloadKernel(base=base, schedule=TableSchedule(rows=rows,
                                                              wrap=False))
    return Application(name="ScriptedTwoPhase", suite="test",
                       kernels=(kernel,), iterations=ITERATIONS)


@pytest.fixture(scope="module")
def scripted_run(context):
    """One instrumented run of the two-phase kernel under Harmonia."""
    sink = InMemorySink()
    telemetry = Telemetry(sink=sink)
    policy = context.harmonia_policy(telemetry=telemetry)
    runner = ApplicationRunner(context.platform, telemetry=telemetry)
    result = runner.run(_two_phase_application(), policy)
    return policy, result, sink.events


class TestEventStream:
    def test_every_launch_is_recorded(self, scripted_run):
        _, _, events = scripted_run
        launches = [e for e in events if isinstance(e, KernelLaunch)]
        assert len(launches) == ITERATIONS
        assert [e.iteration for e in launches] == list(range(ITERATIONS))

    def test_both_phases_are_detected(self, scripted_run):
        _, _, events = scripted_run
        phases = [e for e in events if isinstance(e, PhaseChange)]
        # The opening phase plus at least the scripted switch.
        assert len(phases) >= 2
        assert phases[0].iteration == 0
        assert phases[0].phase_index == 1
        # Some phase change lands at or just after the scripted switch.
        assert any(e.iteration >= PHASE_SWITCH for e in phases)

    def test_cg_jump_follows_each_phase_change(self, scripted_run):
        _, _, events = scripted_run
        jumps = [e for e in events if isinstance(e, CGJump)]
        assert jumps, "the CG block never acted"
        # The first decision of the run: phase change, then the CG jump.
        first_phase = next(i for i, e in enumerate(events)
                           if isinstance(e, PhaseChange))
        first_jump = next(i for i, e in enumerate(events)
                          if isinstance(e, CGJump))
        assert first_phase < first_jump
        for jump in jumps:
            assert jump.compute_bin in ("low", "med", "high")
            assert jump.bandwidth_bin in ("low", "med", "high")

    def test_fg_refines_after_cg(self, scripted_run):
        context_events = scripted_run[2]
        steps = [e for e in context_events if isinstance(e, FGStep)]
        assert steps, "the FG loop never stepped"
        first_jump = next(i for i, e in enumerate(context_events)
                          if isinstance(e, CGJump))
        first_step = next(i for i, e in enumerate(context_events)
                          if isinstance(e, FGStep))
        assert first_jump < first_step
        for step in steps:
            assert step.tunable in ("n_cu", "f_cu", "f_mem")
            assert step.direction in (-1, 1)
            assert step.old_config != step.new_config

    def test_config_changes_are_attributed(self, scripted_run, context):
        _, _, events = scripted_run
        applied = [e for e in events if isinstance(e, ConfigApplied)]
        assert applied
        for event in applied:
            assert event.source in ("cg", "fg", "recall")
            assert event.old_config != event.new_config
            assert event.new_config in context.platform.config_space

    def test_reverts_restore_the_previous_config(self, scripted_run):
        _, _, events = scripted_run
        for event in events:
            if isinstance(event, FGRevert):
                assert event.old_config != event.new_config

    def test_events_only_name_the_scripted_kernel(self, scripted_run):
        _, _, events = scripted_run
        assert {e.kernel for e in events} == {"Scripted.TwoPhase"}


class TestStatsAccessor:
    def test_stats_match_event_stream(self, scripted_run):
        policy, _, events = scripted_run
        stats = policy.stats("Scripted.TwoPhase")
        assert isinstance(stats, ControllerStats)
        assert stats.phase_changes == sum(
            isinstance(e, PhaseChange) for e in events)
        assert stats.cg_actions == sum(isinstance(e, CGJump) for e in events)
        fg_events = sum(isinstance(e, (FGStep, FGRevert, FGConverged))
                        for e in events)
        # Every FG action produces at most one FG event (no-op proposals
        # are actions without an observable decision).
        assert stats.fg_actions >= fg_events > 0

    def test_unknown_kernel_reads_as_zero(self, context):
        policy = context.harmonia_policy()
        assert policy.stats("No.Such.Kernel") == ControllerStats()

    def test_all_kernels_view(self, scripted_run):
        policy, _, _ = scripted_run
        per_kernel = policy.stats()
        assert list(per_kernel) == ["Scripted.TwoPhase"]
        assert per_kernel["Scripted.TwoPhase"] == policy.stats(
            "Scripted.TwoPhase")


class TestDisabledPathIdentity:
    def test_disabled_run_is_bit_identical(self, context, scripted_run):
        _, instrumented, _ = scripted_run
        policy = context.harmonia_policy()
        assert policy.telemetry is NULL_TELEMETRY
        runner = ApplicationRunner(context.platform)
        plain = runner.run(_two_phase_application(), policy)
        assert plain.metrics == instrumented.metrics
        assert [r.config for r in plain.trace.records] == [
            r.config for r in instrumented.trace.records]
        assert [r.time for r in plain.trace.records] == [
            r.time for r in instrumented.trace.records]

    def test_null_telemetry_serves_noop_instruments(self):
        NULL_TELEMETRY.metrics.counter("anything_total").inc(kernel="K")
        NULL_TELEMETRY.emit(object())
        with NULL_TELEMETRY.span("section", kernel="K"):
            pass
        assert NULL_TELEMETRY.enabled is False

    def test_runner_metrics_track_launches(self, context):
        telemetry = Telemetry()
        policy = context.harmonia_policy(telemetry=telemetry)
        runner = ApplicationRunner(context.platform, telemetry=telemetry)
        runner.run(_two_phase_application(), policy)
        launches = telemetry.metrics.counter("kernel_launches_total")
        assert launches.value(kernel="Scripted.TwoPhase",
                              policy="harmonia") == ITERATIONS
        histogram = telemetry.metrics.histogram("launch_time_seconds")
        assert histogram.count(kernel="Scripted.TwoPhase") == ITERATIONS
