"""Event serialization round-trips, events as trace-file instants, and
trace replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.gpu.config import HardwareConfig
from repro.telemetry.events import (
    EVENT_TYPES,
    SCHEMA_MANIFEST,
    SCHEMA_VERSION,
    CGJump,
    ConfigApplied,
    FGConverged,
    FGRevert,
    FGStep,
    KernelLaunch,
    PhaseChange,
    config_from_record,
    config_to_record,
    event_from_record,
)
from repro.telemetry.handle import Telemetry
from repro.telemetry.report import ReplayTrace
from repro.telemetry.spantrace import load_chrome_trace, write_chrome_trace
from repro.units import MHZ

CFG_A = HardwareConfig(n_cu=32, f_cu=1000 * MHZ, f_mem=1375 * MHZ)
CFG_B = HardwareConfig(n_cu=24, f_cu=900 * MHZ, f_mem=925 * MHZ)

#: One representative instance of every event type in the schema.
SAMPLE_EVENTS = (
    KernelLaunch(kernel="App.K", iteration=3, time_s=1.5e-3,
                 config=CFG_A, power_w=180.0, energy_j=0.27),
    PhaseChange(kernel="App.K", iteration=0, time_s=1.0e-3,
                identity=(0.5, 1.25, 0.0), phase_index=1),
    CGJump(kernel="App.K", iteration=1, time_s=1.1e-3,
           old_config=CFG_A, new_config=CFG_B,
           compute_bin="low", bandwidth_bin="high",
           compute_sensitivity=0.12, bandwidth_sensitivity=0.87),
    FGStep(kernel="App.K", iteration=2, time_s=1.2e-3,
           tunable="f_mem", direction=-1,
           old_config=CFG_A, new_config=CFG_B,
           compute_bin="med", bandwidth_bin="med"),
    FGRevert(kernel="App.K", iteration=4, time_s=1.3e-3,
             tunable="n_cu", old_config=CFG_B, new_config=CFG_A),
    FGConverged(kernel="App.K", iteration=5, time_s=1.4e-3, config=CFG_B),
    ConfigApplied(kernel="App.K", iteration=6, time_s=1.5e-3,
                  old_config=CFG_A, new_config=CFG_B, source="cg"),
)


class TestConfigSerialization:
    def test_round_trip(self):
        assert config_from_record(config_to_record(CFG_A)) == CFG_A

    def test_record_keys(self):
        assert set(config_to_record(CFG_B)) == {"n_cu", "f_cu", "f_mem"}


class TestEventRoundTrip:
    @pytest.mark.parametrize(
        "event", SAMPLE_EVENTS, ids=lambda e: e.event_type)
    def test_round_trip(self, event):
        record = event.to_record()
        assert record["v"] == SCHEMA_VERSION
        assert record["type"] == type(event).__name__
        assert event_from_record(record) == event

    @pytest.mark.parametrize(
        "event", SAMPLE_EVENTS, ids=lambda e: e.event_type)
    def test_record_is_json_compatible(self, event):
        rehydrated = json.loads(json.dumps(event.to_record()))
        assert event_from_record(rehydrated) == event

    def test_wrong_version_rejected(self):
        record = SAMPLE_EVENTS[0].to_record()
        record["v"] = SCHEMA_VERSION + 1
        with pytest.raises(TelemetryError, match="schema version"):
            event_from_record(record)

    def test_unknown_type_rejected(self):
        record = SAMPLE_EVENTS[0].to_record()
        record["type"] = "MysteryEvent"
        with pytest.raises(TelemetryError, match="unknown telemetry event"):
            event_from_record(record)

    def test_missing_field_rejected(self):
        record = SAMPLE_EVENTS[0].to_record()
        del record["power_w"]
        with pytest.raises(TelemetryError, match="missing field"):
            event_from_record(record)

    def test_identity_tuple_restored_as_tuple(self):
        event = SAMPLE_EVENTS[1]
        restored = event_from_record(json.loads(json.dumps(event.to_record())))
        assert restored.identity == (0.5, 1.25, 0.0)
        assert isinstance(restored.identity, tuple)


class TestSchemaManifest:
    def test_current_version_is_recorded(self):
        assert SCHEMA_VERSION in SCHEMA_MANIFEST

    def test_manifest_matches_event_types(self):
        assert SCHEMA_MANIFEST[SCHEMA_VERSION] == tuple(sorted(EVENT_TYPES))

    def test_samples_cover_every_type(self):
        assert {type(e).__name__ for e in SAMPLE_EVENTS} == set(EVENT_TYPES)


def _write_events(path, events):
    """A trace file holding ``events`` as the instants of one span."""
    telemetry = Telemetry()
    with telemetry.span("run"):
        for event in events:
            telemetry.emit(event)
    write_chrome_trace(path, telemetry.spans.records(),
                       telemetry.spans.instants())


class TestTraceFileInstants:
    def test_events_round_trip_as_instants(self, tmp_path):
        path = tmp_path / "trace.json"
        _write_events(path, SAMPLE_EVENTS)
        trace = load_chrome_trace(path)
        assert trace.events == list(SAMPLE_EVENTS)
        assert [span.name for span in trace.spans] == ["run"]

    def test_instants_carry_the_wire_record_inside_their_span(
            self, tmp_path):
        path = tmp_path / "trace.json"
        _write_events(path, SAMPLE_EVENTS)
        events = json.loads(path.read_text())["traceEvents"]
        (span,) = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["args"] for e in instants] == [
            event.to_record() for event in SAMPLE_EVENTS]
        assert [e["name"] for e in instants] == [
            event.event_type for event in SAMPLE_EVENTS]
        for instant in instants:
            assert (instant["pid"], instant["tid"]) == (span["pid"],
                                                        span["tid"])
            assert span["ts"] <= instant["ts"] <= span["ts"] + span["dur"]

    def test_malformed_instant_raises(self, tmp_path):
        path = tmp_path / "trace.json"
        record = SAMPLE_EVENTS[0].to_record()
        del record["power_w"]
        path.write_text(json.dumps({"traceEvents": [
            {"name": "KernelLaunch", "cat": "event", "ph": "i", "ts": 0,
             "pid": 1, "tid": 1, "args": record}]}))
        with pytest.raises(TelemetryError, match="missing field"):
            load_chrome_trace(path)


class TestReplay:
    def test_replay_keeps_only_launches(self):
        trace = ReplayTrace.from_events(SAMPLE_EVENTS)
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.kernel_name == "App.K"
        assert record.config == CFG_A
        assert record.power.card == 180.0

    def test_replay_from_path(self, tmp_path):
        path = tmp_path / "trace.json"
        _write_events(path, SAMPLE_EVENTS)
        replayed = ReplayTrace.from_events(load_chrome_trace(path).events)
        assert replayed.total_time() == pytest.approx(1.5e-3)

    def test_replay_residency_matches_live_trace(self, context):
        from repro.runtime.session import BatchSessionRunner

        telemetry = Telemetry()
        with telemetry.span("run"), telemetry.record_events():
            result = BatchSessionRunner(context.platform).run(
                context.application("Graph500"),
                context.harmonia_policy(),
            )
        replayed = ReplayTrace.from_events(
            instant.event for instant in telemetry.spans.instants())
        assert replayed.f_mem_residency() == result.trace.f_mem_residency()
        assert replayed.f_cu_residency() == result.trace.f_cu_residency()
        assert replayed.cu_residency() == result.trace.cu_residency()
        assert replayed.total_time() == pytest.approx(result.trace.total_time())
