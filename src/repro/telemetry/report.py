"""Trace summarization: the ``repro telemetry-report`` backend.

Turns a loaded event stream into the views the paper's evaluation builds
by hand: the Figure 18 CG/FG action mix per kernel, the phase-change
timeline, the Figure 15/16 residency tables (via the replayed trace) and
the top kernels by run time. It also renders the one-line cache and
engine summaries of a ``--metrics-out`` export. The event and replay
modules load inside :func:`summarize`, so a metrics-only report costs no
event-schema import. ``reproduce`` loads none of this module: it prints
its cache line with
:func:`~repro.platform.sweepcache.format_cache_effectiveness`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple)

from repro.analysis.report import format_table
from repro.errors import TelemetryError
from repro.platform.sweepcache import format_cache_effectiveness
from repro.units import hz_to_mhz

if TYPE_CHECKING:
    from repro.telemetry.events import TelemetryEvent
    from repro.telemetry.export import ReplayTrace


class KernelActionMix:
    """Per-kernel controller-action tallies (the Figure 18 split)."""

    __slots__ = ("kernel", "launches", "time_s", "phase_changes",
                 "cg_jumps", "fg_steps", "fg_reverts", "fg_converged",
                 "recalls")

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.time_s = 0.0
        self.launches = self.phase_changes = self.cg_jumps = 0
        self.fg_steps = self.fg_reverts = self.fg_converged = self.recalls = 0


class TraceSummary(NamedTuple):
    """Everything the telemetry report renders."""

    events: int
    launches: int
    total_time_s: float
    mix: Tuple[KernelActionMix, ...]
    #: (iteration, kernel, phase_index) per PhaseChange, in stream order
    phase_timeline: Tuple[Tuple[int, str, int], ...]
    trace: ReplayTrace

    def totals(self) -> KernelActionMix:
        """Action tallies summed over all kernels."""
        total = KernelActionMix(kernel="TOTAL")
        for row in self.mix:
            total.launches += row.launches
            total.time_s += row.time_s
            total.phase_changes += row.phase_changes
            total.cg_jumps += row.cg_jumps
            total.fg_steps += row.fg_steps
            total.fg_reverts += row.fg_reverts
            total.fg_converged += row.fg_converged
            total.recalls += row.recalls
        return total


def summarize(events: Sequence[TelemetryEvent]) -> TraceSummary:
    """Fold an event stream into a :class:`TraceSummary`."""
    from repro.telemetry.events import (
        CGJump, ConfigApplied, FGConverged, FGRevert, FGStep, KernelLaunch,
        PhaseChange)
    from repro.telemetry.export import ReplayTrace

    mix: Dict[str, KernelActionMix] = {}
    timeline: List[Tuple[int, str, int]] = []

    def row(kernel: str) -> KernelActionMix:
        if kernel not in mix:
            mix[kernel] = KernelActionMix(kernel=kernel)
        return mix[kernel]

    for event in events:
        if isinstance(event, KernelLaunch):
            entry = row(event.kernel)
            entry.launches += 1
            entry.time_s += event.time_s
        elif isinstance(event, PhaseChange):
            row(event.kernel).phase_changes += 1
            timeline.append((event.iteration, event.kernel,
                             event.phase_index))
        elif isinstance(event, CGJump):
            row(event.kernel).cg_jumps += 1
        elif isinstance(event, FGStep):
            row(event.kernel).fg_steps += 1
        elif isinstance(event, FGRevert):
            row(event.kernel).fg_reverts += 1
        elif isinstance(event, FGConverged):
            row(event.kernel).fg_converged += 1
        elif isinstance(event, ConfigApplied):
            if event.source == "recall":
                row(event.kernel).recalls += 1

    trace = ReplayTrace.from_events(events)
    ordered = tuple(sorted(mix.values(), key=lambda r: r.kernel))
    return TraceSummary(
        events=len(events),
        launches=len(trace),
        total_time_s=sum(r.time_s for r in ordered),
        mix=ordered,
        phase_timeline=tuple(timeline),
        trace=trace,
    )


def _format_mix(summary: TraceSummary) -> str:
    rows = []
    for entry in list(summary.mix) + [summary.totals()]:
        rows.append((
            entry.kernel, str(entry.launches), str(entry.phase_changes),
            str(entry.cg_jumps), str(entry.fg_steps), str(entry.fg_reverts),
            str(entry.fg_converged), str(entry.recalls),
        ))
    return format_table(
        headers=("kernel", "launches", "phases", "CG jumps", "FG steps",
                 "FG reverts", "converged", "recalls"),
        rows=rows,
        title="Controller action mix per kernel (the Figure 18 CG/FG split)",
    )


def _format_timeline(summary: TraceSummary, limit: int = 20) -> str:
    if not summary.phase_timeline:
        return "Phase-change timeline: (no phase changes recorded)"
    rows = [(str(iteration), kernel, str(index))
            for iteration, kernel, index in summary.phase_timeline[:limit]]
    suffix = ""
    if len(summary.phase_timeline) > limit:
        suffix = (f"\n  ... {len(summary.phase_timeline) - limit} further "
                  "phase changes elided")
    return format_table(
        headers=("iteration", "kernel", "phase #"),
        rows=rows,
        title="Phase-change timeline",
    ) + suffix


def _format_residency(summary: TraceSummary) -> str:
    if len(summary.trace) == 0:
        return "Residency: (no KernelLaunch events in trace)"
    sections = []
    for label, table, fmt in (
        ("memory bus", summary.trace.f_mem_residency(),
         lambda v: f"{hz_to_mhz(v):.0f} MHz"),
        ("compute frequency", summary.trace.f_cu_residency(),
         lambda v: f"{hz_to_mhz(v):.0f} MHz"),
        ("active CUs", summary.trace.cu_residency(),
         lambda v: f"{v:.0f} CU"),
    ):
        rows = [(fmt(value), f"{fraction:.1%}")
                for value, fraction in sorted(table.fractions.items())]
        sections.append(format_table(
            headers=(label, "residency"),
            rows=rows,
            title=f"Residency: {label} (Figures 15/16)",
        ))
    return "\n\n".join(sections)


def _format_top_kernels(summary: TraceSummary, limit: int = 8) -> str:
    by_time = sorted(summary.mix, key=lambda r: r.time_s, reverse=True)
    total = summary.total_time_s or 1.0
    rows = [
        (entry.kernel, f"{entry.time_s * 1e3:.2f}",
         f"{entry.time_s / total:.1%}", str(entry.launches))
        for entry in by_time[:limit]
    ]
    return format_table(
        headers=("kernel", "time ms", "share", "launches"),
        rows=rows,
        title="Top kernels by run time",
    )


def format_report(summary: TraceSummary) -> str:
    """Render the full telemetry report."""
    header = (f"telemetry trace: {summary.events} events, "
              f"{summary.launches} launches, "
              f"{summary.total_time_s * 1e3:.2f} ms total run time")
    return "\n\n".join([
        header,
        _format_mix(summary),
        _format_timeline(summary),
        _format_residency(summary),
        _format_top_kernels(summary),
    ])


# --- sweep-cache effectiveness ---------------------------------------------------


def check_metrics_export(metrics: object) -> None:
    """Check that ``metrics`` has the shape ``--metrics-out`` writes: an
    object of instruments, each with a list of samples whose labels are
    an object and whose value, if any, is a number.

    Raises:
        TelemetryError: naming the first part that does not fit.
    """
    if not isinstance(metrics, dict):
        raise TelemetryError(f"expected a JSON object of metrics, got "
                             f"{type(metrics).__name__}")
    for name, instrument in metrics.items():
        samples = (instrument.get("samples", [])
                   if isinstance(instrument, dict) else None)
        if not (isinstance(samples, list) and all(
                isinstance(sample, dict)
                and isinstance(sample.get("labels", {}), dict)
                and isinstance(sample.get("value", 0.0), (int, float))
                for sample in samples)):
            raise TelemetryError(f"metric {name!r} is not an exported "
                                 f"instrument with a list of samples")


def _counter_total(metrics: Dict, name: str, **labels: str) -> float:
    """Sum a counter's samples whose labels include ``labels``."""
    instrument = metrics.get(name)
    if not instrument:
        return 0.0
    total = 0.0
    for sample in instrument.get("samples", ()):
        sample_labels = sample.get("labels", {})
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += sample.get("value", 0.0)
    return total


def eventsim_engine_from_metrics(metrics: Dict) -> Optional[str]:
    """One line on the lanes the batched lockstep event engine ran; None
    when the export holds no eventsim series — e.g. the surfaces were all
    served from the sweep store and no engine ran at all."""
    if "eventsim_batch_lanes_total" not in metrics:
        return None
    lanes = _counter_total(metrics, "eventsim_batch_lanes_total")
    return f"eventsim: {int(lanes)} lanes via the batched lockstep engine"


def cache_effectiveness_from_metrics(metrics: Dict) -> Optional[str]:
    """The cache-effectiveness line from an exported metrics registry
    (the JSON written by ``--metrics-out``); None when the export holds
    no sweep-cache series."""
    names = ("sweep_cache_hits_total", "sweep_cache_misses_total",
             "sweep_store_hits_total", "sweep_store_misses_total",
             "sweep_store_bytes")
    if not any(name in metrics for name in names):
        return None
    memory_hits = _counter_total(metrics, "sweep_cache_hits_total",
                                 tier="memory")
    memory_misses = _counter_total(metrics, "sweep_cache_misses_total",
                                   tier="memory")
    store_hits = _counter_total(metrics, "sweep_cache_hits_total",
                                tier="store")
    store_misses = _counter_total(metrics, "sweep_cache_misses_total",
                                  tier="store")
    if store_hits == store_misses == 0:
        # Fall back to the store's own live counters (e.g. a metrics
        # export taken before SweepCache.publish ran).
        store_hits = _counter_total(metrics, "sweep_store_hits_total")
        store_misses = _counter_total(metrics, "sweep_store_misses_total")
    return format_cache_effectiveness(
        int(memory_hits), int(memory_misses),
        int(store_hits), int(store_misses),
        bytes_read=_counter_total(metrics, "sweep_store_bytes",
                                  direction="read"),
        bytes_written=_counter_total(metrics, "sweep_store_bytes",
                                     direction="write"),
    )
