"""Table 1: the HD7970 GPU DVFS table.

DPM0 300 MHz @ 0.85 V, DPM1 500 MHz @ 0.95 V, DPM2 925 MHz @ 1.17 V, plus
the Section 2.3 boost state (1 GHz @ 1.19 V). The experiment verifies the
library's DVFS table and the interpolated voltage curve against it.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.units import MHZ, hz_to_mhz

#: (state, frequency MHz, voltage V) as printed in the paper.
PAPER_TABLE1: Tuple[Tuple[str, float, float], ...] = (
    ("DPM0", 300.0, 0.85),
    ("DPM1", 500.0, 0.95),
    ("DPM2", 925.0, 1.17),
    ("BOOST", 1000.0, 1.19),
)


class DvfsTableResult(NamedTuple):
    """Library DVFS states next to the paper's Table 1."""

    rows: Tuple[Tuple[str, float, float, float, float], ...]

    def max_voltage_error(self) -> float:
        """Largest absolute voltage deviation from the paper (V)."""
        return max(abs(row[2] - row[4]) for row in self.rows)


def run(context: ExperimentContext) -> DvfsTableResult:
    """Compare the library's DVFS table against the paper's Table 1."""
    table = context.platform.calibration.arch.dvfs_table
    rows = []
    for name, freq_mhz, volts in PAPER_TABLE1:
        state = table.state_named(name)
        rows.append((
            name,
            freq_mhz,
            volts,
            hz_to_mhz(state.frequency),
            state.voltage,
        ))
    return DvfsTableResult(rows=tuple(rows))


def format_report(result: DvfsTableResult) -> str:
    """Render paper-vs-library DVFS states."""
    rows = [
        (name, f"{p_f:.0f}", f"{p_v:.2f}", f"{l_f:.0f}", f"{l_v:.2f}")
        for name, p_f, p_v, l_f, l_v in result.rows
    ]
    return format_table(
        headers=("state", "paper MHz", "paper V", "library MHz", "library V"),
        rows=rows,
        title="Table 1: AMD HD7970 GPU DVFS table",
    )
