"""GPU DVFS states and the voltage/frequency curve.

Paper Table 1 gives three named DPM states for the HD7970::

    DPM0   300 MHz   0.85 V
    DPM1   500 MHz   0.95 V
    DPM2   925 MHz   1.17 V

plus a boost state of 1 GHz at 1.19 V (Section 2.3). Harmonia, however,
tunes compute frequency over the full 300 MHz..1 GHz range in 100 MHz steps
(Section 3.1), with "voltage also scaled as noted in Table 1" (Section 6).
We therefore expose both the discrete DPM table and a piecewise-linear
voltage curve interpolated through the four published (f, V) points, which
is what the power model uses for arbitrary frequencies on the step grid.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from repro.errors import ConfigurationError
from repro.units import GHZ, MHZ

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DvfsState:
    """One named DVFS operating point.

    Attributes:
        name: the vendor state name (``DPM0`` .. ``DPM2`` or ``BOOST``).
        frequency: core frequency in Hz.
        voltage: supply voltage in volts.
    """

    name: str
    frequency: float
    voltage: float

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ConfigurationError(f"DVFS state {self.name!r} has non-positive frequency")
        if self.voltage <= 0:
            raise ConfigurationError(f"DVFS state {self.name!r} has non-positive voltage")


@dataclass(frozen=True)
class GpuDvfsTable:
    """The set of DVFS states for a GPU, with voltage interpolation.

    The table is ordered by ascending frequency. :meth:`voltage_at`
    interpolates linearly between published points and clamps at the ends,
    mirroring how a real voltage plane is programmed from a fused V/f curve.
    """

    states: Tuple[DvfsState, ...]

    def __post_init__(self) -> None:
        if len(self.states) < 2:
            raise ConfigurationError("a DVFS table needs at least two states")
        freqs = [s.frequency for s in self.states]
        if freqs != sorted(freqs):
            raise ConfigurationError("DVFS states must be ordered by ascending frequency")
        if len(set(freqs)) != len(freqs):
            raise ConfigurationError("DVFS states must have distinct frequencies")

    @property
    def min_frequency(self) -> float:
        """Lowest frequency in the table, in Hz."""
        return self.states[0].frequency

    @property
    def max_frequency(self) -> float:
        """Highest frequency in the table (the boost state), in Hz."""
        return self.states[-1].frequency

    def state_named(self, name: str) -> DvfsState:
        """Return the state with the given name.

        Raises:
            ConfigurationError: if no state has that name.
        """
        for state in self.states:
            if state.name == name:
                return state
        raise ConfigurationError(f"no DVFS state named {name!r}")

    def voltage_at(self, frequency: float) -> float:
        """Supply voltage (V) required to run at ``frequency`` (Hz).

        Linear interpolation between published points; clamped to the end
        voltages outside the table range (a real part cannot run outside
        its fused curve, but the power model should stay total).
        """
        if frequency <= 0:
            raise ConfigurationError("frequency must be positive")
        freqs = [s.frequency for s in self.states]
        volts = [s.voltage for s in self.states]
        if frequency <= freqs[0]:
            return volts[0]
        if frequency >= freqs[-1]:
            return volts[-1]
        idx = bisect.bisect_right(freqs, frequency)
        f_lo, f_hi = freqs[idx - 1], freqs[idx]
        v_lo, v_hi = volts[idx - 1], volts[idx]
        frac = (frequency - f_lo) / (f_hi - f_lo)
        return v_lo + frac * (v_hi - v_lo)

    def voltage_at_many(self, frequencies: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`voltage_at` over an array of frequencies (Hz).

        The arithmetic mirrors the scalar path operation for operation so
        batched power evaluation agrees with per-launch evaluation.
        """
        import numpy as np

        frequencies = np.asarray(frequencies, dtype=np.float64)
        if np.any(frequencies <= 0):
            raise ConfigurationError("frequency must be positive")
        freqs = np.array([s.frequency for s in self.states])
        volts = np.array([s.voltage for s in self.states])
        idx = np.clip(np.searchsorted(freqs, frequencies, side="right"),
                      1, len(freqs) - 1)
        f_lo, f_hi = freqs[idx - 1], freqs[idx]
        v_lo, v_hi = volts[idx - 1], volts[idx]
        frac = (frequencies - f_lo) / (f_hi - f_lo)
        voltage = v_lo + frac * (v_hi - v_lo)
        voltage = np.where(frequencies <= freqs[0], volts[0], voltage)
        return np.where(frequencies >= freqs[-1], volts[-1], voltage)


#: Paper Table 1 plus the Section 2.3 boost state.
HD7970_DVFS_TABLE = GpuDvfsTable(
    states=(
        DvfsState("DPM0", 300 * MHZ, 0.85),
        DvfsState("DPM1", 500 * MHZ, 0.95),
        DvfsState("DPM2", 925 * MHZ, 1.17),
        DvfsState("BOOST", 1 * GHZ, 1.19),
    )
)
