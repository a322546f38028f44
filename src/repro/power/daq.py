"""Simulated National Instruments DAQ power-measurement path.

The paper profiles power "using a National Instruments data acquisition
(DAQ) card (NI PCIe-6353), with a sampling frequency of 1 kHz" (Section 6).
This module reproduces that measurement path: a continuous power trace is
sampled at a fixed rate with optional sensor noise, and energy is recovered
by integrating the samples — which is how all the paper's energy numbers
were actually obtained.

Keeping the measurement path explicit lets tests verify that sampled energy
converges to analytic energy, and lets the benchmarks report numbers the
same way the paper's rig would.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import CalibrationError


class _DaqTraceFields(NamedTuple):
    """The fields of :class:`DaqTrace`, in declaration order."""

    sample_period: float
    samples: Tuple[float, ...]


class DaqTrace(_DaqTraceFields):
    """A sampled power trace.

    Attributes:
        sample_period: seconds between samples.
        samples: power readings (W), one per sample instant.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DaqTrace":
        trace = super().__new__(cls, *args, **kwargs)
        if trace.sample_period <= 0:
            raise CalibrationError("sample_period must be positive")
        return trace

    @property
    def duration(self) -> float:
        """Trace duration (s)."""
        return len(self.samples) * self.sample_period

    def energy(self) -> float:
        """Energy (J) by rectangle-rule integration of the samples."""
        return float(sum(self.samples)) * self.sample_period

    def average_power(self) -> float:
        """Mean power (W) over the trace."""
        if not self.samples:
            return 0.0
        return float(np.mean(self.samples))


class DaqCard:
    """A power meter sampling a piecewise-constant power signal.

    Args:
        sampling_frequency: samples per second (the paper's rig: 1000).
        noise_std: Gaussian sensor noise standard deviation (W).
        seed: RNG seed for reproducible noise.
    """

    def __init__(self, sampling_frequency: float = 1000.0,
                 noise_std: float = 0.0, seed: int = 0):
        if sampling_frequency <= 0:
            raise CalibrationError("sampling_frequency must be positive")
        if noise_std < 0:
            raise CalibrationError("noise_std must be non-negative")
        self._period = 1.0 / sampling_frequency
        self._noise_std = noise_std
        self._rng = np.random.default_rng(seed)

    @property
    def sample_period(self) -> float:
        """Seconds between samples."""
        return self._period

    def sample_segments(self, segments: Sequence[Tuple[float, float]]) -> DaqTrace:
        """Sample a piecewise-constant power signal.

        Args:
            segments: sequence of ``(duration_s, power_w)`` pieces, e.g.
                one piece per kernel launch.

        Returns:
            The sampled :class:`DaqTrace`. Sampling instants fall at
            ``k * period`` from the start of the signal; a segment shorter
            than one period may contribute zero samples (exactly as a real
            1 kHz rig under-samples microsecond kernels).
        """
        samples: List[float] = []
        boundaries: List[Tuple[float, float, float]] = []
        start = 0.0
        for duration, power in segments:
            if duration < 0:
                raise CalibrationError("segment duration must be non-negative")
            boundaries.append((start, start + duration, power))
            start += duration

        total = start
        n_samples = int(total / self._period)
        seg_idx = 0
        for k in range(n_samples):
            t = k * self._period
            while seg_idx < len(boundaries) - 1 and t >= boundaries[seg_idx][1]:
                seg_idx += 1
            power = boundaries[seg_idx][2] if boundaries else 0.0
            if self._noise_std > 0:
                power += float(self._rng.normal(0.0, self._noise_std))
            samples.append(max(0.0, power))
        return DaqTrace(sample_period=self._period, samples=tuple(samples))
