"""GDDR5 bank and row-buffer model: deriving controller efficiency.

The memory-controller model (:mod:`repro.memory.controller`) derates pin
bandwidth by an ``access_efficiency`` constant per kernel. This module
grounds those constants: given a description of a kernel's address
stream — row-buffer locality, read/write mix, bank spread — it computes
the scheduling efficiency a GDDR5 controller would achieve, from the
standard timing mechanics:

* a **row hit** costs only the burst transfer (CAS-to-CAS),
* a **row miss** forces precharge + activate before the burst, and banks
  can hide that latency from each other only as far as the stream spreads
  across banks (and tFAW limits the activate rate),
* **read/write turnarounds** idle the bus for a bus-turnaround penalty.

The model answers two questions: (i) what efficiency should a kernel
descriptor use (so the suite constants are auditable rather than free),
and (ii) how does efficiency respond to locality — the reason SPMV/BPT
(pointer-chasing, ~50%) sit so far below Stencil (streaming, ~85%).

No report reads this model: it is the calibration audit behind
``tests/test_banks.py``, so it lives beside that test, not in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CalibrationError


@dataclass(frozen=True)
class AccessPattern:
    """A kernel's DRAM address-stream characteristics.

    Attributes:
        row_hit_rate: fraction of accesses hitting an open row, in [0, 1].
        write_fraction: fraction of accesses that are writes, in [0, 1].
        bank_spread: fraction of the device's banks the stream keeps
            active concurrently, in (0, 1].
        burst_switch_rate: fraction of consecutive accesses that switch
            between reads and writes (bus turnarounds), in [0, 1]. Defaults
            to the uncorrelated estimate ``2 w (1 - w)``.
    """

    row_hit_rate: float
    write_fraction: float = 0.2
    bank_spread: float = 1.0
    burst_switch_rate: float = -1.0

    def __post_init__(self) -> None:
        if not 0 <= self.row_hit_rate <= 1:
            raise CalibrationError("row_hit_rate must be in [0, 1]")
        if not 0 <= self.write_fraction <= 1:
            raise CalibrationError("write_fraction must be in [0, 1]")
        if not 0 < self.bank_spread <= 1:
            raise CalibrationError("bank_spread must be in (0, 1]")
        if self.burst_switch_rate != -1.0 and not 0 <= self.burst_switch_rate <= 1:
            raise CalibrationError("burst_switch_rate must be in [0, 1]")

    @property
    def effective_switch_rate(self) -> float:
        """Turnaround rate (defaulted to the uncorrelated estimate)."""
        if self.burst_switch_rate >= 0:
            return self.burst_switch_rate
        w = self.write_fraction
        return 2.0 * w * (1.0 - w)


@dataclass(frozen=True)
class BankTiming:
    """GDDR5 bank timing in bus-clock cycles (command clock).

    Typical GDDR5 values at ~1.4 GHz command clock.
    """

    #: cycles to transfer one burst on the bus (BL8 on a DDR bus: 4)
    burst_cycles: float = 4.0
    #: row-cycle time: activate -> activate on the same bank (tRC)
    row_cycle: float = 60.0
    #: activate-to-read delay (tRCD) + precharge (tRP) exposed on a miss
    miss_penalty: float = 30.0
    #: bus idle cycles on a read<->write turnaround
    turnaround_cycles: float = 8.0
    #: four-activate window (tFAW) in cycles
    faw_cycles: float = 32.0
    #: number of banks per channel
    banks: int = 16
    #: scheduler write-batching factor: controllers drain writes in
    #: groups, so bus turnarounds happen once per batch rather than once
    #: per uncorrelated read/write switch
    turnaround_batch: float = 16.0

    def __post_init__(self) -> None:
        for name in ("burst_cycles", "row_cycle", "miss_penalty",
                     "turnaround_cycles", "faw_cycles", "turnaround_batch"):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        if self.banks < 1:
            raise CalibrationError("banks must be >= 1")


#: Representative GDDR5 timing.
DEFAULT_GDDR5_BANK_TIMING = BankTiming()


def scheduling_efficiency(pattern: AccessPattern,
                          timing: BankTiming = DEFAULT_GDDR5_BANK_TIMING) -> float:
    """Fraction of pin bandwidth a controller sustains for ``pattern``.

    Per-access bus occupancy is the burst itself plus the *exposed* share
    of the row-miss penalty plus turnaround idles:

    * each miss costs ``miss_penalty`` cycles, but concurrent banks hide
      it: with ``n`` banks active, up to ``n - 1`` other bursts can
      transfer during one bank's activate/precharge, so the exposed
      penalty divides by the bank-level parallelism;
    * the activate rate is additionally capped by tFAW (at most four
      activates per ``faw_cycles``), which binds for very miss-heavy
      streams;
    * turnarounds idle the bus outright.

    Returns:
        Efficiency in (0, 1].
    """
    miss_rate = 1.0 - pattern.row_hit_rate
    active_banks = max(1.0, pattern.bank_spread * timing.banks)

    # Exposed miss penalty after bank-level overlap.
    exposed_miss = timing.miss_penalty / active_banks
    # tFAW: four activates per window -> minimum cycles per activate.
    faw_floor = timing.faw_cycles / 4.0
    # The stream's average activate spacing is burst_cycles / miss_rate;
    # if tFAW demands more, the difference is exposed on the bus.
    if miss_rate > 0:
        spacing = timing.burst_cycles / miss_rate
        faw_exposed = max(0.0, faw_floor - spacing)
    else:
        faw_exposed = 0.0

    turnarounds = (pattern.effective_switch_rate
                   / timing.turnaround_batch)
    per_access = (
        timing.burst_cycles
        + miss_rate * (exposed_miss + faw_exposed)
        + turnarounds * timing.turnaround_cycles
    )
    return timing.burst_cycles / per_access


#: Named reference patterns with the efficiencies the workload suite uses.
REFERENCE_PATTERNS = {
    # Streaming, unit stride, deep prefetch: Stencil / DeviceMemory class.
    "streaming": AccessPattern(row_hit_rate=0.92, write_fraction=0.15,
                               bank_spread=1.0),
    # Regular but blocked: LUD / CoMD force kernels.
    "blocked": AccessPattern(row_hit_rate=0.80, write_fraction=0.2,
                             bank_spread=0.75),
    # Irregular gathers with some locality: SPMV / XSBench.
    "gather": AccessPattern(row_hit_rate=0.45, write_fraction=0.1,
                            bank_spread=0.5),
    # Pointer chasing with divergent lanes: BPT.
    "pointer_chase": AccessPattern(row_hit_rate=0.30, write_fraction=0.08,
                                   bank_spread=0.4),
}


def pattern_for_efficiency(efficiency: float,
                           timing: BankTiming = DEFAULT_GDDR5_BANK_TIMING,
                           write_fraction: float = 0.2,
                           bank_spread: float = 0.75) -> AccessPattern:
    """Invert the model: the row-hit rate that yields ``efficiency``.

    Used to audit the workload suite's ``access_efficiency`` constants:
    every constant must correspond to a physically realizable row-hit
    rate in [0, 1].

    Raises:
        CalibrationError: if no row-hit rate can achieve the efficiency
            under the given mix (efficiency out of the model's range).
    """
    if not 0 < efficiency <= 1:
        raise CalibrationError("efficiency must be in (0, 1]")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pattern = AccessPattern(row_hit_rate=mid,
                                write_fraction=write_fraction,
                                bank_spread=bank_spread)
        if scheduling_efficiency(pattern, timing) < efficiency:
            lo = mid
        else:
            hi = mid
    pattern = AccessPattern(row_hit_rate=hi, write_fraction=write_fraction,
                            bank_spread=bank_spread)
    achieved = scheduling_efficiency(pattern, timing)
    if achieved < efficiency - 0.02:
        raise CalibrationError(
            f"efficiency {efficiency:.2f} unreachable under this mix "
            f"(max {achieved:.2f})"
        )
    return pattern
