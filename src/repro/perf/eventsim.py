"""Event-driven wavefront execution simulator.

An independent, higher-fidelity execution model used to cross-validate the
analytical model in :mod:`repro.perf.model`. Where the analytical model
reasons about aggregate busy times, this one schedules individual
wavefronts onto SIMDs and individual memory requests onto a bandwidth
server:

* each wavefront is split into *segments* — a block of VALU issue cycles
  followed by one vector memory request;
* a CU's four SIMDs issue ready wavefronts in earliest-ready order; a
  segment occupies its SIMD for the block's issue cycles;
* memory requests are serviced by a shared bandwidth server (service time
  = bytes / achievable bandwidth) plus a fixed load latency; a wavefront
  may keep a limited number of requests in flight
  (``outstanding_per_wave``) before it must stall;
* occupancy limits how many wavefronts are resident per SIMD; completed
  waves free their slots for the next ones.

The simulator intentionally shares only the *inputs* with the analytical
model (architecture geometry, achievable bandwidth, DRAM latency): the
execution-time logic is disjoint, so agreement between the two is
evidence, not tautology. To stay fast in pure Python it simulates one
representative CU with a statistically scaled share of the launch and a
capped wave population, then scales time back up.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, NamedTuple, Optional

from repro.errors import AnalysisError
from repro.gpu.architecture import GpuArchitecture
from repro.gpu.clocks import ClockDomainModel
from repro.gpu.config import HardwareConfig
from repro.gpu.occupancy import compute_occupancy
from repro.memory.controller import MemoryControllerModel
from repro.perf.kernelspec import KernelSpec


class EventSimResult(NamedTuple):
    """Outcome of one event-driven kernel execution."""

    #: simulated execution time (s)
    time: float
    #: wavefronts actually simulated (before scaling)
    simulated_waves: int
    #: total wavefronts the launch comprises
    total_waves: int
    #: fraction of simulated time the SIMDs were issuing
    simd_busy_fraction: float

    @property
    def performance(self) -> float:
        """1 / time."""
        return 1.0 / self.time


class _Wave:
    """One wavefront's execution state."""

    __slots__ = ("segments_left", "compute_cycles", "inflight", "done_at")

    def __init__(self, segments: int, compute_cycles: float):
        self.segments_left = segments
        self.compute_cycles = compute_cycles
        # Completion times, sorted; a deque because retirement pops from
        # the front (list.pop(0) shifts the whole buffer each time).
        self.inflight: Deque[float] = deque()
        self.done_at: Optional[float] = None


class _LaneParams(NamedTuple):
    """Everything the event loop needs, derived once per (spec, config).

    The batched engine (:mod:`repro.perf.eventsim_batch`) runs many
    lanes in lockstep but derives each lane's parameters through this
    exact function, so the per-lane constants feeding both loops are
    the same float64 values — a precondition of the bitwise-equivalence
    contract.
    """

    simulated: int
    total_waves: int
    scale: float
    segments: int
    compute_per_segment: float
    bytes_per_segment: float
    service_time: float
    load_latency: float
    max_inflight: int
    resident_limit: int
    launch_overhead: float
    simds_per_cu: int


def _derive_lane_params(arch: GpuArchitecture,
                        controller: MemoryControllerModel,
                        clock_domains: ClockDomainModel,
                        max_waves: int,
                        spec: KernelSpec,
                        config: HardwareConfig) -> _LaneParams:
    """The scalar ``run`` setup, extracted verbatim (same ops, same order)."""
    occupancy = compute_occupancy(
        arch,
        vgprs_per_workitem=spec.vgprs_per_workitem,
        sgprs_per_wave=spec.sgprs_per_wave,
        lds_bytes_per_workgroup=spec.lds_bytes_per_workgroup,
        workgroup_size=spec.workgroup_size,
    )
    total_waves = math.ceil(spec.total_workitems / arch.wavefront_width)
    waves_per_cu = max(1, math.ceil(total_waves / config.n_cu))
    simulated = min(waves_per_cu, max_waves)
    scale = waves_per_cu / simulated

    # --- shared inputs with the analytical model -------------------
    hit = spec.effective_l2_hit_rate(config.n_cu, arch.max_compute_units)
    limits = controller.achievable_bandwidth(
        f_mem=config.f_mem,
        n_cu=config.n_cu,
        waves_per_simd=occupancy.waves_per_simd,
        outstanding_per_wave=spec.outstanding_per_wave,
        access_efficiency=spec.access_efficiency,
    )
    crossing = clock_domains.crossing_bandwidth(config.f_cu)
    # Per-CU share of the efficiency/crossing-limited bandwidth. The
    # MLP limit is *emergent* here (waves stall on their own window),
    # so only the pin/crossing limits parameterize the server.
    subsystem_bw = min(limits.efficiency_limited, crossing)
    per_cu_bw = subsystem_bw / config.n_cu

    # --- per-wave structure ---------------------------------------
    mem_ops = spec.mem_insts_per_item
    # Group very memory-dense kernels into at most 64 segments so the
    # event count stays bounded; compute-only kernels get one segment.
    segments = max(1, min(64, int(round(mem_ops)) or 1))
    issue_cycles_per_wave = (
        spec.valu_insts_per_item / max(spec.lane_utilization, 1e-6)
        + spec.mem_insts_per_item
    ) * arch.cycles_per_valu_inst
    compute_per_segment = issue_cycles_per_wave / segments / config.f_cu
    dram_bytes_per_wave = (
        spec.footprint_bytes_per_item * arch.wavefront_width * (1.0 - hit)
    )
    bytes_per_segment = dram_bytes_per_wave / segments
    service_time = (
        bytes_per_segment / per_cu_bw if bytes_per_segment > 0 else 0.0
    )
    load_latency = controller.timing.access_latency(config.f_mem)
    max_inflight = max(1, int(round(spec.outstanding_per_wave)))
    resident_limit = occupancy.waves_per_simd * arch.simds_per_cu
    return _LaneParams(
        simulated=simulated,
        total_waves=total_waves,
        scale=scale,
        segments=segments,
        compute_per_segment=compute_per_segment,
        bytes_per_segment=bytes_per_segment,
        service_time=service_time,
        load_latency=load_latency,
        max_inflight=max_inflight,
        resident_limit=resident_limit,
        launch_overhead=spec.launch_overhead,
        simds_per_cu=arch.simds_per_cu,
    )


class EventDrivenModel:
    """Schedules wavefronts onto one representative CU.

    Args:
        arch: the GPU machine description.
        controller: the memory-subsystem bandwidth model (shared input).
        clock_domains: the L2->MC crossing model (shared input).
        max_simulated_waves: wave-population cap per run; launches larger
            than the cap are scaled linearly (steady-state assumption).
    """

    def __init__(self, arch: GpuArchitecture,
                 controller: MemoryControllerModel,
                 clock_domains: ClockDomainModel,
                 max_simulated_waves: int = 256):
        if max_simulated_waves < 8:
            raise AnalysisError("max_simulated_waves must be >= 8")
        self._arch = arch
        self._controller = controller
        self._clock_domains = clock_domains
        self._max_waves = max_simulated_waves

    def run(self, spec: KernelSpec, config: HardwareConfig) -> EventSimResult:
        """Execute ``spec`` at ``config`` on the event simulator."""
        params = _derive_lane_params(
            self._arch, self._controller, self._clock_domains,
            self._max_waves, spec, config,
        )
        simulated = params.simulated
        total_waves = params.total_waves
        scale = params.scale
        segments = params.segments
        compute_per_segment = params.compute_per_segment
        bytes_per_segment = params.bytes_per_segment
        service_time = params.service_time
        load_latency = params.load_latency
        max_inflight = params.max_inflight
        resident_limit = params.resident_limit
        arch = self._arch

        # --- event loop --------------------------------------------------
        waves = [_Wave(segments, compute_per_segment) for _ in range(simulated)]
        # SIMD availability as a min-heap of free times.
        simd_free = [0.0] * arch.simds_per_cu
        heapq.heapify(simd_free)
        server_free = 0.0
        busy_time = 0.0

        # Admission: only `resident_limit` waves are in flight at once.
        admitted = min(resident_limit, len(waves))
        ready: list = [(0.0, i) for i in range(admitted)]
        heapq.heapify(ready)
        next_admission = admitted
        completed = 0
        finish_time = 0.0

        while completed < len(waves):
            ready_at, index = heapq.heappop(ready)
            wave = waves[index]

            # Respect the wave's memory window: it may only issue its next
            # segment when it has an in-flight slot available.
            if len(wave.inflight) >= max_inflight:
                blocked_until = wave.inflight.popleft()
                ready_at = max(ready_at, blocked_until)
            # Retire any completed requests.
            while wave.inflight and wave.inflight[0] <= ready_at:
                wave.inflight.popleft()

            simd_at = heapq.heappop(simd_free)
            start = max(ready_at, simd_at)
            issue_end = start + wave.compute_cycles
            heapq.heappush(simd_free, issue_end)
            busy_time += wave.compute_cycles
            wave.segments_left -= 1

            if bytes_per_segment > 0:
                # The request queues at the shared bandwidth server.
                service_start = max(issue_end, server_free)
                server_free = service_start + service_time
                completion = server_free + load_latency
                wave.inflight.append(completion)

            if wave.segments_left > 0:
                heapq.heappush(ready, (issue_end, index))
                continue

            # Wave finished issuing; it completes when its last request
            # lands.
            wave.done_at = (
                wave.inflight[-1] if wave.inflight else issue_end
            )
            finish_time = max(finish_time, wave.done_at)
            completed += 1
            if next_admission < len(waves):
                heapq.heappush(ready, (wave.done_at, next_admission))
                next_admission += 1

        total_time = finish_time * scale + spec.launch_overhead
        simd_capacity = finish_time * arch.simds_per_cu
        busy_fraction = busy_time / simd_capacity if simd_capacity > 0 else 0.0
        return EventSimResult(
            time=total_time,
            simulated_waves=simulated,
            total_waves=total_waves,
            simd_busy_fraction=min(1.0, busy_fraction),
        )
