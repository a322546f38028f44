"""Lane-major lockstep batch engine for the event-driven simulator.

:class:`~repro.perf.eventsim.EventDrivenModel` steps one heap event at a
time in pure Python — ~1.4us per event, and the cold ``reproduce``
critical path runs two million of them. This module replays the *same*
event loop for many independent (kernel-spec, config) **lanes** at once,
one numpy ufunc per loop statement across all lanes, so the Python
interpreter executes per *event wavefront* instead of per event.

Equivalence contract (the PR 2 batch-sweep / PR 7 batched-controller
contract): every lane performs **the exact same float64 operations in
the exact same order** as a scalar ``EventDrivenModel.run`` of that
(spec, config), so every ``EventSimResult`` field is bitwise-identical.
The scalar loop stays in the tree as the differential oracle
(``tests/test_eventsim_batch.py``).

Why lockstep is exact
---------------------

The scalar loop pops the ready heap exactly once per iteration and the
heap is never empty while waves remain, so a lane's k-th loop iteration
is its k-th heap event — lanes never idle and never diverge in *shape*,
only in values. Each lane therefore runs exactly
``simulated_waves x segments`` iterations, a number known before the
loop starts. Lanes are sorted by descending event count and simply drop
off the end of the active prefix at precomputed iterations: no masking,
no "parked lane" state, every active lane does real work every
iteration.

State layout (per block of lanes)
---------------------------------

* **Ready queue** — the heap's contents as per-lane slot columns:
  ``tb[slot, lane]`` holds each entry's ready time *as its int64 bit
  pattern* (times are non-negative floats, so integer order equals
  float order; empty slots hold +inf bits) and ``ri[slot, lane]`` the
  entry's wave index, stored **inverted** (``K - index`` for a
  dtype-max constant ``K``) in the narrowest dtype that fits.
  ``heapq`` pops the lexicographic minimum ``(time, index)``; the pop
  is a column min over ``tb``, an equality mask, and a column max over
  ``mask * inverted_index`` — max of ``K - index`` is the min index,
  and the multiply zeroes losing slots out of the race. A wave
  sits in at most one slot, tracked through an inverse map
  (``pos[wave] -> flat slot address``) so state write-back is three
  1-d scatters. A lane only ever occupies
  ``min(resident_limit, simulated)`` slots, so the slot axis also
  shrinks with the active prefix.
* **SIMD free heap** — ``simds_per_cu`` sorted registers per lane
  (ascending). Popping the min is register 0; pushing ``issue_end``
  re-sorts by a fixed compare-exchange chain. A sorted register file
  and a binary heap are the same multiset with the same minimum, which
  is all the scalar loop observes. (An ``argmin``-scatter replacement
  of one minimal register would also preserve the multiset, but
  ``np.argmin`` costs several times the whole exchange chain.)
* **In-flight windows** — the per-wave completion deque becomes a ring
  of ``M`` (power of two >= ``max_inflight``) float slots per wave,
  and the scalar loop's stall handling collapses to a single
  ``maximum``. The scalar loop blocks a wave when all ``max_inflight``
  window slots are occupied, waiting until its oldest in-flight request
  completes (then retires everything older than the new ready time).
  Completions are appended in non-decreasing order per wave (they all
  ride the lane's monotone bandwidth server), so the oldest *live*
  entry is the one appended ``max_inflight`` appends ago, at ring
  position ``(appends - max_inflight) mod M`` — and when that entry is
  already retired, its value is at most the wave's previous effective
  ready time, which never exceeds the current pop time (a wave's heap
  re-entry time is its previous ``issue_end``, which is >= its previous
  ready time). Either way,
  ``ready_at = max(pop_time, ring[(appends - max_inflight) mod M])``
  reproduces the scalar blocked/not-blocked result exactly, with no
  retirement bookkeeping at all: retirement is implied, never stored.
  Ring reuse is safe because at any append at most ``max_inflight``
  entries are live, so the slot being overwritten (``M`` appends old)
  is always dead; never-written slots read ``-inf`` and lose the max.
  (Sizing rings at exactly ``max_inflight`` would make the read and
  write address coincide, but the slot then needs an integer-division
  mod, which costs more than the subtract it saves.)

All per-lane setup constants come from
:func:`repro.perf.eventsim._derive_lane_params` — the scalar setup
path, extracted — so both engines feed identical float64 constants into
identical loop arithmetic.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.gpu.architecture import GpuArchitecture
from repro.gpu.clocks import ClockDomainModel
from repro.gpu.config import HardwareConfig
from repro.memory.controller import MemoryControllerModel
from repro.perf.eventsim import EventSimResult, _derive_lane_params, _LaneParams
from repro.perf.kernelspec import KernelSpec

#: int64 bit pattern of float64 +inf (empty ready slot).
_INF_BITS = np.float64(np.inf).view(np.int64).item()


def _finalize(params: _LaneParams, finish_time: float,
              busy_time: float) -> EventSimResult:
    """The scalar loop's result assembly, expression for expression."""
    total_time = finish_time * params.scale + params.launch_overhead
    simd_capacity = finish_time * params.simds_per_cu
    busy_fraction = busy_time / simd_capacity if simd_capacity > 0 else 0.0
    return EventSimResult(
        time=total_time,
        simulated_waves=params.simulated,
        total_waves=params.total_waves,
        simd_busy_fraction=min(1.0, busy_fraction),
    )


class BatchedEventModel:
    """Runs the event-driven model for many lanes in lockstep.

    Constructor arguments mirror :class:`EventDrivenModel`; a batch of
    one lane computes exactly a scalar run, only slower.

    Args:
        arch: the GPU machine description.
        controller: the memory-subsystem bandwidth model (shared input).
        clock_domains: the L2->MC crossing model (shared input).
        max_simulated_waves: wave-population cap per lane (scalar
            contract: >= 8).
        max_lanes_per_block: lanes simulated per lockstep block; larger
            batches are split to bound the working set (the ready-queue
            arrays are ``O(residency x lanes)``, the wave arrays
            ``O(lanes x waves)``).
    """

    def __init__(self, arch: GpuArchitecture,
                 controller: MemoryControllerModel,
                 clock_domains: ClockDomainModel,
                 max_simulated_waves: int = 256,
                 max_lanes_per_block: int = 4096):
        if max_simulated_waves < 8:
            raise AnalysisError("max_simulated_waves must be >= 8")
        if max_lanes_per_block < 1:
            raise AnalysisError("max_lanes_per_block must be >= 1")
        self._arch = arch
        self._controller = controller
        self._clock_domains = clock_domains
        self._max_waves = max_simulated_waves
        self._max_lanes = max_lanes_per_block

    # --- public API --------------------------------------------------------

    def run_pairs(self, pairs: Sequence[Tuple[KernelSpec, HardwareConfig]]
                  ) -> List[EventSimResult]:
        """Simulate arbitrary (spec, config) lanes; results in input order."""
        params = [
            _derive_lane_params(self._arch, self._controller,
                                self._clock_domains, self._max_waves,
                                spec, config)
            for spec, config in pairs
        ]
        results: List[EventSimResult] = []
        for start in range(0, len(params), self._max_lanes):
            block = params[start:start + self._max_lanes]
            for lane_params, (finish, busy) in zip(block,
                                                   _simulate_block(block)):
                results.append(_finalize(lane_params, finish, busy))
        return results

    def run_batch(self, specs: Sequence[KernelSpec],
                  configs: Sequence[HardwareConfig]
                  ) -> List[List[EventSimResult]]:
        """The spec x config cross product, as ``[i_spec][j_config]``."""
        pairs = [(spec, config) for spec in specs for config in configs]
        flat = self.run_pairs(pairs)
        n = len(configs)
        return [flat[i * n:(i + 1) * n] for i in range(len(specs))]


def _index_dtype(max_waves: int):
    """Narrowest unsigned dtype that can carry inverted wave indices.

    Capped at uint32 so inverted indices subtract exactly from int64
    flat offsets; a wider population would need petabytes of per-wave
    state long before the index math broke.
    """
    for dt in (np.uint8, np.uint16, np.uint32):
        if max_waves - 1 <= np.iinfo(dt).max:
            return dt
    raise AnalysisError(
        f"wave population {max_waves} exceeds the batched engine's "
        "uint32 index space")


def _simulate_block(params: Sequence[_LaneParams]
                    ) -> List[Tuple[float, float]]:
    """Lockstep-simulate one block; returns (finish_time, busy_time) per lane.

    The engine is bound to one architecture, so every lane shares
    ``simds_per_cu``; this is asserted because the SIMD register file is
    shared-shape across lanes.
    """
    n = len(params)
    if n == 0:
        return []
    simds = {p.simds_per_cu for p in params}
    if len(simds) != 1:
        raise AnalysisError("lanes disagree on simds_per_cu")
    n_simds = simds.pop()

    # Lanes sorted by descending event count: a lane's event count is
    # exactly its iteration count, so active lanes are always a prefix
    # and lane retirement happens at precomputed iterations.
    events = [p.simulated * p.segments for p in params]
    order = sorted(range(n), key=lambda i: -events[i])
    ev = np.array([events[i] for i in order], dtype=np.int64)

    # --- per-lane constants (sorted order) --------------------------------
    comp = np.array([params[i].compute_per_segment for i in order])
    stime = np.array([params[i].service_time for i in order])
    lat = np.array([params[i].load_latency for i in order])
    hasmem = np.array([params[i].bytes_per_segment > 0 for i in order])
    segc = np.array([params[i].segments for i in order], dtype=np.int64)
    minf = np.array([params[i].max_inflight for i in order], dtype=np.int64)
    sim = np.array([params[i].simulated for i in order], dtype=np.int64)
    slots_used = np.array(
        [min(params[i].resident_limit, params[i].simulated) for i in order],
        dtype=np.int64,
    )
    allmem = bool(hasmem.all())

    # --- ready queue ------------------------------------------------------
    R = int(slots_used.max())
    pmax = np.maximum.accumulate(slots_used)  # slot rows live per prefix
    maxw = int(sim.max())
    idx_dt = _index_dtype(maxw)
    kinv = np.iinfo(idx_dt).max  # index i is stored inverted as kinv - i

    srange = np.arange(R, dtype=np.int64)
    live0 = srange[:, None] < slots_used[None, :]
    tb = np.where(live0, np.int64(0), np.int64(_INF_BITS))  # time 0.0 bits
    ri = np.where(live0, kinv - srange[:, None], 0).astype(idx_dt)
    tbf = tb.reshape(-1)
    rif = ri.reshape(-1)

    # --- per-wave state (ragged, lane-major) --------------------------------
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sim, out=off[1:])
    laneoff = off[:n].copy()
    total_w = int(off[n])
    # Wave w of lane l lives at flat index laneoff[l] + w.
    seg = np.zeros(total_w, dtype=np.int64)    # segments issued per wave
    wid = np.arange(total_w, dtype=np.int64)
    lane_of = np.repeat(np.arange(n, dtype=np.int64), sim)
    # pos maps wave -> flat address of its ready-queue slot (slot*n+lane).
    pos = (wid - np.repeat(laneoff, sim)) * n + lane_of
    M = 1 << (int(minf.max()) - 1).bit_length()  # window ring size (pow2)
    mmask = np.int64(M - 1)
    ws4 = np.full(total_w * M, -np.inf)          # completion ring slots

    # --- SIMD register file (sorted ascending) ------------------------------
    sv = [np.zeros(n) for _ in range(n_simds)]

    # --- accumulators --------------------------------------------------------
    srv = np.zeros(n)          # shared bandwidth server free time
    busy = np.zeros(n)
    fin = np.zeros(n)
    nadm_inv = kinv - slots_used     # kinv - next admission index
    nwinv = kinv - sim               # admissions remain while nadm_inv > nwinv
    loinv = laneoff + kinv           # flat index = loinv - inverted index

    # --- scratch (full width, sliced per phase) ------------------------------
    eqb = np.empty((R, n), dtype=bool)
    candb = np.empty((R, n), dtype=idx_dt)
    tmin = np.empty(n, dtype=np.int64)
    tminf_full = tmin.view(np.float64)
    wsm = np.empty(n, dtype=idx_dt)
    b64 = [np.empty(n, dtype=np.int64) for _ in range(6)]
    bf = [np.empty(n) for _ in range(8)]
    bb = [np.empty(n, dtype=bool) for _ in range(2)]
    nt = np.empty(n)
    nt64_full = nt.view(np.int64)
    ni = np.empty(n, dtype=idx_dt)

    copyto = np.copyto
    min_reduce = np.minimum.reduce
    max_reduce = np.maximum.reduce
    equal, multiply, subtract = np.equal, np.multiply, np.subtract
    add, maximum, minimum = np.add, np.maximum, np.minimum
    greater, logical_and = np.greater, np.logical_and
    bitwise_and = np.bitwise_and

    # Ascending distinct iteration counts, sorted in plain Python:
    # np.unique imports numpy.ma on first use (~15 ms, ~1 MiB).
    it = 0
    La = n
    for bound in sorted(set(events)):
        steps = bound - it
        it = bound
        Ra = int(pmax[La - 1])
        # Active views. tb/ri row stride stays n (full width): pos holds
        # flat addresses into the full arrays.
        tb_v = tb[:Ra, :La]
        ri_v = ri[:Ra, :La]
        eq_v = eqb[:Ra, :La]
        cand_v = candb[:Ra, :La]
        tmin_v = tmin[:La]
        tminf = tminf_full[:La]
        wsm_v = wsm[:La]
        flat_v, addr_v, sg_v, iss_v, fM_v, x64_v = (b[:La] for b in b64)
        valb_v, ra_v, start_v, ie_v, ss_v, compl_v, tA, tB = (
            b[:La] for b in bf)
        done_v, can_v = (b[:La] for b in bb)
        nt_v = nt[:La]
        nt64_v = nt64_full[:La]
        ni_v = ni[:La]
        loinv_v = loinv[:La]
        comp_v = comp[:La]
        stime_v = stime[:La]
        lat_v = lat[:La]
        hm_v = hasmem[:La]
        segc_v = segc[:La]
        minf_v = minf[:La]
        srv_v = srv[:La]
        busy_v = busy[:La]
        fin_v = fin[:La]
        nadm_inv_v = nadm_inv[:La]
        nwinv_v = nwinv[:La]
        sv_v = [s[:La] for s in sv]
        sv0 = sv_v[0]

        for _ in range(steps):
            # --- pop: lexicographic (ready_at, index) min per lane -----
            min_reduce(tb_v, 0, None, tmin_v)
            equal(tb_v, tmin_v, eq_v)
            multiply(eq_v, ri_v, cand_v)
            max_reduce(cand_v, 0, None, wsm_v)
            subtract(loinv_v, wsm_v, flat_v)
            pos.take(flat_v, None, addr_v, "clip")

            # --- in-flight window: one max covers block and retire -------
            seg.take(flat_v, None, iss_v, "clip")     # appends so far
            subtract(iss_v, minf_v, x64_v)
            bitwise_and(x64_v, mmask, x64_v)
            multiply(flat_v, M, fM_v)
            add(fM_v, x64_v, x64_v)
            ws4.take(x64_v, None, valb_v, "clip")
            maximum(tminf, valb_v, out=ra_v)          # effective ready_at

            # --- issue one segment on the earliest-free SIMD -------------
            add(iss_v, 1, sg_v)
            seg[flat_v] = sg_v
            equal(sg_v, segc_v, done_v)
            maximum(ra_v, sv0, out=start_v)
            add(start_v, comp_v, ie_v)
            carry = ie_v
            tmps = (tA, tB)
            for k in range(1, n_simds - 1):
                tmp = tmps[(k - 1) & 1]
                maximum(sv_v[k], carry, out=tmp)
                minimum(sv_v[k], carry, out=sv_v[k - 1])
                carry = tmp
            last = sv_v[n_simds - 1]
            minimum(last, carry, out=sv_v[n_simds - 2])
            maximum(last, carry, out=last)
            add(busy_v, comp_v, busy_v)

            # --- memory request at the shared bandwidth server ------------
            bitwise_and(iss_v, mmask, iss_v)          # append ring slot
            add(fM_v, iss_v, fM_v)
            if allmem:
                maximum(ie_v, srv_v, out=ss_v)
                add(ss_v, stime_v, srv_v)
                add(srv_v, lat_v, compl_v)
                ws4[fM_v] = compl_v
                done_at = compl_v
            else:
                maximum(ie_v, srv_v, out=ss_v)
                add(ss_v, stime_v, ss_v)
                copyto(srv_v, ss_v, where=hm_v)
                add(srv_v, lat_v, compl_v)
                copyto(ss_v, -np.inf)
                copyto(ss_v, compl_v, where=hm_v)
                ws4[fM_v] = ss_v                      # -inf = no request
                done_at = start_v                     # reuse as scratch
                copyto(done_at, ie_v)
                copyto(done_at, compl_v, where=hm_v)

            # --- completion, admission, ready-queue push -------------------
            maximum(fin_v, done_at, out=ra_v)
            copyto(fin_v, ra_v, where=done_v)
            greater(nadm_inv_v, nwinv_v, can_v)
            logical_and(can_v, done_v, can_v)
            copyto(nt_v, ie_v)
            copyto(nt_v, np.inf, where=done_v)
            copyto(nt_v, done_at, where=can_v)
            copyto(ni_v, wsm_v)
            copyto(ni_v, nadm_inv_v, where=can_v, casting="unsafe")
            subtract(nadm_inv_v, can_v, nadm_inv_v)
            subtract(loinv_v, ni_v, x64_v)
            pos[x64_v] = addr_v
            tbf[addr_v] = nt64_v
            rif[addr_v] = ni_v

        La = int(np.searchsorted(-ev, -bound, side="left"))

    out: List[Tuple[float, float]] = [(0.0, 0.0)] * n
    for sorted_pos, orig in enumerate(order):
        out[orig] = (float(fin[sorted_pos]), float(busy[sorted_pos]))
    return out
