"""Lane-major lockstep batch engine for the event-driven simulator.

:class:`~repro.perf.eventsim.EventDrivenModel` steps one heap event at a
time in pure Python — ~1.4us per event, and the cold ``reproduce``
critical path runs two million of them. This module replays the *same*
event loop for many independent (kernel-spec, config) **lanes** at once,
one numpy call per loop statement across all lanes, so the Python
interpreter executes per *event wavefront* instead of per event.

Equivalence contract: every ``EventSimResult`` field is bitwise-identical
to a scalar ``EventDrivenModel.run`` of that (spec, config). The issue
arithmetic, the SIMD and server updates and the busy sum are the scalar
loop's float64 operations in the scalar loop's order. Four steps are
exact by an argument instead, each given below: the verified packed pop,
the per-slot window rings, compute-only lanes on the server, and finish
times read at lane retirement. The scalar loop stays in the tree as the
differential oracle (``tests/test_eventsim_batch.py``).

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

Monotone times
--------------

Several steps below rest on three facts about one lane's scalar run.
Every push is at or after the current pop time (a re-push at
``issue_end``, an admission at the finished wave's ``done_at``), so pop
times never decrease. Completions never decrease: each is the server's
free time plus a fixed latency, and the server's free time only grows.
A lane's last iteration finishes a wave, because the loop stops when
the last wave completes.

State layout (per block of lanes)
---------------------------------

* **Ready queue** — one 16-byte record per (slot, lane), slot-major in
  a ``(slots, lanes, 2)`` int64 array: the entry's ready time *as its
  bit pattern* (times are non-negative floats, so integer order is
  float order; empty slots hold +inf bits) and a **packed key**, the
  same bits with the low ``lb`` bits replaced by three fields, from the
  top: the wave index, the wave's segment count ``k`` and the slot's
  flat address ``a``. One column-min reduce yields each lane's least
  time and least key together.
* **Verified pop** — ``heapq`` pops the least ``(time, index)``. The
  least key orders by the time's high bits, then by wave index, so it
  is that pop unless two entries share the high bits but not the time.
  The key's address field names the winner's slot; one gather of the
  winners' records, compared byte for byte with the two minima, checks
  that every winner holds its lane's least time. If so the pop is exact:
  all entries at the least time share its high bits, so the least key
  among them has the least wave index. If any lane fails (float
  near-ties within ``2**lb`` ulps: 93 of the 6,144 iterations of a cold
  ``reproduce``), that iteration pops exactly instead: the least key
  among the slots at the least time.
* **Per-slot wave state** — a wave holds one slot from admission to
  completion (an admitted wave takes its predecessor's slot), so all of
  its state lives in its key or its slot: no per-wave arrays, no
  wave-to-slot map. The key's ``k`` field starts at
  ``2**kb - segments``, so a wave's last segment is the one popped with
  an all-ones ``k``, and re-pushing adds one to ``k``.
* **SIMD free heap** — ``simds_per_cu`` sorted registers per lane
  (ascending). Popping the min is register 0; pushing ``issue_end``
  re-sorts by a fixed compare-exchange chain. A sorted register file
  and a binary heap are the same multiset with the same minimum, which
  is all the scalar loop observes.
* **In-flight windows** — the per-wave completion deque becomes a ring
  of ``M`` (power of two >= ``max_inflight``) float slots per ready
  slot, read at ``(k - max_inflight) mod M`` and written at
  ``k mod M``, both masked straight out of the key. The scalar loop
  blocks a wave whose window is full until its oldest in-flight request
  completes (then retires everything older than the new ready time).
  A wave's completions are appended in non-decreasing order, so the
  oldest *live* entry is the one appended ``max_inflight`` appends ago —
  and when that entry is already retired, its value is at most the
  wave's previous effective ready time, which never exceeds the current
  pop time. Either way ``ready_at = max(pop_time, ring[read])``
  reproduces the scalar blocked/not-blocked result with no retirement
  bookkeeping. Ring reuse is safe: an append overwrites the entry ``M``
  appends old, which is dead. A wave newly admitted to a slot reads, for
  its first ``max_inflight`` segments, entries its predecessors left
  there (or the initial ``-inf``); each is at most the predecessor's
  last completion, which is the new wave's admission time and so at or
  below every pop time of the new wave: it loses the max.
* **Compute-only lanes** (no DRAM bytes) run the same statements with
  zero service time and zero latency. Their pop times never decrease
  and nothing ever blocks them, so their issue ends never decrease
  either: ``max(issue_end, server)`` returns ``issue_end``, the
  "completion" written to the ring is ``issue_end`` (at or below every
  later pop time of that wave, so it never blocks), and
  ``done_at = issue_end`` as in the scalar loop. One loop body serves
  every block.
* **Finish time at retirement** — the scalar loop keeps
  ``finish_time = max(done_at)`` over waves. A lane's ``done_at`` values
  never decrease (completions, or compute-only issue ends), and its last
  iteration finishes a wave, so its finish time is that iteration's
  completion: the value the completion buffer holds when the lane drops
  out of the active prefix.

Working set: the ready records and the window rings are
``O(slots x lanes)``, not ``O(waves x lanes)``: 2.2 MiB of tracemalloc
peak for the 675 lanes of a cold ``reproduce``.

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

#: int64 bit pattern of float64 +inf (an empty ready slot's time and key).
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
            batches are split to bound the working set (the ready
            records and window rings are ``O(residency x lanes)``).
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


def _exact_pop(queue: np.ndarray, mins: np.ndarray) -> None:
    """Replace ``mins[:, 1]`` by the exact heap pop's key.

    ``mins[:, 0]`` already holds each lane's exact minimum time; the
    popped entry is the least key among the slots at that time, i.e. the
    least wave index, as ``heapq`` orders ``(time, index)`` tuples.
    """
    tied = queue[:, :, 0] == mins[:, 0]
    np.minimum.reduce(np.where(tied, queue[:, :, 1], _INF_BITS), 0, None,
                      mins[:, 1])


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
    lanes = [params[i] for i in order]
    ev = np.array([events[i] for i in order], dtype=np.int64)

    # --- per-lane constants (sorted order) --------------------------------
    comp = np.array([p.compute_per_segment for p in lanes])
    stime = np.array([p.service_time for p in lanes])
    # Compute-only lanes ride the server with zero service and latency.
    lat = np.array([p.load_latency if p.bytes_per_segment > 0 else 0.0
                    for p in lanes])
    segc = np.array([p.segments for p in lanes], dtype=np.int64)
    minf = np.array([p.max_inflight for p in lanes], dtype=np.int64)
    sim = np.array([p.simulated for p in lanes], dtype=np.int64)
    slots_used = np.array([min(p.resident_limit, p.simulated) for p in lanes],
                          dtype=np.int64)

    R = int(slots_used.max())
    pmax = np.maximum.accumulate(slots_used)  # slot rows live per prefix
    M = 1 << (int(minf.max()) - 1).bit_length()  # window ring size (pow2)

    # --- packed key: time bits | wave index | segment count | address -------
    ab = (R * n - 1).bit_length()                 # slot address a
    kb = max((int(segc.max()) - 1).bit_length(), M.bit_length() - 1)
    ws = ab + kb                                  # wave index shift
    lb = ws + (int(sim.max()) - 1).bit_length()   # low bits replaced
    if lb > 52:
        raise AnalysisError(
            f"{lb} packed key bits exceed the float64 mantissa; "
            "lower max_simulated_waves or max_lanes_per_block")
    # 0-d arrays: numpy converts a scalar operand on every call.
    amask = np.array((1 << ab) - 1)
    kamask = np.array((1 << ws) - 1)
    wmask = np.array(((M - 1) << ab) | ((1 << ab) - 1))  # ring address
    low_mask = np.array((1 << lb) - 1)
    high_mask = np.array(~((1 << lb) - 1))
    kinc = np.array(1 << ab)
    last_k = np.array(((1 << kb) - 1) << ab)  # k of a wave's last segment
    astep = np.array(1 << ws)                 # one wave index, in key bits
    k0 = (1 << kb) - segc                     # k of a wave's first segment

    # --- ready queue: (time bits, key) per slot -----------------------------
    srange = np.arange(R, dtype=np.int64)[:, None]
    live0 = srange < slots_used
    queue = np.empty((R, n, 2), dtype=np.int64)
    queue[:, :, 0] = np.where(live0, np.int64(0), np.int64(_INF_BITS))
    queue[:, :, 1] = np.where(
        live0, (srange << ws) | (k0 << ab) | (srange * n + np.arange(n)),
        np.int64(_INF_BITS))
    records = queue.reshape(-1).view("V16")  # one (time, key) per slot
    ring = np.full(M << ab, -np.inf)         # completion window per slot

    # --- SIMD register file (sorted ascending) ------------------------------
    sv = [np.zeros(n) for _ in range(n_simds)]

    # --- accumulators --------------------------------------------------------
    srv = np.zeros(n)          # shared bandwidth server free time
    busy = np.zeros(n)
    compl = np.zeros(n)        # last completion: the finish time at retirement
    minf_a = minf << ab
    alow = (slots_used << ws) | (k0 << ab)  # next admission's key low bits
    alim = sim << ws                        # admissions left while alow < alim

    # --- scratch (full width, sliced per phase) ------------------------------
    mins = np.empty((n, 2), dtype=np.int64)
    push = np.empty((n, 2), dtype=np.int64)
    got = np.empty(n, dtype="V16")
    b64 = [np.empty(n, dtype=np.int64) for _ in range(4)]
    bf = [np.empty(n) for _ in range(4)]
    bb = [np.empty(n, dtype=bool) for _ in range(2)]

    copyto, putmask = np.copyto, np.putmask
    min_reduce = np.minimum.reduce
    add, subtract = np.add, np.subtract
    maximum, minimum = np.maximum, np.minimum
    bitwise_and, bitwise_or = np.bitwise_and, np.bitwise_or
    greater_equal, less = np.greater_equal, np.less
    logical_and = np.logical_and

    # Ascending distinct iteration counts, sorted in plain Python:
    # np.unique imports numpy.ma on first use (~15 ms, ~1 MiB).
    it = 0
    La = n
    for bound in sorted(set(events)):
        steps = bound - it
        it = bound
        Ra = int(pmax[La - 1])
        queue_v = queue[:Ra, :La]
        mins_v = mins[:La]
        tmin = mins_v[:, 0].view(np.float64)
        pmin = mins_v[:, 1]
        push_v = push[:La]
        key = push_v[:, 1]
        push_rec = push_v.reshape(-1).view("V16")
        got_v = got[:La]
        a, x, low, pk = (b[:La] for b in b64)
        v, tA, tB, nt = (b[:La] for b in bf)
        nt64 = nt.view(np.int64)
        tcol = push_v[:, 0]
        done, can = (b[:La] for b in bb)
        comp_v = comp[:La]
        stime_v = stime[:La]
        lat_v = lat[:La]
        minf_a_v = minf_a[:La]
        srv_v = srv[:La]
        busy_v = busy[:La]
        compl_v = compl[:La]
        alow_v = alow[:La]
        alim_v = alim[:La]
        sv_v = [s[:La] for s in sv]
        sv0 = sv_v[0]

        for _ in range(steps):
            # --- pop: least key, verified to hold the least time --------
            min_reduce(queue_v, 0, None, mins_v)
            copyto(pk, pmin)
            bitwise_and(pk, amask, a)
            records.take(a, None, got_v, "clip")
            if got_v.tobytes() != mins_v.tobytes():
                _exact_pop(queue_v, mins_v)
                copyto(pk, pmin)
                bitwise_and(pk, amask, a)

            # --- in-flight window: one max covers block and retire -------
            subtract(pk, minf_a_v, x)
            bitwise_and(x, wmask, x)                    # ring[k - minf]
            ring.take(x, None, v, "clip")
            maximum(tmin, v, out=v)                     # effective ready_at

            # --- issue one segment on the earliest-free SIMD -------------
            maximum(v, sv0, out=v)
            add(v, comp_v, nt)                          # issue_end
            carry = nt
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
            maximum(nt, srv_v, out=v)
            add(v, stime_v, srv_v)
            add(srv_v, lat_v, compl_v)
            bitwise_and(pk, wmask, x)                   # ring[k]
            ring[x] = compl_v

            # --- completion, admission, ready-queue push -------------------
            # A finished wave hands its slot to the next admission (key
            # k restarts) or leaves it empty (+inf); others push k + 1.
            bitwise_and(pk, kamask, x)
            greater_equal(x, last_k, done)
            bitwise_and(pk, low_mask, low)
            add(low, kinc, low)
            less(alow_v, alim_v, can)
            logical_and(can, done, can)
            putmask(nt, done, np.inf)
            copyto(nt, compl_v, where=can)
            bitwise_or(alow_v, a, x)
            copyto(low, x, where=can)
            add(alow_v, astep, x)
            copyto(alow_v, x, where=can)
            bitwise_and(nt64, high_mask, key)
            bitwise_or(key, low, key)
            copyto(tcol, nt64)
            records[a] = push_rec

        La = int(np.searchsorted(-ev, -bound, side="left"))

    out: List[Tuple[float, float]] = [(0.0, 0.0)] * n
    for sorted_pos, orig in enumerate(order):
        out[orig] = (float(compl[sorted_pos]), float(busy[sorted_pos]))
    return out
