"""Cross-experiment cache of whole-grid sweep results.

The oracle (:mod:`repro.core.oracle`), the sensitivity measurement
(:mod:`repro.sensitivity.measurement`), the analysis sweeps
(:mod:`repro.analysis.sweep`) and the characterization experiment
(:mod:`repro.experiments.characterization`) each evaluate the same kernels
over the same ~450-point configuration grid. Before this cache existed,
every consumer re-ran its own sweep — the Figure 10-13 evaluation pipeline
evaluated each kernel's grid three or four times over.

A :class:`SweepCache` maps::

    (PlatformCalibration, KernelSpec, (cu_counts, compute_freqs, mem_freqs))
        -> BatchRunResult

All three key components are frozen, value-hashable dataclasses/tuples, so
keying is *by value*: two platforms built from the same calibration share
entries, and changing any calibration constant, kernel characteristic or
grid axis naturally misses — no explicit invalidation protocol is needed.

The cache is a **two-tier hierarchy**: the in-memory LRU fronts an
optional disk-backed content-addressed store
(:class:`~repro.platform.store.SweepStore`). A memory miss consults the
store before computing, and a computed surface is written through, so a
second *process* (another CLI invocation, a CI shard) warm-starts from the
first one's surfaces. The store is attached via :meth:`attach_store`
(the CLI does this from ``--cache-dir`` / ``$REPRO_CACHE_DIR``) and the
same value-keying applies: the store digests the full key content, so no
stale record is ever addressed.

Only **deterministic** surfaces are cached, in either tier. Noisy
platforms still use the cache:
:meth:`repro.platform.hd7970.HardwarePlatform.grid_sweep` looks up (or
computes) the noise-free surface and applies the launch-keyed noise
*after* the lookup as a vectorized draw (cache-then-perturb, see
:mod:`repro.platform.noise`), so no particular noise realization is ever
frozen into an entry and every consumer's draws stay keyed by
``(seed, spec, iteration, config)``.

The cache is bounded (LRU) and thread-safe: the process-wide instance
from :func:`shared_cache` may be read from any thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, NamedTuple,
                    Optional, Tuple)

from repro.gpu.config import ConfigSpace
from repro.platform.store import keep_encoding

if TYPE_CHECKING:
    from repro.gpu.architecture import GpuArchitecture
    from repro.gpu.config import HardwareConfig
    from repro.perf.batch import BatchRunResult
    from repro.perf.kernelspec import KernelSpec
    from repro.platform.calibration import PlatformCalibration


#: ``id(arch) -> (arch, space, axes)``: each architecture's one
#: :class:`ConfigSpace` and grid-axis tuple, built once. Every platform
#: of that architecture takes this space, and the store decodes grid
#: records against its ``configs``, so computed and loaded surfaces hold
#: one tuple. Every sweep key holds the same axis tuple, so the store's
#: encoding memo serves its text. Identity keys it for the same reason
#: as that memo (equal values can encode differently); holding the
#: architecture keeps its id from being reused.
_GRID_SPACES: Dict[int, Tuple["GpuArchitecture", ConfigSpace, tuple]] = {}


def _grid_entry(
        arch: "GpuArchitecture") -> Tuple["GpuArchitecture", ConfigSpace, tuple]:
    """``(arch, space, (cu_counts, compute_freqs, mem_freqs))``."""
    entry = _GRID_SPACES.get(id(arch))
    if entry is None:
        space = ConfigSpace(arch)
        axes = keep_encoding((space.cu_counts, space.compute_frequencies,
                              space.memory_frequencies))
        if len(_GRID_SPACES) >= 64:
            _GRID_SPACES.clear()
        entry = _GRID_SPACES[id(arch)] = (arch, space, axes)
    return entry


def grid_space(arch: "GpuArchitecture") -> ConfigSpace:
    """The one configuration grid of ``arch`` that platforms and store
    loads share."""
    return _grid_entry(arch)[1]


def grid_configs(key: Hashable) -> Tuple["HardwareConfig", ...]:
    """The configurations of the grid a :func:`sweep_key` names, in
    surface order: its architecture's shared ``configs`` tuple."""
    calibration, _, _ = key
    return grid_space(calibration.arch).configs


def sweep_key(calibration: "PlatformCalibration",
              spec: "KernelSpec") -> Hashable:
    """The by-value key of ``spec``'s full-grid sweep under ``calibration``:
    ``(calibration, spec, (cu_counts, compute_freqs, mem_freqs))``, with
    the grid axes derived from ``calibration.arch``.

    The one spelling of the key, shared by both cache tiers and the
    ``reproduce`` fingerprint.
    """
    return (calibration, spec, _grid_entry(calibration.arch)[2])


class TierStats(NamedTuple):
    """``(hits, misses)`` of one cache tier."""

    hits: int
    misses: int


class CacheStats(NamedTuple):
    """Per-tier lookup statistics of a :class:`SweepCache`.

    ``memory`` counts every lookup; ``store`` counts only the memory
    misses that went on to consult an attached store (both zero when no
    store was ever attached).
    """

    memory: TierStats
    store: TierStats

    @property
    def lookups(self) -> int:
        """Total lookups against the cache."""
        return self.memory.hits + self.memory.misses

    @property
    def served(self) -> int:
        """Lookups answered without recomputing (either tier)."""
        return self.memory.hits + self.store.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recompute (0 when unused)."""
        return self.served / self.lookups if self.lookups else 0.0


def format_cache_effectiveness(memory_hits: int, memory_misses: int,
                               store_hits: int, store_misses: int,
                               bytes_read: float = 0.0,
                               bytes_written: float = 0.0) -> str:
    """One line summarizing how well the two-tier sweep cache worked."""
    lookups = memory_hits + memory_misses
    served = memory_hits + store_hits
    rate = served / lookups if lookups else 0.0
    line = (f"sweep cache: {lookups} lookups, memory {memory_hits} hits / "
            f"{memory_misses} misses, store {store_hits} hits / "
            f"{store_misses} misses — {rate:.0%} served without recompute")
    if bytes_read or bytes_written:
        line += (f"; store I/O {bytes_read / 1024:.0f} KiB read, "
                 f"{bytes_written / 1024:.0f} KiB written")
    return line


class SweepCache:
    """Bounded, thread-safe LRU of :class:`BatchRunResult` grids, with an
    optional persistent second tier.

    Attributes:
        maxsize: maximum number of cached grids; each entry holds a dozen
            float arrays over ~450 configs (a few tens of KB), so the
            default comfortably covers every kernel x calibration pair the
            repro evaluates.
    """

    def __init__(self, maxsize: int = 256, store=None):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, BatchRunResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._store = store
        self._hits = 0
        self._misses = 0
        self._store_hits = 0
        self._store_misses = 0
        # Single-flight: one in-flight marker per key being computed, so
        # concurrent lookups of the same key wait for the leader instead
        # of duplicating the compute.
        self._inflight: dict = {}

    # --- the persistent tier ---------------------------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.platform.store.SweepStore` (or None).

        Exposed because the store also persists non-sweep record kinds
        for other producers — e.g. the event-driven validation surfaces
        (:data:`~repro.platform.store.EVENTSIM_KIND`).
        """
        return self._store

    def attach_store(self, store) -> None:
        """Put a persistent store behind the in-memory tier."""
        self._store = store

    def detach_store(self) -> None:
        """Run memory-only again (existing entries stay)."""
        self._store = None

    # --- lookups ---------------------------------------------------------------

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], BatchRunResult]
    ) -> BatchRunResult:
        """Return the cached grid for ``key``, computing it on a miss.

        Lookup order: memory tier, then the attached store (a store hit
        is promoted into memory), then ``compute`` — whose result is
        inserted into memory and written through to the store. Store
        reads and writes run outside the lock, like ``compute``: a slow
        disk does not block concurrent lookups of other kernels.

        Misses are **single-flight**: when two threads race on one key,
        the first becomes the leader and computes; the rest wait and are
        then served from memory as ordinary hits. Besides not wasting a
        duplicate grid evaluation, this keeps the hit/miss counters
        exactly scheduling-independent: racing threads report the same
        counts as one thread doing the same lookups.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._misses += 1
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            # Another thread is computing this key: wait, then re-check
            # (the leader may have failed — then this thread leads).
            waiter.wait()
        try:
            # The whole miss path is one "fill" span: store probe,
            # compute, write-through. It nests under the span of the
            # caller that missed.
            from repro.telemetry.spans import ambient_telemetry
            with ambient_telemetry().span("sweep_cache.fill"):
                store = self._store
                if store is not None:
                    entry = store.load_batch(key)
                    with self._lock:
                        if entry is not None:
                            self._store_hits += 1
                        else:
                            self._store_misses += 1
                    if entry is not None:
                        self._insert(key, entry)
                        return entry
                result = compute()
                self._insert(key, result)
                if store is not None:
                    store.save_batch(key, result)
                return result
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    def _insert(self, key: Hashable, result: BatchRunResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get(self, key: Hashable) -> Optional[BatchRunResult]:
        """The cached grid for ``key``, or None (counts as hit/miss).

        Consults both tiers but never computes; a store hit is promoted
        into the memory tier.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
        store = self._store
        if store is None:
            return None
        entry = store.load_batch(key)
        with self._lock:
            if entry is not None:
                self._store_hits += 1
            else:
                self._store_misses += 1
        if entry is not None:
            self._insert(key, entry)
        return entry

    def clear(self) -> None:
        """Drop every in-memory grid (statistics and the store are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # --- statistics ------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Per-tier ``(hits, misses)`` since construction."""
        with self._lock:
            return CacheStats(
                memory=TierStats(self._hits, self._misses),
                store=TierStats(self._store_hits, self._store_misses),
            )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recompute (0 when unused)."""
        return self.stats().hit_rate

    def publish(self, telemetry) -> None:
        """Export the per-tier counts as telemetry counters.

        Sets ``sweep_cache_hits_total`` / ``sweep_cache_misses_total``
        (labelled by tier) from the current totals; call once, at the
        end of a run, before exporting the metrics registry.
        """
        stats = self.stats()
        hits = telemetry.metrics.counter(
            "sweep_cache_hits_total", "sweep cache lookups served, per tier",
        )
        misses = telemetry.metrics.counter(
            "sweep_cache_misses_total", "sweep cache lookup misses, per tier",
        )
        for tier, tier_stats in (("memory", stats.memory),
                                 ("store", stats.store)):
            if tier_stats.hits:
                hits.inc(tier_stats.hits, tier=tier)
            if tier_stats.misses:
                misses.inc(tier_stats.misses, tier=tier)


_SHARED = SweepCache()


def shared_cache() -> SweepCache:
    """The process-wide sweep cache shared by all consumers."""
    return _SHARED
