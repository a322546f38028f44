"""Disk-backed, content-addressed store of deterministic sweep surfaces.

The in-memory sweep cache (:mod:`repro.platform.sweepcache`) amortizes
whole-grid surfaces *within* one process; this store amortizes them
*across* processes — ``reproduce``, ``evaluate``, each benchmark and each
CI shard warm-start from the surfaces the previous invocation computed.

Keys are **content-addressed**: a record's filename is the SHA-256 digest
of a canonical serialization of the :func:`build_digest` of the code, the
record kind and its key — for a grid surface the frozen
:class:`~repro.platform.calibration.PlatformCalibration`, the frozen
:class:`~repro.perf.kernelspec.KernelSpec`, and the grid axes, walked
field by field with floats rendered via :meth:`float.hex` so the encoding
is exact and stable across processes (Python's builtin ``hash()`` is
salted per process and useless here). Changing *any* calibration
constant, kernel characteristic, or grid axis changes the digest, and so
does changing *any* source file of the package or the numpy release:
invalidation is by value, and a record that other code wrote is never
addressed again.

Records are single files holding the surface arrays plus one JSON
metadata header carrying the kind and digest (self-check) and the
config-invariant scalars encoded with ``float.hex`` for bitwise
round-trips. Records are a **raw npy container** (a magic prefix, the
JSON header, then length-prefixed named ``.npy`` members back to back)
— the zip machinery of ``np.savez`` costs more than the payload for the
small records a cold ``reproduce`` writes by the hundreds. A file
without the magic reads as an invalid record and is recomputed and
rewritten. Only the grid codec and the ``.npy`` members import numpy: a
record without array members (a result-manifest entry keeps its text in
the header) reads and writes without it.

A grid record keeps only what its key cannot rebuild: one ``(12, n)``
float64 ``stack`` of the per-config surfaces and one ``uint8``
``limit_codes`` array of indices into
:data:`~repro.perf.batch.BANDWIDTH_LIMITS`. It stores no configs: the
key names the grid, and a load takes that grid's shared ``configs``
tuple (:func:`~repro.platform.sweepcache.grid_configs`), so a loaded
surface holds the same tuple as a computed one. A record whose width is
not the grid's size, or whose limit code is out of range, is an invalid
miss.

Properties:

* **atomic** — writes go to a unique tempfile in the store directory and
  are published with :func:`os.replace`, so concurrent processes sharing
  one store (CI shards, two CLI runs) never observe a torn record; racing
  writers of the same key each publish a complete record and the last
  one wins (contents are deterministic, so the duplicates are identical);
* **self-validating** — corrupted, truncated or mismatched records are
  treated as misses: the caller recomputes and rewrites, the store never
  raises out of a read;
* **deterministic only** — exclusively noise-free surfaces are persisted
  (the cache-then-perturb contract keeps noise keyed on read).

Records of other builds stay on disk, unaddressed; nothing prunes them.
Only the store *layout* is defined here; the two-tier lookup policy lives
in :class:`~repro.platform.sweepcache.SweepCache`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import io
import itertools
import json
import os
import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional, Tuple)

from repro.telemetry.spans import ambient_telemetry

if TYPE_CHECKING:
    import numpy as np

    from repro.gpu.config import HardwareConfig
    from repro.perf.batch import BatchRunResult

#: Record kind of full-grid :class:`BatchRunResult` surfaces.
GRID_KIND = "grid"

#: Record kind of experiment-pipeline result-manifest entries (the exact
#: formatted report text of one DAG node; see
#: :class:`repro.runtime.pipeline.ResultManifest`).
RESULT_KIND = "result"

#: Record kind of event-driven validation surfaces (one float64 ``time``
#: array per (calibration, spec, config-sample) key; producer:
#: :mod:`repro.experiments.ext_model_validation`). The record layout is
#: engine-agnostic — the batched and scalar event simulators are bitwise
#: equivalent, so surfaces written by either engine hit for both.
EVENTSIM_KIND = "eventsim"

#: Environment variable overriding the default store directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Leading magic of raw-container records; a file that does not start
#: with it is an invalid record. The trailing newline keeps accidental
#: text-mode corruption detectable, like the npy magic it wraps.
_RAW_MAGIC = b"\x93RPROSTORE\x01\n"

#: Per-process sequence for unique tempfile names on the write path
#: (``<final>.<pid>.<seq>.tmp``): ``itertools.count`` is atomic under
#: the GIL, the pid separates concurrent processes, and uniqueness is
#: all the name must provide — atomicity comes from :func:`os.replace`.
_TMP_SEQ = itertools.count()

#: Row order of the stacked per-config float64 surfaces in a grid
#: record. The record holds no configs: its key names the grid, and the
#: columns are in that grid's order.
_GRID_ARRAYS = (
    "time", "compute_time", "memory_time", "overlap_residue",
    "achieved_bandwidth", "gpu_power", "memory_power",
    "valu_busy", "mem_unit_busy", "mem_unit_stalled",
    "write_unit_stalled", "ic_activity",
)

#: Config-invariant scalars kept in the JSON metadata via ``float.hex``.
_GRID_SCALARS = (
    "launch_overhead", "other_power", "valu_utilization", "norm_vgpr",
    "norm_sgpr", "valu_insts_millions", "vfetch_insts_millions",
    "vwrite_insts_millions",
)


def resolve_store_dir(override: Optional[str] = None) -> Path:
    """The store directory: explicit override, else ``$REPRO_CACHE_DIR``,
    else ``~/.cache/repro-harmonia``."""
    if override:
        return Path(override).expanduser()
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-harmonia"


# --- canonical key serialization -------------------------------------------------


#: ``id(value) -> (value, text)`` for each frozen dataclass encoded so
#: far and each tuple passed to :func:`keep_encoding`. Identity keys it
#: because equal values can encode differently (``1 == 1.0``); holding
#: the value keeps its id from being reused. Key dataclasses hold only
#: immutable fields, so the text never goes stale. A cold ``reproduce``
#: repeats one calibration object and one grid-axis tuple in the keys of
#: all 25 kernels.
_ENCODED: Dict[int, Tuple[Any, str]] = {}

#: Entries kept before :data:`_ENCODED` starts over; a cold
#: ``reproduce`` encodes a few hundred dataclass objects.
_ENCODED_MAX = 4096


def canonical_encode(value: Any) -> str:
    """A stable, exact text rendering of a (nested) sweep-store key.

    Frozen dataclasses render as ``ClassName(field=..., ...)`` in field
    declaration order; floats render via :meth:`float.hex` (every bit
    pattern gets a distinct, platform-independent spelling — ``repr``
    round-trips too, but hex makes the exactness explicit); plain tuples
    and lists recurse. A tuple or list subclass (a named tuple, say) has
    no canonical form: rendered by its items it would lose its class
    name, and two record types with equal fields would share an address.
    ``hash()`` is deliberately avoided: it is salted per process for
    strings and would not address the same record twice.

    The text of a frozen dataclass, and of a tuple passed to
    :func:`keep_encoding`, is kept for the life of the process
    (:data:`_ENCODED`), so a calibration or grid-axis tuple that appears
    in many keys is walked once.

    Raises:
        TypeError: for values that have no canonical form (the key would
            silently collide otherwise).
    """
    # ``dataclasses.is_dataclass`` for an instance, without importing
    # the module on the paths that encode no dataclass.
    if hasattr(type(value), "__dataclass_fields__"):
        entry = _ENCODED.get(id(value))
        if entry is not None:
            return entry[1]
        import dataclasses

        fields = ", ".join(
            f"{f.name}={canonical_encode(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        text = f"{type(value).__name__}({fields})"
        if type(value).__dataclass_params__.frozen:
            if len(_ENCODED) >= _ENCODED_MAX:
                _ENCODED.clear()
            _ENCODED[id(value)] = (value, text)
        return text
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if type(value) is tuple or type(value) is list:
        entry = _ENCODED.get(id(value))
        if entry is not None:
            return entry[1]
        return "(" + ", ".join(canonical_encode(item) for item in value) + ")"
    if value is None:
        return "null"
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} in a store key"
    )


def keep_encoding(value: tuple) -> tuple:
    """Encode ``value`` now and keep its text like a frozen dataclass's.

    For a tuple of immutable items that many keys share by identity (an
    architecture's grid axes): :func:`canonical_encode` then serves its
    text instead of walking it again. Returns ``value``.
    """
    text = canonical_encode(value)
    if len(_ENCODED) >= _ENCODED_MAX:
        _ENCODED.clear()
    _ENCODED[id(value)] = (value, text)
    return value


def content_digest(key: Any) -> str:
    """Hex SHA-256 of a key's canonical serialization.

    Not memoized by key: keys that compare equal can encode differently
    (``1 == 1.0 == True``). The calibration, spec and grid-axis text that
    many keys share comes from :data:`_ENCODED`, by identity.
    """
    return hashlib.sha256(canonical_encode(key).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def build_digest() -> str:
    """Hex SHA-256 of the code that computes every record.

    It covers the relative path and bytes of every ``.py`` file of the
    ``repro`` package, in sorted order, plus the bytes of numpy's
    ``version.py`` (the noisy reports follow numpy's normal stream). The
    store folds it into every record address, so any edit to the
    package, a docstring included, and any other numpy release address
    a fresh set of records. Computed once per process, on the first
    store address; finding numpy with :func:`importlib.util.find_spec`
    does not import it.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources = {}
    for directory, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sources[os.path.relpath(path, package)] = path
    numpy = importlib.util.find_spec("numpy")
    sources["<numpy>/version.py"] = os.path.join(
        numpy.submodule_search_locations[0], "version.py")
    digest = hashlib.sha256()
    for name in sorted(sources):
        with open(sources[name], "rb") as fh:
            data = fh.read()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


# --- BatchRunResult <-> record ---------------------------------------------------


def batch_to_record(
    batch: BatchRunResult,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Serialize a deterministic grid surface to (arrays, metadata).

    Only the independent surfaces are stored; derived quantities
    (``card_power``, ``energy``, ``ed``/``ed2``) are recomputed by the
    :class:`BatchRunResult` constructor on load with the same float
    operations, so the round trip is bitwise identical. The configs are
    not stored: the record's key names its grid (see
    :func:`batch_from_record`).
    """
    import dataclasses

    import numpy as np

    from repro.perf.batch import BANDWIDTH_LIMITS

    counters = batch.counters
    columns = {
        "time": batch.time,
        "compute_time": batch.compute_time,
        "memory_time": batch.memory_time,
        "overlap_residue": batch.overlap_residue,
        "achieved_bandwidth": batch.achieved_bandwidth,
        "gpu_power": batch.gpu_power,
        "memory_power": batch.memory_power,
        "valu_busy": counters.valu_busy,
        "mem_unit_busy": counters.mem_unit_busy,
        "mem_unit_stalled": counters.mem_unit_stalled,
        "write_unit_stalled": counters.write_unit_stalled,
        "ic_activity": counters.ic_activity,
    }
    # One stacked 2D array instead of a member per surface: each member
    # costs a header write and parse, and record loads are the
    # warm-start hot path. np.stack copies values verbatim, so the
    # round trip stays bitwise.
    arrays: Dict[str, np.ndarray] = {
        "stack": np.stack([columns[name] for name in _GRID_ARRAYS]),
        "limit_codes": np.fromiter(
            map(BANDWIDTH_LIMITS.index, batch.bandwidth_limit),
            dtype=np.uint8, count=len(batch.bandwidth_limit)),
    }
    occupancy = batch.occupancy
    meta: Dict[str, Any] = {
        "kernel_name": batch.kernel_name,
        "scalars": {
            "launch_overhead": batch.launch_overhead.hex(),
            "other_power": batch.other_power.hex(),
            "valu_utilization": counters.valu_utilization.hex(),
            "norm_vgpr": counters.norm_vgpr.hex(),
            "norm_sgpr": counters.norm_sgpr.hex(),
            "valu_insts_millions": counters.valu_insts_millions.hex(),
            "vfetch_insts_millions": counters.vfetch_insts_millions.hex(),
            "vwrite_insts_millions": counters.vwrite_insts_millions.hex(),
        },
        "occupancy": {
            "waves_per_simd": occupancy.waves_per_simd,
            "limits": dataclasses.asdict(occupancy.limits),
        },
    }
    return arrays, meta


def batch_from_record(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any],
    configs: Tuple[HardwareConfig, ...],
) -> BatchRunResult:
    """Rebuild a :class:`BatchRunResult` from a loaded record.

    Args:
        arrays, meta: the record, as :func:`batch_to_record` wrote it.
        configs: the grid the record's key names, in surface order; the
            surface holds this very tuple.

    Raises:
        Exception: any malformation (missing arrays, a width other than
            ``len(configs)``, a limit code outside
            :data:`~repro.perf.batch.BANDWIDTH_LIMITS`, bad scalar
            encodings) — the store turns it into a miss.
    """
    import numpy as np

    from repro.gpu.occupancy import OccupancyLimits, OccupancyResult
    from repro.perf.batch import (BANDWIDTH_LIMITS, BatchCounters,
                                  BatchModelOutput, BatchRunResult)

    stack = arrays["stack"]
    codes = arrays["limit_codes"]
    n = len(configs)
    if (stack.shape != (len(_GRID_ARRAYS), n) or stack.dtype != np.float64
            or codes.shape != (n,) or codes.dtype != np.uint8):
        raise ValueError("record is not a surface over its key's grid")
    columns = dict(zip(_GRID_ARRAYS, stack))

    scalars = {
        name: float.fromhex(meta["scalars"][name]) for name in _GRID_SCALARS
    }
    counters = BatchCounters(
        valu_busy=columns["valu_busy"],
        mem_unit_busy=columns["mem_unit_busy"],
        mem_unit_stalled=columns["mem_unit_stalled"],
        write_unit_stalled=columns["write_unit_stalled"],
        ic_activity=columns["ic_activity"],
        valu_utilization=scalars["valu_utilization"],
        norm_vgpr=scalars["norm_vgpr"],
        norm_sgpr=scalars["norm_sgpr"],
        valu_insts_millions=scalars["valu_insts_millions"],
        vfetch_insts_millions=scalars["vfetch_insts_millions"],
        vwrite_insts_millions=scalars["vwrite_insts_millions"],
    )
    occupancy = OccupancyResult(
        waves_per_simd=int(meta["occupancy"]["waves_per_simd"]),
        limits=OccupancyLimits(
            **{k: int(v) for k, v in meta["occupancy"]["limits"].items()}
        ),
    )
    model = BatchModelOutput(
        compute_time=columns["compute_time"],
        memory_time=columns["memory_time"],
        overlap_residue=columns["overlap_residue"],
        launch_overhead=scalars["launch_overhead"],
        time=columns["time"],
        achieved_bandwidth=columns["achieved_bandwidth"],
        occupancy=occupancy,
        # The shared name objects, as a computed surface holds them; a
        # code past the tuple raises, so the record is a miss.
        bandwidth_limit=tuple(map(BANDWIDTH_LIMITS.__getitem__,
                                  codes.tolist())),
        counters=counters,
    )
    return BatchRunResult(
        kernel_name=str(meta["kernel_name"]),
        configs=configs,
        model=model,
        gpu_power=columns["gpu_power"],
        memory_power=columns["memory_power"],
        other_power=scalars["other_power"],
    )


# --- the raw record container ----------------------------------------------------


def _write_raw_record(buf, meta: Dict[str, Any],
                      arrays: Dict[str, np.ndarray]) -> None:
    """Serialize one record into ``buf`` in the raw container format.

    Layout: ``_RAW_MAGIC``, 8-byte little-endian JSON header length, the
    JSON header, then per member an 8-byte name length, the UTF-8 name,
    and the standard ``.npy`` serialization of the array.
    """
    meta_bytes = json.dumps(meta).encode("utf-8")
    buf.write(_RAW_MAGIC)
    buf.write(len(meta_bytes).to_bytes(8, "little"))
    buf.write(meta_bytes)
    for name, array in arrays.items():
        import numpy as np  # only array members need it

        name_bytes = name.encode("utf-8")
        buf.write(len(name_bytes).to_bytes(8, "little"))
        buf.write(name_bytes)
        np.lib.format.write_array(buf, np.asarray(array),
                                  allow_pickle=False)


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("truncated raw record")
    return data


def _read_record(path) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read one raw-container record.

    Raises on a missing magic (an ``np.savez`` archive, say) and on any
    torn, truncated or foreign layout — the caller accounts that as an
    invalid miss.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_RAW_MAGIC)) != _RAW_MAGIC:
            raise ValueError("not a raw-container record")
        meta_len = int.from_bytes(_read_exact(fh, 8), "little")
        meta = json.loads(_read_exact(fh, meta_len))
        arrays: Dict[str, np.ndarray] = {}
        while True:
            head = fh.read(8)
            if not head:
                return arrays, meta
            if len(head) != 8:
                raise ValueError("truncated raw record")
            name = _read_exact(fh, int.from_bytes(head, "little"))
            import numpy as np  # only array members need it

            arrays[name.decode("utf-8")] = np.lib.format.read_array(
                fh, allow_pickle=False)


# --- the store -------------------------------------------------------------------


class StoreStats(NamedTuple):
    """Cumulative operation counts of one :class:`SweepStore`."""

    hits: int
    misses: int
    invalid_records: int
    bytes_read: int
    bytes_written: int


class SweepStore:
    """Content-addressed records under one directory.

    Each record is one raw npy container file (see the module
    docstring). Under a traced run every operation records on the
    ambient span's handle: the ``sweep_store.load`` /
    ``sweep_store.save`` spans, the ``sweep_store_hits_total`` /
    ``sweep_store_misses_total`` counters (labelled by record kind) and
    the ``sweep_store_bytes`` counter (labelled by transfer direction).

    Args:
        root: the store directory (created on first use).

    Raises:
        OSError: when the directory cannot be created — the only error
            that escapes; every read/write problem afterwards degrades to
            a miss or a skipped write.
    """

    def __init__(self, root):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalid = 0
        self._bytes_read = 0
        self._bytes_written = 0

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def stats(self) -> StoreStats:
        """Cumulative hit/miss/byte counts since construction."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                invalid_records=self._invalid,
                bytes_read=self._bytes_read,
                bytes_written=self._bytes_written,
            )

    def path_for(self, kind: str, key: Any) -> Path:
        """The record file a (kind, key) pair addresses."""
        return self._address(kind, key)[1]

    def _address(self, kind: str, key: Any) -> Tuple[str, Path]:
        """``(digest, path)`` of the record a (kind, key) pair addresses
        under this build (:func:`build_digest`)."""
        digest = content_digest((build_digest(), kind, key))
        return digest, self._root / f"{kind}-{digest}.npz"

    # --- generic records ---------------------------------------------------------

    def save_record(self, kind: str, key: Any,
                    arrays: Dict[str, np.ndarray],
                    meta: Optional[Dict[str, Any]] = None) -> bool:
        """Atomically persist one record; False when the write failed.

        The record lands under its content digest via tempfile +
        :func:`os.replace`, so readers only ever see complete records.
        Write failures (full/read-only disk) are swallowed: the store is
        an accelerator, never a correctness dependency.
        """
        digest, final = self._address(kind, key)
        record_meta = dict(meta or ())
        record_meta["kind"] = kind
        record_meta["digest"] = digest
        telemetry = ambient_telemetry()
        tmp = None
        try:
            with telemetry.span("sweep_store.save", kind=kind):
                buf = io.BytesIO()
                _write_raw_record(buf, record_meta, arrays)
                written = buf.tell()
                tmp = f"{final}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
                with open(tmp, "wb") as fh:
                    fh.write(buf.getbuffer())
                os.replace(tmp, final)
                tmp = None
        except Exception:
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        with self._lock:
            self._bytes_written += written
        telemetry.metrics.counter(
            "sweep_store_bytes", "bytes moved through the sweep store",
        ).inc(written, direction="write")
        return True

    def load_record(self, kind: str, key: Any,
                    decode: Optional[Callable[[Dict[str, np.ndarray],
                                               Dict[str, Any]], Any]] = None):
        """Load one record, or None on a miss.

        Missing files, torn/corrupted/truncated records and kind or
        digest mismatches all count as misses — the caller recomputes
        and rewrites.

        Args:
            kind: the record kind.
            key: the record's content-address key.
            decode: ``(arrays, meta) -> value`` conversion run inside the
                accounted load, whose value the load then returns; a
                raising ``decode`` makes the load an invalid miss, so a
                record that reads but does not decode is never counted
                as a hit. Without it the load returns ``(arrays, meta)``.
        """
        digest, path = self._address(kind, key)
        value = None
        invalid = False
        size = 0
        telemetry = ambient_telemetry()
        try:
            with telemetry.span("sweep_store.load", kind=kind):
                size = os.stat(path).st_size
                arrays, meta = _read_record(path)
                if meta.get("kind") != kind or meta.get("digest") != digest:
                    raise ValueError("mismatched record")
                value = ((arrays, meta) if decode is None
                         else decode(arrays, meta))
        except FileNotFoundError:
            pass
        except Exception:
            invalid = True
        hit = value is not None
        with self._lock:
            if hit:
                self._hits += 1
                self._bytes_read += size
            else:
                self._misses += 1
                if invalid:
                    self._invalid += 1
        metrics = telemetry.metrics
        if hit:
            metrics.counter(
                "sweep_store_hits_total", "sweep store records served",
            ).inc(kind=kind)
            metrics.counter(
                "sweep_store_bytes", "bytes moved through the sweep store",
            ).inc(size, direction="read")
            return value
        metrics.counter(
            "sweep_store_misses_total", "sweep store lookups not served",
        ).inc(kind=kind)
        return None

    # Kept as a name only: perfbench/layers.py wraps it by attribute.
    load_record_mmap = load_record

    # --- grid surfaces -----------------------------------------------------------

    def save_batch(self, key: Any, batch: BatchRunResult) -> bool:
        """Persist one deterministic full-grid surface."""
        arrays, meta = batch_to_record(batch)
        return self.save_record(GRID_KIND, key, arrays, meta=meta)

    def load_batch(self, key: Any) -> Optional[BatchRunResult]:
        """Load one grid surface over the grid ``key`` names
        (:func:`~repro.platform.sweepcache.grid_configs`), or None on any
        kind of miss — a record that reads but does not decode into that
        grid is an invalid miss."""
        from repro.platform.sweepcache import grid_configs

        return self.load_record(
            GRID_KIND, key, decode=lambda arrays, meta: batch_from_record(
                arrays, meta, grid_configs(key)))
