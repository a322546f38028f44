"""The persistent content-addressed sweep store: digests, round trips,
robustness against corruption, concurrency, and the two-tier cache."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import repro.platform.store as store_module
import repro.platform.sweepcache as sweepcache_module
from repro.platform.hd7970 import make_hd7970_platform, make_pitcairn_platform
from repro.platform.store import (
    EVENTSIM_KIND,
    GRID_KIND,
    RESULT_KIND,
    SweepStore,
    batch_from_record,
    batch_to_record,
    build_digest,
    canonical_encode,
    content_digest,
    resolve_store_dir,
)
from repro.platform.sweepcache import SweepCache
from repro.telemetry.handle import Telemetry
from repro.workloads.registry import all_kernels


@pytest.fixture()
def store(tmp_path):
    return SweepStore(tmp_path / "store")


def _grid_key(platform, spec):
    return platform.sweep_cache_key(spec)


# --- canonical encoding and digests ---------------------------------------------


class TestCanonicalEncoding:
    def test_digest_is_stable_hex(self, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        first = content_digest(key)
        assert first == content_digest(key)
        assert len(first) == 64
        assert set(first) <= set("0123456789abcdef")

    def test_bool_is_not_int(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_floats_are_exact(self):
        # repr-close but unequal floats must encode differently.
        a = 0.1
        b = np.nextafter(0.1, 1.0)
        assert canonical_encode(a) != canonical_encode(b)
        assert canonical_encode(0.0) != canonical_encode(-0.0)

    def test_unencodable_types_raise(self):
        with pytest.raises(TypeError):
            canonical_encode({1, 2})
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_tuple_and_list_subclasses_raise(self):
        """Rendered by its items, a named tuple would lose its class name:
        two record types with equal fields would share an address."""

        class Cell(NamedTuple):
            x: int

        class Items(list):
            pass

        with pytest.raises(TypeError, match="Cell"):
            canonical_encode(Cell(1))
        with pytest.raises(TypeError, match="Cell"):
            content_digest(("key", (Cell(1),)))
        with pytest.raises(TypeError, match="Items"):
            canonical_encode(Items([1]))
        assert canonical_encode((1, [2.0])) == "(1, (0x1.0000000000000p+1))"

    def test_calibration_change_changes_digest(self):
        spec = all_kernels()[0].base
        plain = make_hd7970_platform()
        scaled = make_hd7970_platform(memory_voltage_scaling=True)
        pitcairn = make_pitcairn_platform()
        digests = {
            content_digest(_grid_key(p, spec))
            for p in (plain, scaled, pitcairn)
        }
        assert len(digests) == 3
        # Same calibration by value -> same digest across instances.
        assert content_digest(_grid_key(make_hd7970_platform(), spec)) \
            == content_digest(_grid_key(plain, spec))

    def test_kernel_characteristic_change_changes_digest(self, platform):
        spec = all_kernels()[0].base
        base = content_digest(_grid_key(platform, spec))
        for change in (
            {"valu_insts_per_item": spec.valu_insts_per_item * 1.0000001},
            {"l2_hit_rate": spec.l2_hit_rate + 1e-9},
            {"workgroup_size": spec.workgroup_size * 2},
            {"name": spec.name + "'"},
        ):
            changed = dataclasses.replace(spec, **change)
            assert content_digest(_grid_key(platform, changed)) != base

    def test_grid_axis_change_changes_digest(self, platform):
        spec = all_kernels()[0].base
        cal, _, axes = _grid_key(platform, spec)
        base = content_digest((cal, spec, axes))
        cus, f_cus, f_mems = axes
        assert content_digest((cal, spec, (cus[:-1], f_cus, f_mems))) != base
        assert content_digest(
            (cal, spec, (cus, f_cus[:-1] + (f_cus[-1] * 1.000001,), f_mems))
        ) != base


def _plain_encode(value) -> str:
    """The canonical key text, rebuilt here without any memo: the
    reference the store's encoder is compared with."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return "{}({})".format(type(value).__name__, ", ".join(
            f"{f.name}={_plain_encode(getattr(value, f.name))}"
            for f in dataclasses.fields(value)))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_plain_encode(item) for item in value) + ")"
    assert value is None, type(value)
    return "null"


def _plain_digest(key) -> str:
    return hashlib.sha256(_plain_encode(key).encode("utf-8")).hexdigest()


def _cold_run_keys():
    """``(kind, key)`` of every record family a cold ``reproduce``
    addresses."""
    from repro.experiments import registry
    from repro.experiments.ext_model_validation import _sample_configs
    from repro.platform.store import EVENTSIM_KIND, RESULT_KIND

    platforms = (make_hd7970_platform(),
                 make_hd7970_platform(memory_voltage_scaling=True),
                 make_pitcairn_platform())
    specs = [kernel.base for kernel in all_kernels()]
    keys = [(GRID_KIND, platform.sweep_cache_key(spec))
            for platform in platforms for spec in specs]
    plain = platforms[0]
    configs = tuple(_sample_configs(plain.config_space))
    keys += [(EVENTSIM_KIND, (plain.calibration, spec, configs))
             for spec in specs]
    keys += [(RESULT_KIND, spec.name)
             for spec in registry.reproduce_specs(include_ablations=True)
             if spec.is_report]
    return keys


class TestEncodingMemo:
    """``canonical_encode`` keeps the text of each frozen dataclass; every
    digest must still equal the one a plain recursive encoder gives."""

    @pytest.fixture()
    def empty_memos(self, monkeypatch):
        monkeypatch.setattr(store_module, "_ENCODED", {})
        monkeypatch.setattr(store_module, "_DIGEST_MEMO", {})

    def _check(self, keys):
        for kind, key in keys:
            assert content_digest((kind, key)) == _plain_digest((kind, key))
            assert canonical_encode(key) == _plain_encode(key)

    def test_cold_run_keys_match_the_plain_encoder(self, empty_memos,
                                                   tmp_path):
        keys = _cold_run_keys()
        kinds = {kind for kind, _ in keys}
        assert kinds == {GRID_KIND, "eventsim", "result"}
        assert len({key[0] for kind, key in keys if kind == GRID_KIND}) == 3
        self._check(keys)
        # Served from the encoding memo alone.
        store_module._DIGEST_MEMO.clear()
        self._check(keys)
        assert store_module._ENCODED
        # Cleared and refilled.
        store_module._ENCODED.clear()
        store_module._DIGEST_MEMO.clear()
        self._check(keys)
        # Record names follow the plain digest of the build and the key.
        store = SweepStore(tmp_path / "store")
        for kind, key in keys:
            assert (store.path_for(kind, key).name == "{}-{}.npz".format(
                kind, _plain_digest((build_digest(), kind, key))))

    def test_reused_grid_key_axes_are_walked_once(self, empty_memos,
                                                  monkeypatch):
        # Every grid key of one architecture holds the same axis tuple,
        # and the memo serves its text: a second kernel's key encodes
        # the tuple with one call instead of walking its 23 numbers.
        monkeypatch.setattr(sweepcache_module, "_GRID_SPACES", {})
        platform = make_hd7970_platform()
        first, second = (platform.sweep_cache_key(kernel.base)
                         for kernel in all_kernels()[:2])
        assert first[2] is second[2]
        assert content_digest((GRID_KIND, first)) == _plain_digest(
            (GRID_KIND, first))
        encoded = []
        original = store_module.canonical_encode

        def counting(value):
            encoded.append(value)
            return original(value)

        monkeypatch.setattr(store_module, "canonical_encode", counting)
        assert content_digest((GRID_KIND, second)) == _plain_digest(
            (GRID_KIND, second))
        axes = second[2]
        assert sum(value is axes for value in encoded) == 1
        assert not any(value is part for value in encoded for part in axes)

    def test_equal_values_keep_their_own_text(self, empty_memos):
        @dataclasses.dataclass(frozen=True)
        class Point:
            x: float

        as_int, as_float = Point(1), Point(1.0)
        assert as_int == as_float
        assert canonical_encode(as_int) == "Point(x=1)"
        assert canonical_encode(as_float) == "Point(x=0x1.0000000000000p+0)"
        assert canonical_encode(as_int) == "Point(x=1)"

    def test_mutable_dataclasses_are_not_kept(self, empty_memos):
        @dataclasses.dataclass
        class Box:
            x: int

        box = Box(1)
        assert canonical_encode(box) == "Box(x=1)"
        box.x = 2
        assert canonical_encode(box) == "Box(x=2)"
        assert store_module._ENCODED == {}


class TestResolveStoreDir:
    def test_explicit_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_store_dir(str(tmp_path / "flag")) == tmp_path / "flag"

    def test_env_beats_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_store_dir() == tmp_path / "env"

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(store_module.CACHE_DIR_ENV, raising=False)
        assert resolve_store_dir() == Path.home() / ".cache" / "repro-harmonia"


# --- round trips -----------------------------------------------------------------


class TestRoundTrip:
    def test_record_round_trip_is_bitwise(self, platform):
        batch = platform.grid_sweep(all_kernels()[0].base)
        rebuilt = batch_from_record(*batch_to_record(batch),
                                    platform.config_space.configs)
        _assert_batches_bitwise_equal(batch, rebuilt)

    def test_store_round_trip_is_bitwise(self, store, platform):
        for kernel in all_kernels()[:4]:
            batch = platform.grid_sweep(kernel.base)
            key = _grid_key(platform, kernel.base)
            assert store.save_batch(key, batch)
            loaded = store.load_batch(key)
            assert loaded is not None
            _assert_batches_bitwise_equal(batch, loaded)

    def test_derived_surfaces_survive(self, store, platform):
        spec = all_kernels()[2].base
        batch = platform.grid_sweep(spec)
        key = _grid_key(platform, spec)
        store.save_batch(key, batch)
        loaded = store.load_batch(key)
        np.testing.assert_array_equal(batch.card_power, loaded.card_power)
        np.testing.assert_array_equal(batch.energy, loaded.energy)
        np.testing.assert_array_equal(batch.ed2, loaded.ed2)
        assert batch.configs == loaded.configs
        assert batch.bandwidth_limit == loaded.bandwidth_limit
        assert batch.occupancy == loaded.occupancy

    def test_no_tempfiles_left_behind(self, store, platform):
        spec = all_kernels()[0].base
        store.save_batch(_grid_key(platform, spec), platform.grid_sweep(spec))
        leftovers = [p for p in store.root.iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []


def _assert_batches_bitwise_equal(a, b):
    assert a.kernel_name == b.kernel_name
    np.testing.assert_array_equal(a.time, b.time)
    np.testing.assert_array_equal(a.compute_time, b.compute_time)
    np.testing.assert_array_equal(a.memory_time, b.memory_time)
    np.testing.assert_array_equal(a.achieved_bandwidth, b.achieved_bandwidth)
    np.testing.assert_array_equal(a.gpu_power, b.gpu_power)
    np.testing.assert_array_equal(a.memory_power, b.memory_power)
    assert a.launch_overhead == b.launch_overhead
    assert a.other_power == b.other_power
    assert a.counters.valu_utilization == b.counters.valu_utilization
    np.testing.assert_array_equal(a.counters.valu_busy, b.counters.valu_busy)
    np.testing.assert_array_equal(a.counters.ic_activity,
                                  b.counters.ic_activity)


# --- robustness ------------------------------------------------------------------


class TestRobustness:
    def test_absent_record_is_plain_miss(self, store, platform):
        key = _grid_key(platform, all_kernels()[0].base)
        assert store.load_batch(key) is None
        stats = store.stats()
        assert stats.misses == 1
        assert stats.invalid_records == 0

    def test_truncated_record_recomputes_and_rewrites(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        store.save_batch(key, batch)
        path = store.path_for(GRID_KIND, key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        assert store.load_batch(key) is None
        assert store.stats().invalid_records == 1
        # The caller's recompute-and-rewrite heals the record.
        store.save_batch(key, batch)
        healed = store.load_batch(key)
        assert healed is not None
        _assert_batches_bitwise_equal(batch, healed)

    def test_corrupted_record_is_invalid_miss(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_batch(key, platform.grid_sweep(spec))
        path = store.path_for(GRID_KIND, key)
        path.write_bytes(b"\x00" * 100)
        assert store.load_batch(key) is None
        assert store.stats().invalid_records == 1

    def test_record_of_another_build_is_never_addressed(
            self, store, platform, monkeypatch):
        """A record that other code wrote sits at another address: the
        lookup is a plain miss that never reads it, and the record stays
        on disk for the build that wrote it."""
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        monkeypatch.setattr(store_module, "build_digest", lambda: "0" * 64)
        assert store.save_batch(key, batch)
        other = store.path_for(GRID_KIND, key)
        monkeypatch.undo()
        assert store.path_for(GRID_KIND, key) != other
        assert store.load_batch(key) is None
        stats = store.stats()
        assert (stats.misses, stats.invalid_records, stats.bytes_read) == (
            1, 0, 0)
        assert other.exists()
        monkeypatch.setattr(store_module, "build_digest", lambda: "0" * 64)
        _assert_batches_bitwise_equal(batch, store.load_batch(key))

    def test_wrong_kind_record_is_miss(self, store, platform):
        """A record copied under another kind's address fails the
        digest self-check."""
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_batch(key, platform.grid_sweep(spec))
        impostor = store.path_for("other", key)
        impostor.write_bytes(store.path_for(GRID_KIND, key).read_bytes())
        assert store.load_record("other", key) is None
        assert store.stats().invalid_records == 1

    def test_write_failure_degrades_silently(self, store, platform,
                                             monkeypatch):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", boom)
        assert store.save_batch(key, batch) is False
        monkeypatch.undo()
        assert store.load_batch(key) is None  # nothing was published

    def test_semantically_broken_record_demoted_to_miss(self, store,
                                                        platform):
        """A valid npz whose arrays do not form a grid reads as a miss."""
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_record(GRID_KIND, key,
                          {"time": np.zeros(3, dtype=np.float64)})
        assert store.load_batch(key) is None
        stats = store.stats()
        assert stats.hits == 0
        assert stats.invalid_records == 1

    @pytest.mark.parametrize("breakage", [
        "short_stack", "narrow_grid", "limit_code_out_of_range"])
    def test_undecodable_grid_is_accounted_once_as_a_miss(self, tmp_path,
                                                          platform,
                                                          breakage):
        """A well-formed raw record that is not a surface over its key's
        grid — a ``stack`` with the wrong row count, a width other than
        the grid's size, a limit code past ``BANDWIDTH_LIMITS`` — is a
        miss in every counter: stats, bytes and telemetry."""
        from repro.perf.batch import BANDWIDTH_LIMITS

        telemetry = Telemetry()
        store = SweepStore(tmp_path / "s")
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        arrays, meta = batch_to_record(platform.grid_sweep(spec))
        if breakage == "short_stack":
            arrays["stack"] = arrays["stack"][:-1]
        elif breakage == "narrow_grid":
            arrays["stack"] = arrays["stack"][:, :-1]
            arrays["limit_codes"] = arrays["limit_codes"][:-1]
        else:
            arrays["limit_codes"][7] = len(BANDWIDTH_LIMITS)
        with telemetry.span("test"):
            assert store.save_record(GRID_KIND, key, arrays, meta=meta)
            assert store.load_batch(key) is None
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.invalid_records) == (0, 1, 1)
        assert stats.bytes_read == 0
        metrics = telemetry.metrics
        assert metrics.counter("sweep_store_hits_total", "").value(
            kind=GRID_KIND) == 0.0
        assert metrics.counter("sweep_store_misses_total", "").value(
            kind=GRID_KIND) == 1.0
        assert metrics.counter("sweep_store_bytes", "").value(
            direction="read") == 0.0

    def test_savez_record_is_invalid_miss_and_rewritten_raw(
            self, tmp_path, fresh_platform):
        """An ``np.savez`` archive at a grid address (the zip layout of
        older builds) misses as invalid, is recomputed bitwise, and the
        write-through replaces it with a raw container."""
        spec = all_kernels()[1].base
        store = SweepStore(tmp_path / "s")
        key = _grid_key(fresh_platform, spec)
        batch = fresh_platform.grid_sweep(spec)
        path = store.path_for(GRID_KIND, key)
        arrays, meta = batch_to_record(batch)
        meta.update(kind=GRID_KIND, digest=path.stem.split("-", 1)[1])
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
        assert path.read_bytes()[:4] == b"PK\x03\x04"

        cache = SweepCache(store=store)
        again = fresh_platform.grid_sweep(spec, cache=cache)
        _assert_batches_bitwise_equal(batch, again)
        stats = store.stats()
        assert (stats.hits, stats.invalid_records) == (0, 1)
        assert path.read_bytes().startswith(store_module._RAW_MAGIC)
        _assert_batches_bitwise_equal(batch, store.load_batch(key))

    def test_store_filled_before_the_build_digest_is_never_read(
            self, tmp_path, fresh_platform):
        """A grid record at the address older builds used (the digest of
        ``(kind, key)`` alone) is never read: the lookup misses without
        touching it, the surface is recomputed bitwise and written to
        this build's address, and the old record stays as it was."""
        spec = all_kernels()[1].base
        store = SweepStore(tmp_path / "s")
        key = _grid_key(fresh_platform, spec)
        batch = fresh_platform.grid_sweep(spec)
        arrays, meta = batch_to_record(batch)
        old_digest = content_digest((GRID_KIND, key))
        old = store.root / f"{GRID_KIND}-{old_digest}.npz"
        meta.update(schema=2, kind=GRID_KIND, digest=old_digest)
        with open(old, "wb") as fh:
            store_module._write_raw_record(fh, meta, arrays)
        old_bytes = old.read_bytes()

        cache = SweepCache(store=store)
        again = fresh_platform.grid_sweep(spec, cache=cache)
        _assert_batches_bitwise_equal(batch, again)
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.invalid_records) == (0, 1, 0)
        assert old.read_bytes() == old_bytes
        path = store.path_for(GRID_KIND, key)
        assert path != old
        rewritten, rewritten_meta = store_module._read_record(path)
        assert "schema" not in rewritten_meta
        assert sorted(rewritten) == ["limit_codes", "stack"]
        loaded = store.load_batch(key)
        _assert_batches_bitwise_equal(batch, loaded)
        assert loaded.configs is fresh_platform.config_space.configs


# --- generic array records -------------------------------------------------------


#: float64 and int64 arrays of up to three dimensions, zero-sized and
#: 0-d shapes included, over every float bit pattern Hypothesis draws
#: (NaNs, infinities and -0.0 too).
_RECORD_ARRAYS = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.sampled_from([np.float64, np.int64]).flatmap(
        lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3,
                                                 min_side=0, max_side=4))),
    max_size=4,
)

#: JSON-stable metadata: what ``json.loads(json.dumps(m)) == m`` keeps,
#: minus the two keys the store writes itself.
_RECORD_META = st.dictionaries(
    st.text(max_size=8).filter(
        lambda name: name not in ("kind", "digest")),
    st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.text(max_size=4), children,
                                            max_size=3)),
        max_leaves=8,
    ),
    max_size=4,
)


class TestGenericRecords:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([EVENTSIM_KIND, RESULT_KIND]),
           key=st.tuples(st.text(max_size=8), st.integers()),
           record=_RECORD_ARRAYS, meta=_RECORD_META)
    def test_record_round_trip_is_bitwise(self, kind, key, record, meta):
        with tempfile.TemporaryDirectory() as root:
            store = SweepStore(root)
            assert store.save_record(kind, key, record, meta=meta)
            loaded, loaded_meta = store.load_record(kind, key)
        assert list(loaded) == list(record)
        for name, array in record.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].shape == array.shape
            assert loaded[name].tobytes() == array.tobytes()
        kept = {name: value for name, value in loaded_meta.items()
                if name not in ("kind", "digest")}
        assert (json.dumps(kept, sort_keys=True)
                == json.dumps(meta, sort_keys=True))

    def test_kinds_are_separate_namespaces(self, store):
        key = ("same",)
        store.save_record("a", key, {"x": np.ones(2)})
        assert store.load_record("b", key) is None
        assert store.load_record("a", key) is not None


# --- statistics and telemetry ----------------------------------------------------


class TestAccounting:
    def test_stats_count_bytes(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_batch(key, platform.grid_sweep(spec))
        store.load_batch(key)
        stats = store.stats()
        assert stats.hits == 1
        assert stats.bytes_written > 0
        assert stats.bytes_read == stats.bytes_written

    def test_telemetry_counters_and_spans(self, tmp_path, platform):
        telemetry = Telemetry()
        store = SweepStore(tmp_path / "s")
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        with telemetry.span("test"):
            store.load_batch(key)  # miss
            store.save_batch(key, batch)
            store.load_batch(key)  # hit

        metrics = telemetry.metrics
        assert metrics.counter(
            "sweep_store_hits_total", "",
        ).value(kind=GRID_KIND) == 1.0
        assert metrics.counter(
            "sweep_store_misses_total", "",
        ).value(kind=GRID_KIND) == 1.0
        read = metrics.counter("sweep_store_bytes", "").value(
            direction="read")
        written = metrics.counter("sweep_store_bytes", "").value(
            direction="write")
        assert read == written > 0
        assert [record.name for record in telemetry.spans.records()] == [
            "sweep_store.load", "sweep_store.save", "sweep_store.load",
            "test"]


# --- concurrency -----------------------------------------------------------------


class TestConcurrency:
    def test_racing_thread_writers_converge(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        errors = []

        def worker():
            try:
                for _ in range(5):
                    assert store.save_batch(key, batch)
                    loaded = store.load_batch(key)
                    if loaded is not None:
                        np.testing.assert_array_equal(batch.time, loaded.time)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        records = [p for p in store.root.iterdir() if ".tmp" not in p.name]
        assert len(records) == 1
        final = store.load_batch(key)
        _assert_batches_bitwise_equal(batch, final)

    def test_two_processes_converge(self, tmp_path, platform):
        """Two separate interpreters writing the same key publish one
        valid record, bitwise equal to an in-process sweep."""
        root = tmp_path / "shared-store"
        script = (
            "import sys\n"
            "from repro.platform.hd7970 import make_hd7970_platform\n"
            "from repro.platform.store import SweepStore\n"
            "from repro.workloads.registry import all_kernels\n"
            "platform = make_hd7970_platform()\n"
            "spec = all_kernels()[0].base\n"
            "store = SweepStore(sys.argv[1])\n"
            "key = platform.sweep_cache_key(spec)\n"
            "assert store.save_batch(key, platform.grid_sweep(spec))\n"
            "assert store.load_batch(key) is not None\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root)],
                env={**_clean_env(), "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0

        spec = all_kernels()[0].base
        store = SweepStore(root)
        loaded = store.load_batch(platform.sweep_cache_key(spec))
        assert loaded is not None
        _assert_batches_bitwise_equal(platform.grid_sweep(spec), loaded)


def _clean_env():
    import os
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


# --- the two-tier cache ----------------------------------------------------------


class TestTwoTierCache:
    def test_write_through_and_cross_instance_warm_start(self, tmp_path,
                                                         fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        first = SweepCache(store=store)
        batch = fresh_platform.grid_sweep(spec, cache=first)
        assert first.stats().memory == (0, 1)
        assert first.stats().store == (0, 1)  # cold store missed first

        # A second cache instance (a "second process") never computes.
        second = SweepCache(store=store)
        served = second.get_or_compute(
            fresh_platform.sweep_cache_key(spec),
            compute=lambda: pytest.fail("store should have served this"),
        )
        _assert_batches_bitwise_equal(batch, served)
        assert second.stats().memory == (0, 1)
        assert second.stats().store == (1, 0)
        # The store hit was promoted into the memory tier.
        second.get_or_compute(
            fresh_platform.sweep_cache_key(spec),
            compute=lambda: pytest.fail("memory should have served this"),
        )
        assert second.stats().memory == (1, 1)

    def test_get_consults_store(self, tmp_path, fresh_platform):
        spec = all_kernels()[1].base
        store = SweepStore(tmp_path / "s")
        key = fresh_platform.sweep_cache_key(spec)
        store.save_batch(key, fresh_platform.grid_sweep(spec))
        cache = SweepCache(store=store)
        assert cache.get(key) is not None
        assert cache.stats().store == (1, 0)
        assert cache.get(key) is not None  # now from memory
        assert cache.stats().memory == (1, 1)

    def test_detach_store_runs_memory_only(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        cache = SweepCache(store=store)
        cache.detach_store()
        fresh_platform.grid_sweep(spec, cache=cache)
        assert cache.stats().store == (0, 0)
        assert not any(store.root.iterdir())

    def test_memory_clear_then_store_serves(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        cache = SweepCache(store=SweepStore(tmp_path / "s"))
        batch = fresh_platform.grid_sweep(spec, cache=cache)
        cache.clear()
        again = fresh_platform.grid_sweep(spec, cache=cache)
        _assert_batches_bitwise_equal(batch, again)
        assert cache.stats().store == (1, 1)

    def test_corrupted_store_record_recomputed_and_healed(
            self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        cache = SweepCache(store=store)
        key = fresh_platform.sweep_cache_key(spec)
        batch = fresh_platform.grid_sweep(spec, cache=cache)
        store.path_for(GRID_KIND, key).write_bytes(b"garbage")
        cache.clear()

        again = fresh_platform.grid_sweep(spec, cache=cache)
        _assert_batches_bitwise_equal(batch, again)
        # ... and the write-through healed the record on disk.
        healed = store.load_batch(key)
        assert healed is not None
        _assert_batches_bitwise_equal(batch, healed)

    def test_publish_emits_per_tier_counters(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        cache = SweepCache(store=SweepStore(tmp_path / "s"))
        fresh_platform.grid_sweep(spec, cache=cache)
        fresh_platform.grid_sweep(spec, cache=cache)
        telemetry = Telemetry()
        cache.publish(telemetry)
        hits = telemetry.metrics.counter("sweep_cache_hits_total", "")
        misses = telemetry.metrics.counter("sweep_cache_misses_total", "")
        assert hits.value(tier="memory") == 1.0
        assert misses.value(tier="memory") == 1.0
        assert misses.value(tier="store") == 1.0
        assert hits.value(tier="store") == 0.0

    def test_eviction_leaves_held_batch_intact(self, tmp_path,
                                               fresh_platform):
        specs = [k.base for k in all_kernels()[:2]]
        store = SweepStore(tmp_path / "s")
        for spec in specs:
            store.save_batch(_grid_key(fresh_platform, spec),
                             fresh_platform.grid_sweep(spec))
        cache = SweepCache(maxsize=1, store=store)
        first = cache.get(_grid_key(fresh_platform, specs[0]))
        held = first.time.copy()
        cache.get(_grid_key(fresh_platform, specs[1]))  # evicts first
        assert len(cache) == 1
        np.testing.assert_array_equal(first.time, held)
        _assert_batches_bitwise_equal(fresh_platform.grid_sweep(specs[0]),
                                      first)

