"""Stateless, launch-keyed measurement noise.

The platform used to draw run-to-run noise from one sequential
``np.random.default_rng`` stream, so a launch's multiplier depended on how
many launches happened before it — scalar and batched evaluation could
never agree, noisy surfaces could not be cached, and any change of
evaluation order reordered the draws. :class:`LaunchKeyedNoise` replaces
that stream with a counter-based derivation: the multiplier of a launch
is a pure function of

    (platform seed, kernel spec, iteration, grid index of the config)

via ``np.random.SeedSequence`` -> ``np.random.Philox``. One Philox stream
is keyed per ``(seed, spec, iteration)`` and yields a normal draw for every
grid position in one vectorized call; a scalar launch simply indexes that
vector. The same launch therefore always sees the same multiplier — under
any execution order, interleaving, thread count, or batch/scalar split —
and scalar and batched noise are bitwise identical by construction.

A stream costs little beyond numpy's standard normal draws: no numpy
object is constructed for it. :func:`spec_entropy` hashes a spec once
per spec instance and caches the value on the frozen spec. Each model
owns one ``Philox``/``Generator`` pair and re-keys it for every stream
with the key that ``Philox(SeedSequence([seed, iteration,
spec_entropy(spec)]))`` would compute, a zero counter and an empty
buffer: the exact state of a newly seeded generator. One stream's key
comes from numpy's own ``SeedSequence.generate_state``; the Monte Carlo
engine keys a rollout's streams a chunk at a time with :func:`fill_memos`,
whose :func:`seed_sequence_keys` reimplements that hash vectorized over
streams. A chunk builds each ``(spec, iteration)`` pair's key words once
for all seeds, and each model scales, flags and clamps its chunk's
draws as one block. Either way every draw equals the plain derivation
bit for bit (``tests/test_noise_rng.py``).

Multipliers are clamped at :data:`NOISE_FLOOR`: a Gaussian draw can push
``1 + draw`` arbitrarily close to (or below) zero, and a non-positive
launch time breaks every downstream metric (energy, ED², performance).
The floor caps the modelled speed-up at 20x, far outside the run-to-run
variance the paper averages away; clips are reported so heavy-noise
studies can see when the tail is being truncated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import operator
import threading
from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.perf.kernelspec import KernelSpec

#: Lower bound on the noise multiplier: a launch is never reported more
#: than 20x faster than the model time, and never non-positive.
NOISE_FLOOR = 0.05

#: How many per-``(spec, iteration)`` multiplier vectors one model keeps
#: (LRU), and so the most pairs one :func:`fill_memos` chunk holds. Every
#: entry is recomputable, so the bound trades CPU for memory; a Monte
#: Carlo rollout reads each stream once, right after its chunk's fill.
MEMO_SIZE = 32

#: ``SeedSequence`` constants (numpy/random/bit_generator.pyx): the
#: entropy pool size and the multiplicative hashes that mix entropy into
#: the pool and draw the generator state out of it.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)

#: A memo entry: one stream's ``(multipliers, clipped)`` vectors.
_Entry = Tuple[np.ndarray, np.ndarray]


def spec_entropy(spec: KernelSpec) -> int:
    """A stable 128-bit integer key of a kernel spec's *values*.

    Built from a canonical field-by-field rendering hashed with BLAKE2b,
    so it is reproducible across processes and Python hash randomization
    (unlike ``hash(spec)``), and any changed characteristic — including a
    phase-evolved copy of the same kernel — keys a different noise stream.
    Specs are frozen, so the value is computed once per spec instance and
    cached on it, the way ``KernelSpec.__hash__`` caches its hash; being
    process-independent, the cached value survives a pickle.
    """
    cached = spec.__dict__.get("_cached_entropy")
    if cached is None:
        payload = "|".join(
            f"{field.name}={getattr(spec, field.name)!r}"
            for field in dataclasses.fields(spec)
        )
        digest = hashlib.blake2b(payload.encode("utf-8"),
                                 digest_size=16).digest()
        cached = int.from_bytes(digest, "little")
        object.__setattr__(spec, "_cached_entropy", cached)
    return cached


def _words(value: int) -> bytes:
    """The little-endian 32-bit words of a non-negative int, minimal
    length and one zero word for zero: how ``SeedSequence`` coerces one
    int of its entropy list."""
    return value.to_bytes((value.bit_length() + 31) // 32 * 4 or 4,
                          "little")


def _pair_words(iteration: int, entropy: int) -> bytes:
    """The words of ``iteration`` and a spec key ``entropy``: the tail
    that every seed's stream of one ``(spec, iteration)`` shares."""
    return _words(iteration) + _words(entropy)


def _stream_words(seed_words: bytes, pair_words: bytes) -> bytes:
    """The entropy words that ``SeedSequence([seed, iteration, entropy])``
    builds from its int list (``seed_words`` being ``_words(seed)`` and
    ``pair_words`` ``_pair_words(iteration, entropy)``)."""
    return seed_words + pair_words


def _key_int(value: object, name: str) -> int:
    """``value`` as the non-negative int it keys: ``bool`` and numpy
    integers key the stream of their integer value, as in
    ``SeedSequence``.

    Raises:
        TypeError: if ``value`` is not an integer.
        ValueError: if ``value`` is negative.
    """
    try:
        index = operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {value!r}") from None
    if index < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return index


def _pool_keys(columns: List[np.ndarray]) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` of rows of equal
    length, given as their uint32 word columns: one numpy operation per
    step of numpy's scalar loop over the words."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x
        result -= _MIX_MULT_R * y
        result ^= result >> 16
        return result

    rows, width = len(columns[0]), len(columns)
    pool = [hashmix(columns[i] if i < width
                    else np.zeros(rows, dtype=np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(columns[src]))

    # generate_state(2, np.uint64): four 32-bit words, read back as two
    # little-endian 64-bit ones.
    hash_const = _INIT_B
    state = []
    for word in pool:
        value = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        state.append(value.astype(np.uint64))
    keys = np.empty((rows, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def seed_sequence_keys(words: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` for many rows
    of entropy words at once.

    Args:
        words: the uint32 words of every row, back to back.
        counts: the number of words in each row, in order (each >= 1).

    Returns:
        An ``(n, 2)`` uint64 array, one Philox key per row in input
        order. Rows are hashed in groups of equal word count, since the
        count decides how many mixing rounds numpy runs.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    keys = np.empty((len(counts), 2), dtype=np.uint64)
    # The distinct counts in plain Python: np.unique imports numpy.ma on
    # first use (~20 ms, ~1 MiB), and nothing else in `montecarlo` does.
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        first = starts[rows]
        keys[rows] = _pool_keys([words[first + i] for i in range(count)])
    return keys


class LaunchKeyedNoise:
    """Order-independent execution-time noise over a configuration grid.

    Args:
        std_fraction: noise standard deviation as a fraction of the
            launch time (must be positive and finite — a noise-free
            platform simply has no noise model).
        seed: the platform seed, the outermost key component: a
            non-negative integer (``bool`` and numpy integers key the
            stream of their integer value, as in ``SeedSequence``).
        grid_size: number of configurations on the platform grid; each
            ``(seed, spec, iteration)`` stream yields one draw per grid
            position.

    Raises:
        TypeError: if ``seed`` is not an integer.
        ValueError: if ``seed`` is negative, ``std_fraction`` is not
            positive and finite, or ``grid_size`` is not positive.
    """

    def __init__(self, std_fraction: float, seed: int, grid_size: int):
        if not (std_fraction > 0 and math.isfinite(std_fraction)):
            raise ValueError("std_fraction must be positive and finite")
        if grid_size <= 0:
            raise ValueError("grid_size must be positive")
        self._std = std_fraction
        self._seed = seed
        self._seed_words = _words(_key_int(seed, "seed"))
        self._grid_size = grid_size
        # The clip flags of every stream that did not clip.
        self._no_clips = np.zeros(grid_size, dtype=bool)
        self._no_clips.setflags(write=False)
        self._memo: "OrderedDict[Tuple[KernelSpec, int], _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        # The one generator every stream of this model draws from: each
        # derivation re-keys it (its construction seed never shows).
        self._bit_generator = np.random.Philox(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._fresh_state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    @property
    def seed(self) -> int:
        """The platform seed keying every stream."""
        return self._seed

    def _draw(self, keys: np.ndarray) -> List[_Entry]:
        """The ``(multipliers, clipped)`` entries of the streams whose
        Philox keys are the rows of ``keys``. Call with the lock held.

        Each key sets the generator to the state a new
        ``Philox(SeedSequence(...))`` starts in: that key, a zero
        counter and an empty buffer (``buffer_pos`` 4 of 4). The
        standard normals of each stream fill one row of a block that is
        then scaled, shifted, flagged and clamped at once: ``normal(0.0,
        std)`` returns ``0.0 + std * z``, and ``1.0 + (0.0 + x)`` equals
        ``1.0 + x`` for every ``x``, so each row is bitwise the plain
        ``1.0 + normal(0.0, std, grid_size)``.

        Each stream gets a copy of its row, not a view: a view would pin
        the whole block for as long as the memo holds any of its rows.
        Streams that did not clip share one all-False ``clipped``.
        """
        raw = np.empty((len(keys), self._grid_size))
        state = self._fresh_state
        for key, row in zip(keys.tolist(), raw):
            state["state"]["key"] = key
            self._bit_generator.state = state
            self._generator.standard_normal(out=row)
        raw *= self._std
        raw += 1.0
        clipped = raw < NOISE_FLOOR
        np.maximum(NOISE_FLOOR, raw, out=raw)
        flags = [self._no_clips] * len(raw)
        for i in np.flatnonzero(clipped.any(axis=1)).tolist():
            flags[i] = clipped[i].copy()
            flags[i].setflags(write=False)
        entries = []
        for row, row_flags in zip(raw, flags):
            multipliers = row.copy()
            multipliers.setflags(write=False)
            entries.append((multipliers, row_flags))
        return entries

    def _store(self, pairs: Sequence[Tuple[KernelSpec, int]],
               keys: np.ndarray,
               keep: Iterable[Tuple[KernelSpec, int]] = ()) -> List[_Entry]:
        """Draw the streams keyed by the rows of ``keys`` and memoize them
        under ``pairs``. Call with the lock held.

        Room is made first, so the memo never holds more than
        :data:`MEMO_SIZE` entries: the oldest entries go, except those
        under ``keep``. An entry that another thread has published
        meanwhile is replaced by an equal one (both are the same pure
        values).
        """
        memo = self._memo
        excess = len(memo) + len(pairs) - MEMO_SIZE
        if excess >= len(memo):     # every entry goes (a full chunk)
            memo.clear()
        elif excess > 0:
            for pair in keep:
                if pair in memo:
                    memo.move_to_end(pair)
            for _ in range(excess):
                memo.popitem(last=False)
        entries = self._draw(keys)
        memo.update(zip(pairs, entries))
        return entries

    def multipliers_for(self, spec: KernelSpec,
                        iteration: int) -> Tuple[np.ndarray, np.ndarray]:
        """All grid positions' multipliers for one ``(spec, iteration)``.

        Returns:
            ``(multipliers, clipped)`` — two read-only arrays of length
            ``grid_size``; ``clipped[i]`` marks draws that hit the
            :data:`NOISE_FLOOR` clamp.

        Raises:
            TypeError: if ``iteration`` is not an integer.
            ValueError: if ``iteration`` is negative (the key must be a
                valid ``SeedSequence`` entropy word).
        """
        iteration = _key_int(iteration, "iteration")
        key = (spec, iteration)
        # Lock-free fast path: ``dict.get`` is atomic under the GIL and
        # entries are immutable once published. Served entries skip the
        # LRU recency update — eviction order becomes approximate, which
        # only matters once the memo overflows (every entry is pure and
        # recomputable), and the hit is a per-launch hot path.
        entry = self._memo.get(key)
        if entry is not None:
            return entry
        with self._lock:
            entry = self._memo.get(key)
            if entry is not None:
                return entry
            # One stream: numpy's own scalar key hash beats the
            # vectorized one's fixed cost of ~200 numpy calls.
            words = _stream_words(self._seed_words,
                                  _pair_words(iteration, spec_entropy(spec)))
            sequence = np.random.SeedSequence(
                np.frombuffer(words, dtype="<u4"))
            (entry,) = self._store(
                (key,), sequence.generate_state(2, np.uint64).reshape(1, 2))
            return entry

    def multiplier_at(self, spec: KernelSpec, iteration: int,
                      grid_index: int) -> Tuple[float, bool]:
        """One launch's ``(multiplier, clipped)`` — the scalar view.

        The value is literally an element of :meth:`multipliers_for`'s
        vector, so scalar and batched noise agree bitwise.
        """
        multipliers, clipped = self.multipliers_for(spec, iteration)
        return float(multipliers[grid_index]), bool(clipped[grid_index])


def fill_memos(models: Sequence[LaunchKeyedNoise],
               pairs: Sequence[Tuple[KernelSpec, int]]) -> None:
    """Derive every ``(spec, iteration)`` stream of ``pairs`` that a
    model's memo lacks, keying all of them with one
    :func:`seed_sequence_keys` call.

    Afterwards each model's :meth:`~LaunchKeyedNoise.multipliers_for`
    serves every pair from its memo: pairs already memoized are moved
    out of the way of the eviction this fill causes. That holds only up
    to :data:`MEMO_SIZE` pairs, so callers fill and read larger sets in
    chunks of at most that many.

    Raises:
        TypeError: if an iteration is not an integer.
        ValueError: if ``pairs`` holds more than :data:`MEMO_SIZE`
            distinct pairs, or a negative iteration.
    """
    pairs = list(dict.fromkeys((spec, _key_int(iteration, "iteration"))
                               for spec, iteration in pairs))
    if len(pairs) > MEMO_SIZE:
        raise ValueError(f"{len(pairs)} pairs do not fit one memo of "
                         f"{MEMO_SIZE}; fill them in chunks")
    # A pair's words are the same in every model's stream of it.
    pair_words = [_pair_words(iteration, spec_entropy(spec))
                  for spec, iteration in pairs]
    misses: List[List[int]] = []    # per model: indices of the pairs it lacks
    flat = bytearray()      # every missing stream's words, back to back
    lengths: List[int] = []
    for model in models:
        memo, seed_words = model._memo, model._seed_words
        missing = [i for i, pair in enumerate(pairs) if pair not in memo]
        misses.append(missing)
        for i in missing:
            row = _stream_words(seed_words, pair_words[i])
            flat += row
            lengths.append(len(row) // 4)
    if not lengths:
        return
    keys = seed_sequence_keys(np.frombuffer(flat, dtype="<u4"), lengths)
    start = 0
    for model, missing in zip(models, misses):
        stop = start + len(missing)
        # Only a memo that holds some of the chunk already has entries
        # that the eviction must spare.
        keep = pairs if len(missing) < len(pairs) else ()
        with model._lock:
            model._store([pairs[i] for i in missing], keys[start:stop],
                         keep=keep)
        start = stop
