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

A stream costs only what numpy needs for it: ``SeedSequence``, ``Philox``
and ``normal``. :func:`spec_entropy` hashes a spec once per spec instance
and caches the value on the frozen spec, and the key reaches
``SeedSequence`` as a ``uint32`` array of exactly the words numpy's own
int coercion would produce, so the pool equals that of
``SeedSequence([seed, iteration, spec_entropy(spec)])`` without
numpy splitting Python ints word by word.

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
import operator
import threading
from collections import OrderedDict
from typing import List, Tuple

import numpy as np

from repro.perf.kernelspec import KernelSpec

#: Lower bound on the noise multiplier: a launch is never reported more
#: than 20x faster than the model time, and never non-positive.
NOISE_FLOOR = 0.05

#: How many per-``(spec, iteration)`` multiplier vectors one model keeps
#: (LRU). Every entry is recomputable from its key, so the bound only
#: trades CPU for memory; a Monte Carlo run derives no stream twice.
MEMO_SIZE = 256


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


def _uint32_words(value: int) -> List[int]:
    """The little-endian 32-bit words of a non-negative int, minimal
    length and ``[0]`` for zero: how ``SeedSequence`` coerces one int of
    its entropy list."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _stream_key(seed_words: List[int], iteration: int,
                entropy: int) -> np.ndarray:
    """The ``uint32`` entropy array that ``SeedSequence([seed, iteration,
    entropy])`` builds from its int list (``seed_words`` being
    ``_uint32_words(seed)``): the same pool, without numpy coercing the
    Python ints word by word."""
    return np.array(seed_words + _uint32_words(iteration)
                    + _uint32_words(entropy), dtype=np.uint32)


class LaunchKeyedNoise:
    """Order-independent execution-time noise over a configuration grid.

    Args:
        std_fraction: noise standard deviation as a fraction of the
            launch time (must be positive — a noise-free platform simply
            has no noise model).
        seed: the platform seed, the outermost key component: a
            non-negative integer (``bool`` and numpy integers key the
            stream of their integer value, as in ``SeedSequence``).
        grid_size: number of configurations on the platform grid; each
            ``(seed, spec, iteration)`` stream yields one draw per grid
            position.

    Raises:
        TypeError: if ``seed`` is not an integer.
        ValueError: if ``seed`` is negative, or ``std_fraction`` or
            ``grid_size`` is not positive.
    """

    def __init__(self, std_fraction: float, seed: int, grid_size: int):
        if std_fraction <= 0:
            raise ValueError("std_fraction must be positive")
        if grid_size <= 0:
            raise ValueError("grid_size must be positive")
        try:
            seed_value = operator.index(seed)
        except TypeError:
            raise TypeError(
                f"seed must be an integer, got {seed!r}") from None
        if seed_value < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
        self._std = std_fraction
        self._seed = seed
        self._seed_words = _uint32_words(seed_value)
        self._grid_size = grid_size
        self._memo: "OrderedDict[Tuple[KernelSpec, int], Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def std_fraction(self) -> float:
        """The noise standard deviation (fraction of launch time)."""
        return self._std

    @property
    def seed(self) -> int:
        """The platform seed keying every stream."""
        return self._seed

    @property
    def grid_size(self) -> int:
        """Draws generated per ``(seed, spec, iteration)`` stream."""
        return self._grid_size

    def _derive(self, spec: KernelSpec, iteration: int) -> Tuple[np.ndarray, np.ndarray]:
        sequence = np.random.SeedSequence(
            _stream_key(self._seed_words, iteration, spec_entropy(spec))
        )
        draws = np.random.Generator(np.random.Philox(sequence)).normal(
            0.0, self._std, size=self._grid_size
        )
        raw = 1.0 + draws
        multipliers = np.maximum(NOISE_FLOOR, raw)
        clipped = raw < NOISE_FLOOR
        multipliers.setflags(write=False)
        clipped.setflags(write=False)
        return multipliers, clipped

    def multipliers_for(self, spec: KernelSpec,
                        iteration: int) -> Tuple[np.ndarray, np.ndarray]:
        """All grid positions' multipliers for one ``(spec, iteration)``.

        Returns:
            ``(multipliers, clipped)`` — two read-only arrays of length
            ``grid_size``; ``clipped[i]`` marks draws that hit the
            :data:`NOISE_FLOOR` clamp.

        Raises:
            ValueError: if ``iteration`` is negative (the key must be a
                valid ``SeedSequence`` entropy word).
        """
        if iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {iteration}")
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
            entry = self._derive(spec, iteration)
            self._memo[key] = entry
            while len(self._memo) > MEMO_SIZE:
                self._memo.popitem(last=False)
            return entry

    def multiplier_at(self, spec: KernelSpec, iteration: int,
                      grid_index: int) -> Tuple[float, bool]:
        """One launch's ``(multiplier, clipped)`` — the scalar view.

        The value is literally an element of :meth:`multipliers_for`'s
        vector, so scalar and batched noise agree bitwise.
        """
        multipliers, clipped = self.multipliers_for(spec, iteration)
        return float(multipliers[grid_index]), bool(clipped[grid_index])
