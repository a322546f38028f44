"""Shared fixtures.

Session-scoped fixtures share the expensive pieces (the trained predictors
and the four-policy evaluation matrix) across the whole suite; tests that
mutate policy state always construct fresh policies.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import ExperimentContext
from repro.gpu.architecture import HD7970
from repro.gpu.config import ConfigSpace
from repro.platform.hd7970 import make_hd7970_platform


@pytest.fixture(scope="session", autouse=True)
def _isolated_store_dir(tmp_path_factory):
    """Point the persistent sweep store at a throwaway directory.

    Tests must never read or write ~/.cache: anything that resolves the
    default store location (CLI paths, store tests) lands here instead.
    """
    import os
    from repro.platform.store import CACHE_DIR_ENV
    previous = os.environ.get(CACHE_DIR_ENV)
    root = tmp_path_factory.mktemp("sweep-store")
    os.environ[CACHE_DIR_ENV] = str(root)
    yield root
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """Shared experiment context (platform + training + evaluation)."""
    return ExperimentContext()


@pytest.fixture(scope="session")
def platform(context):
    """The shared deterministic HD7970 test bed."""
    return context.platform


@pytest.fixture(scope="session")
def space(platform) -> ConfigSpace:
    """The shared configuration grid."""
    return platform.config_space


@pytest.fixture(scope="session")
def arch():
    """The HD7970 architecture description."""
    return HD7970


@pytest.fixture(scope="session")
def training(context):
    """The Section 4 training report (predictors + dataset)."""
    return context.training


@pytest.fixture(scope="session")
def evaluation(context):
    """The cached Figures 10-13 evaluation matrix."""
    return context.evaluation


@pytest.fixture()
def fresh_platform():
    """A private platform for tests that need isolation."""
    return make_hd7970_platform()


@pytest.fixture
def derived_streams(monkeypatch):
    """``(seed words, pair words)`` of every noise stream derived while
    the test runs: the bulk fill and a lone memo miss both join each
    stream's seed words to its ``(spec, iteration)`` words exactly once
    (the fill builds a pair's words once for all seeds)."""
    from repro.platform import noise

    derived = []
    stream_words = noise._stream_words

    def counting_words(seed_words, pair_words):
        derived.append((seed_words, pair_words))
        return stream_words(seed_words, pair_words)

    monkeypatch.setattr(noise, "_stream_words", counting_words)
    return derived
