"""The build digest: a store serves a record only to the code that wrote it.

Every store address folds in :func:`repro.platform.store.build_digest`,
a digest of the package source and of numpy's version file. The tests
here copy ``src/`` into a temporary directory, fill a store from the
copy, edit the copy and check that the next run computes afresh.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.platform.store import build_digest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints ``[build_digest(), sorted(sys.modules)]`` as JSON.
_DIGEST_CHILD = """
import json, sys
from repro.platform.store import build_digest
print(json.dumps([build_digest(), sorted(sys.modules)]))
"""


def _child(pythonpath, *argv: str) -> str:
    """The stdout of ``python *argv`` with ``pythonpath`` as its
    ``PYTHONPATH`` and no ``REPRO_*`` setting."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(pythonpath)
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _repro(src: Path, *argv: str) -> str:
    """The stdout of ``python -m repro *argv`` run from ``src``."""
    return _child(src, "-m", "repro", *argv)


def _child_digest(pythonpath) -> str:
    return json.loads(_child(pythonpath, "-c", _DIGEST_CHILD))[0]


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new), encoding="utf-8")


@pytest.fixture()
def src_copy(tmp_path) -> Path:
    """A copy of ``src/`` without bytecode caches."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


class TestBuildDigest:
    def test_loads_no_numpy_in_a_fresh_interpreter(self):
        digest, modules = json.loads(_child(SRC, "-c", _DIGEST_CHILD))
        assert digest == build_digest()
        assert len(digest) == 64
        assert [name for name in modules
                if name == "numpy" or name.startswith("numpy.")] == []

    def test_changes_with_any_file_of_the_package(self, src_copy):
        package = src_copy / "repro"
        # The same files at the same relative paths: the same build.
        assert _child_digest(src_copy) == build_digest()
        seen = {build_digest()}

        # A docstring edit deep in the package.
        shoc = package / "workloads" / "suites" / "shoc.py"
        original = shoc.read_text(encoding="utf-8")
        shoc.write_text(original.replace('"""', '""" ', 1),
                        encoding="utf-8")
        seen.add(_child_digest(src_copy))
        shoc.write_text(original, encoding="utf-8")

        # A new module, then the same bytes under another name.
        extra = package / "extra.py"
        extra.write_text("VALUE = 1\n", encoding="utf-8")
        seen.add(_child_digest(src_copy))
        extra.rename(package / "extra2.py")
        seen.add(_child_digest(src_copy))
        assert len(seen) == 4

        # Files that are not Python source do not count.
        (package / "extra2.py").unlink()
        (package / "notes.txt").write_text("not code\n", encoding="utf-8")
        assert _child_digest(src_copy) == build_digest()

    def test_follows_numpy_version_file(self, tmp_path):
        """A numpy found first on the path with another ``version.py``
        is another build; finding it imports nothing from it."""
        fake = tmp_path / "fake" / "numpy"
        fake.mkdir(parents=True)
        (fake / "__init__.py").write_text(
            "raise ImportError('imported')\n", encoding="utf-8")
        (fake / "version.py").write_text("version = '0.0.0'\n",
                                         encoding="utf-8")
        pythonpath = os.pathsep.join([str(fake.parent), str(SRC)])
        digest = _child_digest(pythonpath)
        assert digest != build_digest()
        (fake / "version.py").write_text("version = '0.0.1'\n",
                                         encoding="utf-8")
        assert _child_digest(pythonpath) not in (digest, build_digest())

    def test_computed_once_on_the_first_store_address(self, tmp_path):
        """A run without a store never hashes the source; a process
        hashes it once, however many records it addresses."""
        script = ("import contextlib, io, sys\n"
                  "from repro.cli import main\n"
                  "from repro.platform import store\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    main(['figure', 'table1', '--no-cache'])\n"
                  "before = store.build_digest.cache_info().misses\n"
                  "records = store.SweepStore(sys.argv[1])\n"
                  "for name in ('a', 'b', 'c'):\n"
                  "    records.load_record(store.RESULT_KIND, name)\n"
                  "print(before, store.build_digest.cache_info().misses)\n")
        assert _child(SRC, "-c", script, str(tmp_path)) == "0 1\n"


class TestStaleBuild:
    """A store that one build filled serves none of its records to an
    edited build: each command prints what ``--no-cache`` prints."""

    def test_edited_formatter_and_model_are_served_fresh(self, src_copy,
                                                         tmp_path):
        cache = ("--cache-dir", str(tmp_path / "store"))
        fig01 = _repro(src_copy, "figure", "fig01", *cache)
        run_argv = ("run", "MaxFlops", "--policy", "baseline")
        run = _repro(src_copy, *run_argv, *cache)
        assert "164.28" in run

        old_title = "Figure 1: card power breakdown"
        new_title = "Figure 1 (edited): card power breakdown"
        assert old_title in fig01
        _edit(src_copy / "repro" / "experiments" / "fig01_power_breakdown.py",
              old_title, new_title)
        edited = _repro(src_copy, "figure", "fig01", *cache)
        assert new_title in edited
        assert edited == _repro(src_copy, "figure", "fig01", "--no-cache")

        # Double the compute-issue term of both the scalar and the batched
        # model.
        _edit(src_copy / "repro" / "perf" / "model.py",
              ") * self._arch.cycles_per_valu_inst",
              ") * 2.0 * self._arch.cycles_per_valu_inst")
        doubled = _repro(src_copy, *run_argv, *cache)
        assert "164.28" not in doubled
        assert doubled == _repro(src_copy, *run_argv, "--no-cache")
