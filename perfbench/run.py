"""The repository benchmark: process wall-clock of ``python -m repro`` runs.

Usage::

    python3 perfbench/run.py --workload reproduce_cold --seed 1 \
        --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``reproduce_cold``: ``reproduce`` into a fresh, empty store per run.
* ``reproduce_warm``: ``reproduce`` against a store that one cold run
  filled in set-up, so every report is served from the result manifest.
* ``montecarlo``: ``montecarlo --seeds 32`` over all applications against
  a store filled in set-up, with trial seeds ``range(seed, seed + 32)``.

Every invocation is a fresh interpreter with ``PYTHONPATH=src``,
``--jobs 1`` and its own ``--cache-dir``, spawned from the checkout root
onto one CPU. With ``--trace 0`` the end-to-end metrics are measured with
tracing off. Each time is scaled to a fixed host speed by the calibration
process ``reference.py``, timed before and after it; the medians as
measured are printed beside the scaled ones.
With ``--trace 1`` traced invocations (``perfbench/layers.py``) alternate
with untraced ones and the per-layer metrics are reported. Every
invocation's outputs are checked against ``perfbench/digests.json``. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("reproduce_cold", "reproduce_warm", "montecarlo")
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("sim_ed2_gain_pct", "%"),
)
MC_TRIALS = 32
#: store fills per run for the workloads whose set-up is a fill
SETUP_REPEATS = 3
#: timed invocations per run at least, whatever ``--seconds`` says
MIN_SAMPLES = 3
IMPORTTIME_REPEATS = 5
#: nominal wall time of ``reference.py``: reported times are scaled to a
#: host on which the reference process takes this long
REFERENCE_S = 0.3
#: an invocation still running after this many seconds is killed
INVOCATION_TIMEOUT_S = 120
REPORT_COUNT = 26
#: (workload, metric, relation, value): deterministic layer counts every
#: traced run must show. A wrapper that stopped matching a renamed
#: function would read 0, so each layer a workload runs is held above 0.
COUNT_RULES = (
    ("reproduce_cold", "eventsim.lanes", "==", 675),
    ("reproduce_cold", "noise.lookups", "==", 0),
    ("reproduce_cold", "pipeline.nodes_served", "==", 0),
    ("reproduce_cold", "manifest.saves", "==", REPORT_COUNT),
    ("reproduce_cold", "perf.surfaces", ">", 0),
    ("reproduce_cold", "store.saves", ">", 0),
    ("reproduce_cold", "controller.sessions", ">", 0),
    ("reproduce_cold", "training.train_s", ">", 0),
    ("reproduce_warm", "eventsim.lanes", "==", 0),
    ("reproduce_warm", "noise.lookups", "==", 0),
    ("reproduce_warm", "pipeline.nodes_served", "==", REPORT_COUNT),
    ("reproduce_warm", "pipeline.nodes_ran", "==", 0),
    ("reproduce_warm", "store.loads", ">", 0),
    ("montecarlo", "eventsim.lanes", "==", 0),
    ("montecarlo", "noise.lookups", ">", 0),
    ("montecarlo", "noise.derivations", ">", 0),
    ("montecarlo", "pipeline.nodes_ran", "==", 0),
    ("montecarlo", "montecarlo.rollouts", ">", 0),
    ("montecarlo", "controller.sessions", ">", 0),
    ("montecarlo", "sweepcache.lookups", ">", 0),
)


@dataclass
class Invocation:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes


def child_env(tmp: Path) -> Dict[str, str]:
    """The environment of every child: ``src`` on the path, no ``REPRO_*``
    knob (an inherited cache dir could turn a cold run warm)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def invoke(argv: List[str], env: Dict[str, str], tmp: Path) -> Invocation:
    """Run ``argv`` to completion; time it from spawn to exit."""
    stdout_path = tmp / "stdout"
    with open(stdout_path, "wb") as stdout:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=stdout_path.read_bytes(),
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cells(row: str) -> List[str]:
    return re.split(r"\s{2,}", row.strip())


def fig10_harmonia_geomean(text: str) -> float:
    """Harmonia's ``geomean 1`` ED2 gain (percent) from the fig10 report."""
    lines = text.splitlines()
    header = next(line for line in lines if line.split()[:1] == ["application"])
    column = _cells(header).index("harmonia")
    row = next(line for line in lines if line.strip().startswith("geomean 1"))
    return float(_cells(row)[column].rstrip("%"))


def montecarlo_geomean(text: str) -> float:
    """The mean geomean ED2 gain (percent) from ``montecarlo`` stdout."""
    row = next(line for line in text.splitlines()
               if line.strip().startswith("geomean"))
    return float(_cells(row)[1].split()[0].rstrip("%"))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    """One run of one workload: set-up, timed invocations and checks."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = child_env(tmp)
        self.digests = json.loads((BENCH_DIR / "digests.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.ed2: Optional[float] = None
        self.mc_digest: Optional[str] = (
            self.digests["montecarlo_seed0_stdout"] if seed == 0 else None)
        self.refs: List[float] = []
        #: recorded times by metric name, as measured and as scaled
        self.raw: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        self._pending: List[Tuple[str, float]] = []
        self._dirs = 0

    # --- commands -----------------------------------------------------------

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"d{self._dirs}"
        path.mkdir()
        return path

    def command(self, store: Path, out: Path, trace_out: Optional[Path] = None,
                workload: Optional[str] = None) -> List[str]:
        workload = workload or self.workload
        if workload == "montecarlo":
            args = ["montecarlo", "--seeds", str(MC_TRIALS)]
        else:
            args = ["reproduce", "--output", str(out)]
        args += ["--jobs", "1", "--cache-dir", str(store)]
        if trace_out is None and workload != "montecarlo":
            return [sys.executable, "-m", "repro", *args]
        launcher = [sys.executable, str(BENCH_DIR / "layers.py"),
                    "--first-seed", str(self.seed)]
        if trace_out is not None:
            launcher += ["--trace-out", str(trace_out)]
        return [*launcher, "--", *args]

    # --- checks -------------------------------------------------------------

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"error: {self.workload}: {message}", file=sys.stderr)

    def check(self, inv: Invocation, out: Path, workload: str) -> bool:
        """Count one invocation; False (and counted failed) on any mismatch."""
        self.attempted += 1
        problems = []
        if inv.code != 0:
            problems.append(f"exit code {inv.code}")
        elif workload == "montecarlo":
            digest = sha256(inv.stdout)
            if self.mc_digest is None:
                self.mc_digest = digest
            elif digest != self.mc_digest:
                problems.append(f"montecarlo stdout sha256 {digest} != "
                                f"{self.mc_digest}")
            problems += self._check_ed2(
                montecarlo_geomean(inv.stdout.decode()))
        else:
            expected = self.digests["reproduce"]
            found = {path.name: sha256(path.read_bytes())
                     for path in out.iterdir()}
            wrong = sorted(name for name in expected.keys() | found.keys()
                           if expected.get(name) != found.get(name))
            if wrong:
                problems.append(f"report digests differ: {', '.join(wrong)}")
            served = inv.stdout.decode().count("(manifest)")
            want = REPORT_COUNT if workload == "reproduce_warm" else 0
            if served != want:
                problems.append(f"{served} reports served from the "
                                f"manifest, expected {want}")
            fig10 = out / "fig10_ed2.txt"
            if fig10.exists():
                problems += self._check_ed2(
                    fig10_harmonia_geomean(fig10.read_text()))
        for problem in problems:
            self.fail(problem)
        if problems:
            self.failed += 1
        return not problems

    def _check_ed2(self, value: float) -> List[str]:
        if self.ed2 is None:
            self.ed2 = value
        if value != self.ed2:
            return [f"ED2 geomean {value} != {self.ed2} earlier in the run"]
        return []

    def run_checked(self, store: Path, out: Path,
                    trace_out: Optional[Path] = None,
                    workload: Optional[str] = None) -> Invocation:
        workload = workload or self.workload
        inv = invoke(self.command(store, out, trace_out, workload),
                     self.env, self.tmp)
        self.check(inv, out, workload)
        return inv

    # --- set-up -------------------------------------------------------------

    def _fill_workload(self) -> str:
        return ("montecarlo" if self.workload == "montecarlo"
                else "reproduce_cold")

    def fill(self) -> Path:
        """A fresh store after one cold invocation of the workload's kind."""
        store, out = self.fresh_dir(), self.fresh_dir()
        self.run_checked(store, out, workload=self._fill_workload())
        shutil.rmtree(out)
        return store

    def warm_up(self) -> None:
        """One untimed invocation; the first one compiles bytecode."""
        shutil.rmtree(self.fill())

    def reference(self) -> None:
        """Time the calibration process (see ``reference.py``).

        Every time recorded since the previous reference run is scaled by
        ``REFERENCE_S`` over the mean of the two reference times around it.
        """
        inv = invoke([sys.executable, str(BENCH_DIR / "reference.py")],
                     self.env, self.tmp)
        if inv.code != 0:
            self.fail(f"reference process exit code {inv.code}")
        if self._pending:
            scale = REFERENCE_S / ((self.refs[-1] + inv.wall_s) / 2)
            for name, value in self._pending:
                self.scaled.setdefault(name, []).append(value * scale)
            self._pending = []
        self.refs.append(inv.wall_s)

    def record(self, name: str, value: float) -> None:
        """Note one time; the next reference run scales it."""
        self.raw.setdefault(name, []).append(value)
        self._pending.append((name, value))

    def fill_store(self) -> Optional[Path]:
        """The store the timed invocations share (None: fresh per call).

        Filling is set-up: it is timed into ``setup_s``, several times, and
        the last filled store is kept.
        """
        if self.workload == "reproduce_cold":
            return None
        store = None
        for _ in range(SETUP_REPEATS):
            if store is not None:
                shutil.rmtree(store)
            self.reference()
            started = time.perf_counter()
            store = self.fill()
            self.record("setup_s", time.perf_counter() - started)
        return store

    def prepare(self, shared: Optional[Path],
                previous: Optional[Tuple[Path, Path]]) -> Tuple[Path, Path]:
        """Store and output dir of the next invocation, outside the timed
        region. A cold run clears the previous store and starts from an
        empty one, timed into ``setup_s``."""
        if shared is not None:
            if previous is not None:
                shutil.rmtree(previous[1])
            return shared, self.fresh_dir()
        started = time.perf_counter()
        if previous is not None:
            for path in previous:
                shutil.rmtree(path)
        pair = self.fresh_dir(), self.fresh_dir()
        self.record("setup_s", time.perf_counter() - started)
        return pair

    # --- measurement --------------------------------------------------------

    def timed_loop(self, seconds: float, traced: bool
                   ) -> Tuple[List[Invocation], List[Invocation], List[dict]]:
        """Invoke until ``seconds`` have passed: untraced invocations, and
        with ``traced`` as many traced ones in alternation."""
        shared = self.fill_store()
        plain: List[Invocation] = []
        traced_runs: List[Invocation] = []
        layers: List[dict] = []
        kinds = (False, True) if traced else (False,)
        previous = None
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_SAMPLES or time.perf_counter() < deadline:
            for with_trace in kinds:
                if not with_trace:
                    self.reference()
                store, out = self.prepare(shared, previous)
                previous = (store, out)
                trace_out = self.tmp / "trace.json" if with_trace else None
                inv = self.run_checked(store, out, trace_out)
                if not with_trace:
                    plain.append(inv)
                    if inv.code == 0:
                        self.record("wall_s", inv.wall_s)
                        self.record("cpu_s", inv.cpu_s)
                    continue
                traced_runs.append(inv)
                if inv.code == 0:
                    layers.append(json.loads(trace_out.read_text()))
        self.reference()
        return plain, traced_runs, layers

    def end_to_end(self, plain: List[Invocation]) -> Dict[str, float]:
        """Medians of the scaled times (seconds at the reference host
        speed), of peak RSS, and the simulated ED2 gain."""
        times = ("wall_s", "cpu_s", "setup_s")
        print("as measured, medians: " + ", ".join(
            f"{name} {median(self.raw.get(name, [])):.4f} s over "
            f"{len(self.raw.get(name, []))}" for name in times)
            + f"; reference process {median(self.refs):.4f} s over "
              f"{len(self.refs)}")
        return {
            **{name: median(self.scaled.get(name, [])) for name in times},
            "peak_rss_mb": median([inv.rss_mb for inv in plain
                                   if inv.code == 0]),
            "sim_ed2_gain_pct": self.ed2 if self.ed2 is not None else 0.0,
        }

    def import_times(self) -> Dict[str, float]:
        """``-X importtime`` of ``import repro.cli``, median of repeats."""
        samples: Dict[str, List[float]] = {
            "imports.repro_cli_s": [], "imports.numpy_s": [],
            "imports.repro_modules": []}
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=INVOCATION_TIMEOUT_S)
            cumulative = {}
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    cumulative[fields[2].strip()] = int(fields[1]) / 1e6
            if proc.returncode != 0 or "repro.cli" not in cumulative:
                self.fail("python -X importtime -c 'import repro.cli' failed")
                return {name: 0.0 for name in samples}
            samples["imports.repro_cli_s"].append(cumulative["repro.cli"])
            samples["imports.numpy_s"].append(cumulative.get("numpy", 0.0))
            samples["imports.repro_modules"].append(sum(
                1 for name in cumulative
                if name == "repro" or name.startswith("repro.")))
        return {name: median(values) for name, values in samples.items()}

    def per_layer(self, plain: List[Invocation], traced: List[Invocation],
                  traces: List[dict]) -> Dict[str, float]:
        if not traces:
            self.fail("no traced invocation succeeded")
            return {name: 0.0 for name, _ in PER_LAYER}
        print(f"{'layer (first traced run)':34s} {'calls':>8s} "
              f"{'total_s':>10s} {'self_s':>10s}")
        for layer, (calls, total, own) in sorted(traces[0]["spans"].items()):
            print(f"{layer:34s} {calls:8d} {total:10.4f} {own:10.4f}")
        layers = [trace["metrics"] for trace in traces]
        units = dict(PER_LAYER)
        counts = {name: value for name, value in layers[0].items()
                  if units.get(name) != "s"}
        for other in layers[1:]:
            moved = sorted(name for name in counts
                           if other.get(name) != counts[name])
            if moved:
                self.fail(f"layer counts differ between traced runs: "
                          f"{', '.join(moved)}")
        metrics = dict(counts)
        for name in layers[0]:
            if units.get(name) == "s":
                metrics[name] = median([run[name] for run in layers])
        metrics.update(self.import_times())
        metrics["trace.overhead_s"] = (
            median([inv.wall_s for inv in traced if inv.code == 0])
            - median([inv.wall_s for inv in plain if inv.code == 0]))
        missing = sorted(set(units) - set(metrics))
        if missing:
            self.fail(f"layer metrics not measured: {', '.join(missing)}")
        self.check_counts(metrics)
        return metrics

    def check_counts(self, metrics: Dict[str, float]) -> None:
        """Apply :data:`COUNT_RULES` to this workload's layer counts."""
        for workload, name, relation, value in COUNT_RULES:
            got = metrics[name]
            if workload == self.workload and not (
                    got == value if relation == "==" else got > value):
                self.fail(f"layer count {name} = {got}, expected "
                          f"{relation} {value}")


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def host_facts() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "code.src_lines": src_lines(),
        "parallel_leg": "not measured: every invocation runs --jobs 1",
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    facts = host_facts()
    # Every child inherits one CPU: the last, away from the CPU that takes
    # interrupts, and shared by each invocation and its reference runs so
    # that both see the same host contention.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        bench.warm_up()
        plain, traced, layers = bench.timed_loop(args.seconds,
                                                 bool(args.trace))
        if args.trace:
            values = bench.per_layer(plain, traced, layers)
            table = PER_LAYER
        else:
            values = bench.end_to_end(plain)
            table = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}
    for name, unit in table:
        print(f"{name:34s} {values[name]:>14.6g} {unit}")
    print(f"{'error_rate':34s} {bench.failed / bench.attempted:>14.6g} "
          f"({bench.failed} of {bench.attempted} invocations)")
    if args.workload == "montecarlo":
        print(f"montecarlo stdout sha256 (trial seeds {args.seed}.."
              f"{args.seed + MC_TRIALS - 1}): {bench.mc_digest}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **facts}))
    correct = not bench.errors
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
