"""Tests for the command-line interface."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import reproduce_specs

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.test_records import STORE_KEY_TYPES  # noqa: E402
from tools.regen_goldens import (  # noqa: E402
    ABLATION_GOLDEN_DIR, BENCH_REPORT_DIR, GOLDEN_DIR, MONTECARLO_ARGS,
    MONTECARLO_GOLDEN, RUN_APPS, RUN_POLICIES, TRACE_GOLDEN_DIR,
    TRACE_GOLDENS, ablation_reproduce, child_env, command_goldens,
    command_stdout, diff_text, signature_text, traced_outputs)

#: (name, node): every core report node under its node name and under
#: each of its aliases, as ``figure`` accepts them.
REPORT_NAMES = [(name, spec.name) for spec in reproduce_specs()
                if spec.is_report for name in (spec.name,) + spec.aliases]


def _golden(node: str) -> str:
    """The committed golden report of one node, as ``figure`` prints it."""
    return (GOLDEN_DIR / f"{node}.txt").read_text(encoding="utf-8")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_to_harmonia(self):
        args = build_parser().parse_args(["run", "CoMD"])
        assert args.policy == "harmonia"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "CoMD", "--policy", "magic"])

    def test_jobs_is_gone_from_evaluate_and_sweep(self, capsys):
        for argv in (["evaluate", "--jobs", "2"],
                     ["sweep", "SRAD.Prepare", "--jobs", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_still_parses_where_existing_commands_pass_it(self):
        """``reproduce`` and ``montecarlo`` accept and ignore ``--jobs``."""
        parser = build_parser()
        assert parser.parse_args(["reproduce", "--jobs", "1"]).jobs == 1
        assert parser.parse_args(["reproduce", "--jobs", "0"]).jobs == 0
        assert parser.parse_args(
            ["montecarlo", "--seeds", "32", "--jobs", "1"]).jobs == 1


    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--seeds", "0"],
        ["montecarlo", "--seeds", "-3"],
        ["montecarlo", "--noise", "0"],
        ["montecarlo", "--noise", "-0.1"],
        ["evaluate", "--seeds", "-1"],
        ["evaluate", "--noise", "0"],
    ], ids=["mc-seeds-0", "mc-seeds-neg", "mc-noise-0", "mc-noise-neg",
            "eval-seeds-neg", "eval-noise-0"])
    def test_bad_monte_carlo_arguments_are_usage_errors(self, argv, capsys):
        """Rejected at parse time: exit 2 with argparse's usage message,
        not an ``AnalysisError`` traceback from the engine."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]}")
        assert f"error: argument {argv[1]}: " in err.splitlines()[-1]

    @pytest.mark.parametrize("command,flag", [
        ("run", "--trace"), ("run", "--metrics-out"),
        ("reproduce", "--trace"), ("reproduce", "--metrics-out"),
        ("reproduce", "--profile-json"),
        ("montecarlo", "--trace"), ("montecarlo", "--metrics-out"),
    ])
    def test_output_path_in_a_missing_directory_is_a_usage_error(
            self, command, flag, tmp_path, capsys):
        """Rejected at parse time, before any work: exit 2 with
        argparse's usage message, and no report or store record lands."""
        store, reports = tmp_path / "store", tmp_path / "reports"
        argv = [command, *(["Graph500"] if command == "run" else []),
                "--cache-dir", str(store),
                flag, str(tmp_path / "missing" / "out.json")]
        if command == "reproduce":
            argv += ["--output", str(reports)]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {command}")
        assert f"error: argument {flag}: directory " in err
        assert not store.exists() and not reports.exists()

    @pytest.mark.parametrize("inside", [False, True],
                             ids=["file", "under-a-file"])
    def test_reproduce_output_on_a_file_is_a_usage_error(
            self, inside, tmp_path, capsys):
        """``reproduce --output`` naming an existing file, or a path
        under one, exits 2 with the usage message before any work, not
        with a ``FileExistsError`` traceback."""
        taken = tmp_path / "taken.txt"
        taken.write_text("not a directory\n")
        store = tmp_path / "store"
        output = taken / "reports" if inside else taken
        with pytest.raises(SystemExit) as exited:
            main(["reproduce", "--cache-dir", str(store),
                  "--output", str(output)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro reproduce")
        assert (f"error: argument --output: {taken} is not a directory"
                in err)
        assert not store.exists()
        assert taken.read_text() == "not a directory\n"

    def test_reproduce_output_may_name_a_missing_directory(self, tmp_path):
        """``reproduce`` makes its output directory, parents included."""
        output = tmp_path / "new" / "reports"
        args = build_parser().parse_args(["reproduce", "--output",
                                          str(output)])
        assert args.output == str(output)

    def test_output_path_that_is_a_directory_is_a_usage_error(
            self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["montecarlo", "--trace", str(tmp_path)])
        assert exited.value.code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_smallest_monte_carlo_arguments_parse(self):
        """One trial is a valid ``montecarlo``; ``evaluate --seeds 0``
        still means no confidence-band tables."""
        parser = build_parser()
        assert parser.parse_args(["montecarlo", "--seeds", "1"]).seeds == 1
        args = parser.parse_args(["evaluate", "--seeds", "0",
                                  "--noise", "1e-6"])
        assert (args.seeds, args.noise) == (0, 1e-6)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "14 applications" in out
        assert "Graph500" in out

    def test_run(self, capsys):
        assert main(["run", "XSBench", "--policy", "cg-only"]) == 0
        out = capsys.readouterr().out
        assert "XSBench" in out
        assert "ED2" in out
        assert "residency" in out

    def test_run_unknown_app(self, capsys):
        assert main(["run", "NoSuchApp"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "SRAD.Prepare"]) == 0
        out = capsys.readouterr().out
        assert "min ED2" in out

    def test_sweep_unknown_kernel(self, capsys):
        assert main(["sweep", "No.Such"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert capsys.readouterr().out == _golden("table1_dvfs")

    def test_figure_fig07(self, capsys):
        assert main(["figure", "fig07"]) == 0
        assert capsys.readouterr().out == _golden("fig07_occupancy")

    def test_figure_fig05(self, capsys):
        assert main(["figure", "fig05"]) == 0
        assert capsys.readouterr().out == _golden("fig05_memory_power")

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestReproduce:
    def test_reproduce_writes_reports(self, tmp_path, capsys):
        from repro.runtime.pipeline import topological_order

        # Its own store: a report another command stored in the shared
        # one would be served, and print first.
        assert main(["reproduce", "--output", str(tmp_path),
                     "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "reports written" in out
        assert "sweep cache:" in out  # the cache-effectiveness summary
        written = list(tmp_path.glob("*.txt"))
        assert len(written) >= 20
        # One line per report, in topological order, run after run.
        specs = {spec.name: spec for spec in reproduce_specs()}
        printed = [line.split("]", 1)[1].split()[0]
                   for line in out.splitlines() if line.startswith("[")]
        assert printed == [name for name in topological_order(specs.values())
                           if specs[name].is_report]
        # The headline figure must be among them, with its geomeans.
        fig10 = (tmp_path / "fig10_ed2.txt").read_text()
        assert "geomean" in fig10


#: Runs ``repro.cli.main`` on its arguments, then prints the dataclasses
#: it created and the loaded module names as the last two lines of
#: stdout. Only a first argument ``--record-dataclasses`` wraps
#: ``dataclasses._process_class``, which every class creation calls, and
#: so loads ``dataclasses``.
_MODULES_CHILD = """
import json, sys
created = []
if sys.argv[1:2] == ["--record-dataclasses"]:
    del sys.argv[1]
    import dataclasses
    process_class = dataclasses._process_class
    def record(cls, *args):
        created.append(cls.__module__ + "." + cls.__qualname__)
        return process_class(cls, *args)
    dataclasses._process_class = record
from repro.cli import main
code = main(sys.argv[1:])
print(json.dumps(created))
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _run_child(*argv: str, record_dataclasses: bool = False):
    """``repro.cli.main(argv)`` in a fresh interpreter: (its stdout,
    the modules it loaded, the dataclasses it created when
    ``record_dataclasses``)."""
    flag = ["--record-dataclasses"] if record_dataclasses else []
    child = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *flag, *argv],
        env=child_env(), check=True, stdout=subprocess.PIPE, text=True)
    *out, created, modules = child.stdout.splitlines(keepends=True)
    return "".join(out), json.loads(modules), json.loads(created)


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """One cold, untraced ``reproduce`` in a fresh interpreter, with the
    arguments ``tools/regen_goldens.py`` gives it: (store, reports,
    modules, the dataclasses it created)."""
    root = tmp_path_factory.mktemp("reproduce-cold")
    store, reports = root / "store", root / "reports"
    _, modules, created = _run_child(
        "reproduce", "--cache-dir", str(store), "--output", str(reports),
        record_dataclasses=True)
    return store, reports, modules, created


@pytest.fixture(scope="module")
def ablation_reports(filled_store, tmp_path_factory):
    """The ablation goldens' run against the filled store, made the way
    ``tools/regen_goldens.py`` makes it: the reports directory."""
    store, *_ = filled_store
    out = tmp_path_factory.mktemp("reproduce-ablations") / "reports"
    return ablation_reproduce(store, out)


@pytest.fixture(scope="module")
def warm_run(filled_store, tmp_path_factory):
    """A plain ``reproduce`` against the filled store, in a child that
    reports its loaded modules: (reports, profile, modules)."""
    store, *_ = filled_store
    root = tmp_path_factory.mktemp("reproduce-warm")
    reports, profile = root / "reports", root / "profile.json"
    _, modules, _ = _run_child(
        "reproduce", "--jobs", "1", "--cache-dir", str(store),
        "--output", str(reports), "--profile-json", str(profile))
    return reports, json.loads(profile.read_text()), modules


def _forbidden_on_warm_path(name: str) -> bool:
    """Whether a manifest-served run must not have loaded ``name``.

    ``dataclasses`` (and the ``inspect`` it imports) is on the list
    because the start-up records are named tuples: a frozen dataclass
    compiles its generated methods when its class is created."""
    if name in ("repro.units", "repro.platform.calibration",
                "repro.platform.hd7970", "repro.analysis.evaluation",
                "repro.runtime.session", "repro.runtime.simulator",
                "repro.runtime.montecarlo", "repro.runtime.parallel",
                "repro.commands", "repro.telemetry.report",
                "repro.telemetry.spantrace", "dataclasses", "inspect"):
        return True
    if name.startswith("repro.experiments."):
        return name not in ("repro.experiments.context",
                            "repro.experiments.registry")
    return any(name == package or name.startswith(package + ".")
               for package in ("numpy", "repro.core", "repro.sensitivity",
                               "repro.workloads", "repro.gpu", "repro.perf",
                               "repro.memory", "concurrent.futures"))


class TestWarmReproduceImports:
    """A run whose reports all come from the result manifest loads only
    the CLI, the registry, the store and the pipeline: no numpy, no
    workload, machine, calibration or model description, no policy or
    experiment code, and neither the other commands nor the trace
    reports."""

    def test_every_report_is_served_and_nothing_runs(self, warm_run):
        _, profile, _ = warm_run
        status = {node["node"]: node["status"] for node in profile["nodes"]}
        served = sorted(name for name, s in status.items() if s == "manifest")
        assert served == sorted(path.stem for path in GOLDEN_DIR.glob("*.txt"))
        assert sorted(set(status.values())) == ["manifest", "pruned"]

    def test_loads_no_numpy_and_no_model_stack(self, warm_run):
        _, _, modules = warm_run
        loaded = [name for name in modules if _forbidden_on_warm_path(name)]
        assert loaded == []
        assert "repro.experiments.registry" in modules  # the guard ran

    def test_importing_the_cli_loads_no_numpy(self):
        script = ("import json, sys, repro.cli; "
                  "print(json.dumps(sorted(sys.modules)))")
        child = subprocess.run([sys.executable, "-c", script],
                               env=child_env(), check=True,
                               stdout=subprocess.PIPE, text=True)
        modules = json.loads(child.stdout)
        assert "repro.cli" in modules
        assert [name for name in modules
                if name == "numpy" or name.startswith("numpy.")] == []


class TestFigureAndEvaluate:
    """``figure`` and ``evaluate`` run the ``reproduce`` pipeline, so a
    store that ``reproduce`` filled serves their reports."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.sweepcache import shared_cache
        yield
        shared_cache().detach_store()

    @pytest.mark.parametrize("name, node", REPORT_NAMES,
                             ids=[name for name, _ in REPORT_NAMES])
    def test_figure_prints_the_golden(self, filled_store, capsys, name,
                                      node):
        store, *_ = filled_store
        assert main(["figure", name, "--cache-dir", str(store)]) == 0
        assert capsys.readouterr().out == _golden(node)

    @pytest.mark.parametrize("argv, nodes", [
        (("figure", "fig14"), ("fig14_16_graph500",)),
        (("evaluate",), ("fig10_ed2", "fig11_energy", "fig12_power",
                         "fig13_performance")),
    ], ids=["figure", "evaluate"])
    def test_warm_run_loads_no_model_stack(self, filled_store, argv, nodes):
        """Against a store that ``reproduce`` filled, the reports come
        from the manifest: no node runs, so no numpy and no model code
        loads. ``evaluate`` prints its reports one blank line apart."""
        store, *_ = filled_store
        out, modules, _ = _run_child(*argv, "--cache-dir", str(store))
        assert out == "\n".join(_golden(node) for node in nodes)
        assert [name for name in modules
                if _forbidden_on_warm_path(name)] == []
        assert "repro.experiments.registry" in modules  # the guard ran


def _golden_mismatches(reports: Path, label: str,
                       ablations: bool = False) -> str:
    """Unified diffs of every report in ``reports`` that differs from its
    golden, plus missing/extra file names; empty when all match. The
    expected set is the core reports, and the ablation reports too with
    ``ablations``."""
    directories = ((GOLDEN_DIR, ABLATION_GOLDEN_DIR) if ablations
                   else (GOLDEN_DIR,))
    golden = {path.name: path.read_bytes() for directory in directories
              for path in sorted(directory.glob("*.txt"))}
    produced = {path.name: path.read_bytes()
                for path in sorted(reports.glob("*.txt"))}
    problems = []
    if sorted(produced) != sorted(golden):
        problems.append(
            f"{label} report set differs: missing "
            f"{sorted(set(golden) - set(produced))}, extra "
            f"{sorted(set(produced) - set(golden))}\n")
    for name in sorted(set(golden) & set(produced)):
        problems.append(diff_text(golden[name], produced[name],
                                  f"golden/{name}", f"{label}/{name}"))
    return "".join(problems)


class TestGoldenReports:
    """``reproduce`` output equals ``tests/golden/reproduce`` (and, with
    ``--ablations``, ``tests/golden/ablations``) byte for byte
    (regenerate with ``python tools/regen_goldens.py``)."""

    def test_cold_reports_match_goldens(self, filled_store):
        _, reports, *_ = filled_store
        mismatches = _golden_mismatches(reports, "cold")
        if mismatches:
            pytest.fail("cold reproduce differs from the goldens:\n"
                        + mismatches, pytrace=False)

    def test_ablation_reports_match_goldens(self, ablation_reports):
        """``reproduce --ablations`` serves the 26 core reports and
        computes the six ablation reports."""
        mismatches = _golden_mismatches(ablation_reports, "ablations",
                                        ablations=True)
        if mismatches:
            pytest.fail("reproduce --ablations differs from the goldens:\n"
                        + mismatches, pytrace=False)

    def test_manifest_served_reports_match_goldens(self, warm_run):
        reports, _, _ = warm_run
        mismatches = _golden_mismatches(reports, "warm")
        if mismatches:
            pytest.fail("manifest-served reproduce differs from the "
                        "goldens:\n" + mismatches, pytrace=False)

    def test_benchmark_report_copies_match_goldens(self):
        """``benchmarks/reports`` holds a second copy of most reports;
        each one with a golden twin must equal it."""
        twins = {}
        for directory in (GOLDEN_DIR, ABLATION_GOLDEN_DIR):
            twins.update((path.name, path)
                         for path in directory.glob("*.txt")
                         if (BENCH_REPORT_DIR / path.name).exists())
        assert len(twins) == 32
        stale = sorted(name for name, golden in twins.items()
                       if (BENCH_REPORT_DIR / name).read_bytes()
                       != golden.read_bytes())
        assert stale == [], (
            f"benchmarks/reports differs from tests/golden on {stale}; "
            f"rerun python tools/regen_goldens.py")

    def test_goldens_match_the_benchmark_digests(self):
        digests = json.loads(
            (REPO_ROOT / "perfbench" / "digests.json").read_text())
        golden = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(GOLDEN_DIR.glob("*.txt"))}
        assert len(golden) == 26
        expected = digests["reproduce"]
        stale = sorted(name for name in set(golden) | set(expected)
                       if golden.get(name) != expected.get(name))
        assert stale == [], (
            f"tests/golden/reproduce and perfbench/digests.json disagree "
            f"on {stale}")


class TestMontecarloGolden:
    """``montecarlo --seeds 32 --jobs 1`` (perfbench's seed-0 command)
    prints ``tests/golden/montecarlo/harmonia_seeds32.txt`` byte for
    byte (regenerate with ``python tools/regen_goldens.py``)."""

    def test_stdout_matches_golden(self, filled_store):
        store, *_ = filled_store
        stdout = subprocess.run(
            [sys.executable, "-m", "repro", *MONTECARLO_ARGS, "--jobs", "1",
             "--cache-dir", str(store)],
            env=child_env(), check=True, stdout=subprocess.PIPE).stdout
        diff = diff_text(MONTECARLO_GOLDEN.read_bytes(), stdout,
                         "golden", "montecarlo")
        if diff:
            pytest.fail("montecarlo stdout differs from the golden:\n"
                        + diff, pytrace=False)

    def test_golden_matches_the_benchmark_digest(self):
        digests = json.loads(
            (REPO_ROOT / "perfbench" / "digests.json").read_text())
        digest = hashlib.sha256(MONTECARLO_GOLDEN.read_bytes()).hexdigest()
        assert digest == digests["montecarlo_seed0_stdout"]


#: (golden, argv) of ``evaluate --seeds 4``, ``sweep`` and every ``run``
#: golden; montecarlo's has its own test above (perfbench's argv, with
#: ``--jobs 1``).
COMMAND_GOLDENS = [(path, argv) for path, argv in command_goldens()
                   if path != MONTECARLO_GOLDEN]


class TestCommandGoldens:
    """``evaluate --seeds 4``, ``sweep`` over all 25 kernels and ``run
    <app> --policy P`` print their goldens in ``tests/golden/evaluate``,
    ``tests/golden/sweep`` and ``tests/golden/run`` byte for byte
    (regenerate with ``python tools/regen_goldens.py``)."""

    def test_every_policy_on_both_apps(self):
        runs = [argv for _, argv in COMMAND_GOLDENS if argv[0] == "run"]
        assert sorted((argv[1], argv[3]) for argv in runs) == sorted(
            (app, policy) for app in RUN_APPS for policy in RUN_POLICIES)
        assert len(RUN_POLICIES) == 5 and len(RUN_APPS) == 2

    @pytest.mark.parametrize("golden,argv", COMMAND_GOLDENS,
                             ids=[path.stem for path, _ in COMMAND_GOLDENS])
    def test_stdout_matches_golden(self, filled_store, golden, argv):
        store, *_ = filled_store
        diff = diff_text(golden.read_bytes(), command_stdout(store, argv),
                         "golden", " ".join(argv[:4]))
        if diff:
            pytest.fail(f"{' '.join(argv[:4])} differs from its golden:\n"
                        + diff, pytrace=False)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """The trace goldens' runs, made the way ``tools/regen_goldens.py``
    makes them: golden file name -> bytes."""
    return traced_outputs(tmp_path_factory.mktemp("traced"))


class TestTraceGoldens:
    """A traced cold ``reproduce``, then a traced ``montecarlo --seeds
    2`` and ``run Graph500 --trace`` over the store it filled, record the
    span trees, metrics exports and event trace in
    ``tests/golden/trace`` (regenerate with
    ``python tools/regen_goldens.py``)."""

    def test_the_directory_holds_every_golden(self):
        assert sorted(path.name for path in TRACE_GOLDEN_DIR.iterdir()) \
            == sorted(TRACE_GOLDENS)

    @pytest.mark.parametrize("name", TRACE_GOLDENS)
    def test_output_matches_golden(self, traced_runs, name):
        diff = diff_text((TRACE_GOLDEN_DIR / name).read_bytes(),
                         traced_runs[name], "golden", name)
        if diff:
            pytest.fail(f"traced {name} differs from its golden:\n" + diff,
                        pytrace=False)

    def test_signature_text_folds_identical_siblings(self):
        leaf = ("sweep_store.load", (("kind", "grid"),), ())
        fill = ("sweep_cache.fill", (), (leaf,))
        signature = (("run", (), (fill, fill, leaf)),)
        assert signature_text(signature) == (
            "run\n"
            "  sweep_cache.fill x2\n"
            "    sweep_store.load [kind=grid]\n"
            "  sweep_store.load [kind=grid]\n")


#: Telemetry code that only a traced run, or a report of one, needs.
_TRACE_ONLY = ("repro.telemetry.events", "repro.telemetry.export",
               "repro.telemetry.metrics", "repro.telemetry.report",
               "repro.telemetry.spantrace")


class TestUntracedRunsLoadNoTraceCode:
    """Without ``--trace`` or ``--metrics-out`` a run holds the null
    handle, and the runtime builds events only under an enabled one: no
    event, export, metrics, trace-report or span-trace code loads. A
    cold ``reproduce`` rolls out no Monte Carlo trial and builds no noisy
    platform, so it loads neither of their modules either. Neither run
    creates a dataclass, whose generated methods compile each time its
    class is created, other than the store-key types."""

    def test_cold_reproduce(self, filled_store):
        _, _, modules, created = filled_store
        assert "repro.runtime.session" in modules  # controllers ran
        assert "repro.core.harmonia" in modules
        assert "repro.analysis.evaluation" in modules
        assert [name for name in _TRACE_ONLY if name in modules] == []
        assert [name for name in ("repro.runtime.montecarlo",
                                  "repro.platform.noise")
                if name in modules] == []
        assert created and set(created) <= STORE_KEY_TYPES

    def test_montecarlo(self, filled_store):
        store, *_ = filled_store
        _, modules, created = _run_child(
            "montecarlo", "--seeds", "2", "--cache-dir", str(store),
            record_dataclasses=True)
        assert "repro.runtime.montecarlo" in modules
        assert [name for name in _TRACE_ONLY if name in modules] == []
        assert created and set(created) <= STORE_KEY_TYPES


class TestMontecarloTrace:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        from repro.telemetry.spantrace import load_chrome_trace

        command = ["montecarlo", "MaxFlops", "--seeds", "2"]
        assert main(command) == 0
        untraced = capsys.readouterr().out
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        assert main([*command, "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        traced = capsys.readouterr().out
        assert "Monte Carlo trials" in untraced
        assert traced.startswith(untraced)

        records = load_chrome_trace(trace)
        assert [r.name for r in records if r.parent_id is None] == [
            "montecarlo"]
        # One rollout per application, over the baseline and the
        # candidate together: their lockstep reference session, then
        # one noise span.
        (rollout,) = [r for r in records if r.name == "montecarlo.rollout"]
        assert dict(rollout.labels) == {"application": "MaxFlops",
                                        "policies": "baseline,harmonia"}
        children = [r.name for r in records
                    if r.parent_id == rollout.span_id]
        assert children == ["controller.session", "montecarlo.noise"]
        assert "sweep_cache_hits_total" in json.loads(metrics.read_text())

    def test_repeated_application_counts_once(self, capsys):
        """An application named twice is rolled out, printed and
        weighted in the geomean once."""
        assert main(["montecarlo", "--seeds", "2",
                     "Sort", "Sort", "CoMD"]) == 0
        repeated = capsys.readouterr().out
        assert main(["montecarlo", "--seeds", "2", "Sort", "CoMD"]) == 0
        assert repeated == capsys.readouterr().out
        assert repeated.count("Sort") == 1


class TestSweepStoreFlags:
    """--cache-dir / --no-cache and the telemetry-report --metrics line."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.sweepcache import shared_cache
        yield
        shared_cache().detach_store()

    def test_cache_dir_persists_grid_records(self, tmp_path, capsys):
        from repro.platform.sweepcache import shared_cache
        shared_cache().clear()  # cold memory tier, like a fresh process
        store_dir = tmp_path / "store"
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        records = list(store_dir.glob("grid-*.npz"))
        assert len(records) == 1

    def test_no_cache_disables_the_store(self, tmp_path, capsys):
        from repro.platform.sweepcache import shared_cache
        assert main(["sweep", "SRAD.Prepare", "--no-cache"]) == 0
        assert shared_cache().store is None

    def test_unusable_cache_dir_degrades_with_warning(self, tmp_path,
                                                      capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(blocker)]) == 0
        captured = capsys.readouterr()
        assert "sweep store disabled" in captured.err
        assert "min ED2" in captured.out

    def test_second_invocation_warm_starts(self, tmp_path, capsys):
        from repro.platform.sweepcache import shared_cache
        store_dir = tmp_path / "store"
        shared_cache().clear()  # cold start: compute + write through
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        # Simulate a fresh process: empty the in-memory tier.
        shared_cache().clear()
        before = shared_cache().stats().store
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        after = shared_cache().stats().store
        assert after.hits == before.hits + 1

    def test_telemetry_report_metrics_line(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["run", "XSBench", "--policy", "cg-only",
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "sweep cache:" in out
        assert "served without recompute" in out

    def test_telemetry_report_metrics_unreadable(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "XSBench", "--policy", "cg-only",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(trace),
                     "--metrics", str(tmp_path / "absent.json")]) == 2
        assert "unreadable metrics file" in capsys.readouterr().err

    def test_run_profile_prints_the_span_table(self, capsys):
        assert main(["run", "XSBench", "--policy", "harmonia",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        profile = out[out.index("span profile of the run:"):]
        rows = [line.split()[0] for line in profile.splitlines()
                if line.endswith("%")]
        assert "controller.session" in rows
        assert "controller.step" in rows

    def test_run_trace_holds_one_launch_event_per_launch(self, tmp_path,
                                                         capsys):
        from repro.telemetry.export import load_events
        from repro.telemetry.events import KernelLaunch
        from repro.workloads.registry import get_application

        trace = tmp_path / "t.jsonl"
        assert main(["run", "XSBench", "--policy", "baseline",
                     "--trace", str(trace)]) == 0
        events = load_events(trace)
        assert all(isinstance(event, KernelLaunch) for event in events)
        assert len(events) == get_application("XSBench").total_launches()


class TestObservabilityCli:
    """Traced reproduce and the span/metrics reports."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.sweepcache import shared_cache
        yield
        shared_cache().detach_store()

    def test_traced_reproduce_nests_everything(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["reproduce", "--output", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "span trace:" in out and "metrics written to" in out

        from repro.telemetry.spantrace import load_chrome_trace, span_tree
        records = load_chrome_trace(trace)
        (root,) = span_tree(records)  # a single tree covers the whole run
        assert root.record.name == "reproduce"
        names = {r.name for r in records}
        assert any(name.startswith("pipeline.") for name in names)

        # Spans double as the span report.
        capsys.readouterr()
        assert main(["telemetry-report", "--spans", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "critical path" in report.lower()
        assert "reproduce" in report
        # The cold run simulated all 25 x 27 event-driven lanes.
        assert main(["telemetry-report", "--metrics", str(metrics)]) == 0
        assert ("eventsim: 675 lanes via the batched lockstep engine"
                in capsys.readouterr().out)

    def test_eventsim_line_needs_the_lane_series(self):
        from repro.telemetry.report import eventsim_engine_from_metrics
        assert eventsim_engine_from_metrics({}) is None
        lanes = {"eventsim_batch_lanes_total": {
            "samples": [{"labels": {}, "value": 27.0}]}}
        assert (eventsim_engine_from_metrics(lanes)
                == "eventsim: 27 lanes via the batched lockstep engine")

    @pytest.mark.parametrize("export", [
        {"sweep_cache_hits_total": 5},
        {"sweep_cache_hits_total": {"samples": 3}},
        [{"sweep_cache_hits_total": {"samples": []}}],
    ], ids=["number-instrument", "number-samples", "top-level-list"])
    def test_telemetry_report_rejects_malformed_metrics(self, tmp_path,
                                                        capsys, export):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(export))
        assert main(["telemetry-report", "--metrics", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert "unreadable metrics file" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--prometheus"],
                                       ["--metrics-out", "exposition.txt"]])
    def test_telemetry_report_has_no_exposition_flags(self, tmp_path,
                                                      capsys, flags):
        metrics = tmp_path / "metrics.json"
        metrics.write_text("{}")
        with pytest.raises(SystemExit) as stop:
            main(["telemetry-report", "--metrics", str(metrics), *flags])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_telemetry_report_spans_missing_file(self, tmp_path, capsys):
        assert main(["telemetry-report",
                     "--spans", str(tmp_path / "gone.json")]) == 2
        assert "no such span trace" in capsys.readouterr().err
