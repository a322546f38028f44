"""Append-only benchmark trend ledger with regression gates.

Every committed ``BENCH_*.json`` is a single snapshot that each bench
run overwrites — fine for "what is the speedup now", useless for "did
PR N make it worse". The ledger keeps the history: one JSONL line per
ingested bench run, carrying the benchmark name, an ISO-8601 timestamp,
an **environment fingerprint** (Python/numpy versions, platform, core
count — so a slowdown explained by a machine change is visible as such)
and every top-level numeric scalar of the bench JSON.

Gates turn the history into a CI signal: each benchmark has rules
(:data:`DEFAULT_GATES`) naming the metrics that must not regress —
warm-start and pipeline warm speedups, sweep throughput, telemetry
overhead ratios. The baseline is the **median of a trailing window** of
prior entries on the same ledger, so one lucky (or unlucky) run cannot
move the bar, and the very first entry simply seeds the history.

Consumers: ``python -m repro bench-report`` renders trends and gate
status; ``tools/bench_gate.py`` is the CI face (``ingest`` + ``check``,
exit 1 on regression).
"""

from __future__ import annotations

import json
import os
import platform as platform_module
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Version stamped into every ledger line.
LEDGER_SCHEMA_VERSION = 1

#: Gate outcome states.
STATUS_OK = "ok"
STATUS_SEEDED = "seeded"
STATUS_REGRESSION = "regression"
STATUS_MISSING = "missing"

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``BENCH_<name>.json`` → benchmark name.
_BENCH_FILE_RE = re.compile(r"^BENCH_(?P<name>[A-Za-z0-9_.-]+)\.json$")


def default_ledger_path() -> Path:
    """The ledger location used when no ``--ledger`` is given."""
    return _REPO_ROOT / "benchmarks" / "ledger.jsonl"


def env_fingerprint() -> Dict[str, Any]:
    """The environment facts recorded with every entry.

    Enough to tell "the code got slower" apart from "the machine
    changed": interpreter and numpy versions, OS/arch, core count.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        numpy_version = None
    return {
        "python": platform_module.python_version(),
        "platform": platform_module.platform(),
        "machine": platform_module.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
    }


def extract_metrics(data: Mapping[str, Any]) -> Dict[str, float]:
    """The top-level numeric scalars of one bench JSON payload.

    Nested tables (per-kernel rows, node breakdowns) are trend noise at
    ledger granularity; the headline scalars are what gates act on.
    """
    metrics: Dict[str, float] = {}
    for key, value in data.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            metrics[key] = float(value)
    return metrics


@dataclass(frozen=True)
class LedgerEntry:
    """One ingested benchmark run."""

    bench: str
    recorded_at: str
    metrics: Dict[str, float]
    env: Dict[str, Any] = field(default_factory=dict)
    source: str = ""
    schema: int = LEDGER_SCHEMA_VERSION

    def to_record(self) -> Dict[str, Any]:
        """The JSONL wire form."""
        return {
            "schema": self.schema,
            "bench": self.bench,
            "recorded_at": self.recorded_at,
            "metrics": self.metrics,
            "env": self.env,
            "source": self.source,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "LedgerEntry":
        """Rebuild an entry from its JSONL form."""
        return cls(
            bench=str(record["bench"]),
            recorded_at=str(record.get("recorded_at", "")),
            metrics={str(k): float(v)
                     for k, v in dict(record.get("metrics", {})).items()},
            env=dict(record.get("env", {})),
            source=str(record.get("source", "")),
            schema=int(record.get("schema", LEDGER_SCHEMA_VERSION)),
        )


def append_entry(path, entry: LedgerEntry) -> None:
    """Append one entry to the ledger, durably (flush + fsync)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry.to_record(), sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_entries(path) -> List[LedgerEntry]:
    """All ledger entries in append order.

    Mirrors the trace loader's crash tolerance: a truncated **final**
    line is dropped silently, malformed JSON earlier raises.
    """
    path = Path(path)
    if not path.exists():
        return []
    with open(path) as handle:
        lines = [(number, line.strip())
                 for number, line in enumerate(handle, start=1)
                 if line.strip()]
    entries: List[LedgerEntry] = []
    for position, (line_number, line) in enumerate(lines):
        try:
            entries.append(LedgerEntry.from_record(json.loads(line)))
        except json.JSONDecodeError as error:
            if position == len(lines) - 1:
                break  # truncated tail of a crashed writer
            raise ValueError(
                f"{path}:{line_number}: not valid JSON ({error})"
            ) from None
    return entries


def bench_name_for(path) -> str:
    """The benchmark name a ``BENCH_<name>.json`` path implies."""
    match = _BENCH_FILE_RE.match(Path(path).name)
    if match:
        return match.group("name")
    return Path(path).stem


def ingest_file(ledger_path, bench_json_path, bench: Optional[str] = None,
                recorded_at: Optional[str] = None) -> LedgerEntry:
    """Ingest one bench JSON into the ledger and return the new entry.

    Args:
        ledger_path: the ledger JSONL to append to.
        bench_json_path: a ``BENCH_*.json`` produced by a bench run.
        bench: benchmark name override (default: derived from the
            filename).
        recorded_at: ISO timestamp override (default: now, UTC).

    Raises:
        ValueError: when the bench JSON is unreadable or holds no
            numeric scalars (nothing to trend).
    """
    bench_json_path = Path(bench_json_path)
    try:
        with open(bench_json_path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"unreadable bench JSON {bench_json_path}: {error}")
    if not isinstance(data, dict):
        raise ValueError(f"{bench_json_path}: expected a JSON object")
    metrics = extract_metrics(data)
    if not metrics:
        raise ValueError(f"{bench_json_path}: no numeric scalars to ledger")
    entry = LedgerEntry(
        bench=bench if bench else bench_name_for(bench_json_path),
        recorded_at=(recorded_at if recorded_at
                     else datetime.now(timezone.utc).isoformat()),
        metrics=metrics,
        env=env_fingerprint(),
        source=str(bench_json_path.name),
    )
    append_entry(ledger_path, entry)
    return entry


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class GateRule:
    """One regression rule over one ledger metric.

    Args:
        metric: the metric key inside ``LedgerEntry.metrics``.
        higher_is_better: direction of goodness (speedups: True,
            overhead ratios: False).
        max_regression: tolerated fractional slide versus the baseline
            (0.15 = fail when more than 15% worse than the median of
            the prior window).
        min_value: absolute floor — fail below it regardless of history.
        max_value: absolute ceiling — fail above it regardless of
            history (the telemetry null-overhead bound).
    """

    metric: str
    higher_is_better: bool = True
    max_regression: float = 0.15
    min_value: Optional[float] = None
    max_value: Optional[float] = None


#: Default per-benchmark gate rules, keyed by ledger bench name.
DEFAULT_GATES: Dict[str, List[GateRule]] = {
    "pipeline": [
        GateRule("warm_speedup", higher_is_better=True, max_regression=0.30),
    ],
    "warmstart": [
        GateRule("warm_speedup", higher_is_better=True, max_regression=0.30),
    ],
    "sweep": [
        GateRule("geomean_batch_speedup", higher_is_better=True,
                 max_regression=0.25),
    ],
    "montecarlo": [
        GateRule("geomean_noisy_batch_speedup", higher_is_better=True,
                 max_regression=0.25),
    ],
    "eventsim": [
        # The batched lockstep engine's contract: at least 10x over the
        # scalar event loop on fleet-class lane counts, bitwise-identical.
        # The validation-node grid is floored lower — at 675 lanes the
        # per-iteration dispatch cost is a constant ~half of every step.
        GateRule("geomean_fleet_speedup", higher_is_better=True,
                 max_regression=0.25, min_value=10.0),
        GateRule("node_speedup", higher_is_better=True,
                 max_regression=0.25, min_value=5.0),
    ],
    "telemetry": [
        # The hard contract: telemetry off must stay within 2% of an
        # uninstrumented run, whatever the history says.
        GateRule("null_overhead_ratio", higher_is_better=False,
                 max_regression=0.10, max_value=1.02),
        GateRule("active_overhead_ratio", higher_is_better=False,
                 max_regression=0.50, max_value=10.0),
    ],
}


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate rule on the latest entry of one benchmark."""

    bench: str
    metric: str
    status: str
    current: Optional[float]
    baseline: Optional[float]
    detail: str


def _entries_for(entries: Sequence[LedgerEntry],
                 bench: str) -> List[LedgerEntry]:
    return [entry for entry in entries if entry.bench == bench]


def evaluate_gates(entries: Sequence[LedgerEntry], bench: str,
                   window: int = 5,
                   gates: Optional[Mapping[str, List[GateRule]]] = None,
                   ) -> List[GateResult]:
    """Run ``bench``'s gate rules against its latest ledger entry.

    The baseline for the relative rule is the **median** of up to
    ``window`` entries immediately preceding the latest one. With no
    prior history the relative rule passes as ``seeded`` (absolute
    floors/ceilings still apply).
    """
    rules = (gates if gates is not None else DEFAULT_GATES).get(bench, [])
    history = _entries_for(entries, bench)
    results: List[GateResult] = []
    if not history:
        return [GateResult(bench, rule.metric, STATUS_MISSING, None, None,
                           "no ledger entries")
                for rule in rules]
    latest = history[-1]
    prior = history[:-1][-window:] if len(history) > 1 else []
    for rule in rules:
        current = latest.metrics.get(rule.metric)
        if current is None:
            results.append(GateResult(
                bench, rule.metric, STATUS_MISSING, None, None,
                f"latest {bench} entry has no {rule.metric!r}"))
            continue
        prior_values = [entry.metrics[rule.metric] for entry in prior
                        if rule.metric in entry.metrics]
        baseline = median(prior_values) if prior_values else None

        if rule.min_value is not None and current < rule.min_value:
            results.append(GateResult(
                bench, rule.metric, STATUS_REGRESSION, current, baseline,
                f"{current:.4g} below absolute floor {rule.min_value:.4g}"))
            continue
        if rule.max_value is not None and current > rule.max_value:
            results.append(GateResult(
                bench, rule.metric, STATUS_REGRESSION, current, baseline,
                f"{current:.4g} above absolute ceiling "
                f"{rule.max_value:.4g}"))
            continue
        if baseline is None:
            results.append(GateResult(
                bench, rule.metric, STATUS_SEEDED, current, None,
                "first entry; history seeded"))
            continue
        if rule.higher_is_better:
            limit = baseline * (1.0 - rule.max_regression)
            regressed = current < limit
            direction = "below"
        else:
            limit = baseline * (1.0 + rule.max_regression)
            regressed = current > limit
            direction = "above"
        if regressed:
            results.append(GateResult(
                bench, rule.metric, STATUS_REGRESSION, current, baseline,
                f"{current:.4g} is {direction} the {rule.max_regression:.0%} "
                f"band around baseline {baseline:.4g} "
                f"(median of {len(prior_values)} prior)"))
        else:
            results.append(GateResult(
                bench, rule.metric, STATUS_OK, current, baseline,
                f"within {rule.max_regression:.0%} of baseline "
                f"{baseline:.4g}"))
    return results


def evaluate_all_gates(entries: Sequence[LedgerEntry], window: int = 5,
                       gates: Optional[Mapping[str, List[GateRule]]] = None,
                       ) -> List[GateResult]:
    """Gate results for every benchmark present in the ledger."""
    gate_map = gates if gates is not None else DEFAULT_GATES
    benches = sorted({entry.bench for entry in entries})
    results: List[GateResult] = []
    for bench in benches:
        if bench in gate_map:
            results.extend(evaluate_gates(entries, bench, window=window,
                                          gates=gate_map))
    return results


def format_trend_report(entries: Sequence[LedgerEntry],
                        window: int = 5) -> str:
    """Human-readable trend + gate report over the whole ledger."""
    if not entries:
        return "bench ledger: empty"
    benches = sorted({entry.bench for entry in entries})
    lines: List[str] = [
        f"bench ledger: {len(entries)} entries across "
        f"{len(benches)} benchmark(s)"
    ]
    for bench in benches:
        history = _entries_for(entries, bench)
        latest = history[-1]
        stamp = latest.recorded_at.split("T")[0] or "?"
        lines.append("")
        lines.append(f"{bench}: {len(history)} run(s), latest {stamp} "
                     f"(python {latest.env.get('python', '?')}, "
                     f"{latest.env.get('cpu_count', '?')} cores)")
        gated = {rule.metric for rule in DEFAULT_GATES.get(bench, [])}
        for metric in sorted(latest.metrics):
            trail = [entry.metrics[metric] for entry in history[-(window + 1):]
                     if metric in entry.metrics]
            trend = " -> ".join(f"{value:.4g}" for value in trail)
            marker = " [gated]" if metric in gated else ""
            lines.append(f"  {metric:<32s} {trend}{marker}")
        for result in evaluate_gates(entries, bench, window=window):
            lines.append(f"  gate {result.metric}: {result.status} "
                         f"({result.detail})")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Tiny debug entry point: print the trend report."""
    path = argv[0] if argv else default_ledger_path()
    print(format_trend_report(read_entries(path)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
