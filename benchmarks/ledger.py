"""Append-only trend ledger of perfbench rows, with regression gates.

``perfbench/run.py --trace 0`` ends its stdout with two JSON lines: the
run's facts (``workload``, ``seed``, host versions, ``code.src_lines``)
and its result (``correct``, ``attempted``, ``failed`` and the
end-to-end ``metrics``, each a ``{"value", "unit"}`` pair). One saved
stdout becomes one ledger row: a JSONL line with the workload, an
ISO-8601 timestamp, the result's verdict and invocation counts, every
metric value plus ``code.src_lines``, and the host facts, so that a
slowdown a machine change explains shows as such.

Gates turn the history into a CI signal. For the latest row of each
workload, the :data:`GATED` metrics are compared with the **median of
up to** :data:`WINDOW` **prior correct rows** of that workload, in the
``better`` direction and within the fractional ``bound`` that
BENCHMARK.json declares for the metric, so each bound lives in one
place. The other metrics are trended, not gated: between two runs of
the same source ``setup_s`` read 28% apart against its 25% bound, while
``wall_s`` moved 0.7% and ``peak_rss_mb`` 0.04%. A latest row that
failed perfbench's output checks (``correct: false``) or lacks a gated
metric fails its gates; a workload's first row seeds its history.

``tools/bench_gate.py`` is the one entry point: ``ingest`` appends
saved runs, ``check`` prints the trend report and gates the latest rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version stamped into every ledger line (1 held ``BENCH_*.json``
#: scalars; 2 holds perfbench rows).
LEDGER_SCHEMA_VERSION = 2

#: The end-to-end metrics the gates act on; every other one is trended.
GATED = ("wall_s", "peak_rss_mb")

#: Prior rows whose median is a gate's baseline, and rows a trend shows.
WINDOW = 5

#: Host facts of perfbench's facts line kept with each row.
ENV_FACTS = ("seed", "nproc", "python", "numpy")

#: Gate outcome states.
STATUS_OK = "ok"
STATUS_SEEDED = "seeded"
STATUS_REGRESSION = "regression"
STATUS_MISSING = "missing"
STATUS_INCORRECT = "incorrect"

#: The states that fail ``check``.
FAILING = (STATUS_REGRESSION, STATUS_MISSING, STATUS_INCORRECT)

_REPO_ROOT = Path(__file__).resolve().parent.parent


def default_ledger_path() -> Path:
    """The ledger location used when no ``--ledger`` is given."""
    return _REPO_ROOT / "benchmarks" / "ledger.jsonl"


def metric_bounds() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of BENCHMARK.json's end-to-end
    metrics: ``better`` is ``"lower"`` or ``"higher"``, ``bound`` the
    tolerated fractional slide."""
    spec = json.loads((_REPO_ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: (metric["better"], float(metric["bound"]))
            for metric in spec["end_to_end"]}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class LedgerEntry:
    """One perfbench run of one workload."""

    workload: str
    recorded_at: str
    correct: bool
    metrics: Dict[str, float]
    attempted: int = 0
    failed: int = 0
    env: Dict[str, Any] = field(default_factory=dict)
    source: str = ""
    schema: int = LEDGER_SCHEMA_VERSION

    def to_record(self) -> Dict[str, Any]:
        """The JSONL wire form."""
        return {
            "schema": self.schema,
            "workload": self.workload,
            "recorded_at": self.recorded_at,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "env": self.env,
            "source": self.source,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "LedgerEntry":
        """Rebuild an entry from its JSONL form."""
        return cls(
            workload=str(record["workload"]),
            recorded_at=str(record.get("recorded_at", "")),
            correct=record["correct"] is True,
            metrics={str(k): float(v)
                     for k, v in dict(record["metrics"]).items()},
            attempted=int(record.get("attempted", 0)),
            failed=int(record.get("failed", 0)),
            env=dict(record.get("env", {})),
            source=str(record.get("source", "")),
            schema=int(record.get("schema", LEDGER_SCHEMA_VERSION)),
        )


def _json_object(line: str) -> Optional[Dict[str, Any]]:
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def entry_from_stdout(text: str, source: str = "",
                      recorded_at: Optional[str] = None) -> LedgerEntry:
    """The ledger row of one saved ``perfbench/run.py --trace 0`` stdout.

    Reads its last two lines, the facts and the result object; a metric
    the result line does not hold is left out of the row (``check``
    then fails its gate).

    Raises:
        ValueError: when the text does not end in perfbench's facts and
            result lines, or a metric or count is not a number.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    facts = _json_object(lines[-2]) if len(lines) >= 2 else None
    result = _json_object(lines[-1]) if lines else None
    if (facts is None or result is None
            or not isinstance(facts.get("workload"), str)
            or not isinstance(result.get("correct"), bool)
            or not isinstance(result.get("metrics"), dict)):
        raise ValueError(f"{source}: does not end in perfbench's facts "
                         f"and result lines")
    metrics: Dict[str, float] = {}
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not _is_number(value):
            raise ValueError(f"{source}: metric {name!r} has no numeric "
                             f"value")
        metrics[name] = float(value)
    counts = [result.get(key, 0) for key in ("attempted", "failed")]
    if not all(_is_number(count) for count in counts):
        raise ValueError(f"{source}: attempted/failed are not numbers")
    if _is_number(facts.get("code.src_lines")):
        metrics["code.src_lines"] = float(facts["code.src_lines"])
    return LedgerEntry(
        workload=facts["workload"],
        recorded_at=(recorded_at if recorded_at
                     else datetime.now(timezone.utc).isoformat()),
        correct=result["correct"],
        metrics=metrics,
        attempted=int(counts[0]),
        failed=int(counts[1]),
        env={key: facts[key] for key in ENV_FACTS if key in facts},
        source=source,
    )


def append_entry(path, entry: LedgerEntry) -> None:
    """Append one entry to the ledger, durably (flush + fsync)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry.to_record(), sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def ingest_file(ledger_path, stdout_path,
                recorded_at: Optional[str] = None) -> LedgerEntry:
    """Append the row of one saved perfbench stdout and return it.

    Raises:
        ValueError: when the file is unreadable or not perfbench output
            (see :func:`entry_from_stdout`).
    """
    stdout_path = Path(stdout_path)
    try:
        text = stdout_path.read_text()
    except (OSError, UnicodeDecodeError) as error:
        raise ValueError(f"unreadable perfbench output {stdout_path}: "
                         f"{error}") from None
    entry = entry_from_stdout(text, source=stdout_path.name,
                              recorded_at=recorded_at)
    append_entry(ledger_path, entry)
    return entry


def read_entries(path) -> List[LedgerEntry]:
    """All ledger entries in append order.

    A truncated **final** line (a crashed writer) is dropped silently;
    malformed JSON earlier, or a line that is no ledger row, raises.
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
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if position == len(lines) - 1:
                break  # truncated tail of a crashed writer
            raise ValueError(
                f"{path}:{line_number}: not valid JSON ({error})"
            ) from None
        try:
            entries.append(LedgerEntry.from_record(record))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{path}:{line_number}: not a ledger row ({error!r})"
            ) from None
    return entries


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gated metric on the latest row of one workload."""

    workload: str
    metric: str
    status: str
    baseline: Optional[float]
    detail: str


def evaluate_gates(entries: Sequence[LedgerEntry], workload: str,
                   bounds: Optional[Mapping[str, Tuple[str, float]]] = None,
                   ) -> List[GateResult]:
    """Gate each :data:`GATED` metric of ``workload``'s latest row.

    The baseline is the **median** of the metric over up to
    :data:`WINDOW` correct rows before the latest one; ``bounds``
    defaults to :func:`metric_bounds`.
    """
    bounds = metric_bounds() if bounds is None else bounds
    history = [entry for entry in entries if entry.workload == workload]
    latest = history[-1]
    results: List[GateResult] = []
    for metric in GATED:
        better, bound = bounds[metric]
        current = latest.metrics.get(metric)
        values = [entry.metrics[metric] for entry in history[:-1]
                  if entry.correct and metric in entry.metrics][-WINDOW:]
        baseline = median(values) if values else None
        if not latest.correct:
            status, detail = STATUS_INCORRECT, (
                f"latest row failed perfbench's checks ({latest.failed} "
                f"of {latest.attempted} invocations)")
        elif current is None:
            status, detail = STATUS_MISSING, f"latest row has no {metric!r}"
        elif baseline is None:
            status, detail = STATUS_SEEDED, "first row; history seeded"
        elif (current > baseline * (1.0 + bound) if better == "lower"
              else current < baseline * (1.0 - bound)):
            status, detail = STATUS_REGRESSION, (
                f"{current:.4g} is {'above' if better == 'lower' else 'below'}"
                f" the {bound:.0%} band around baseline {baseline:.4g} "
                f"(median of {len(values)} prior)")
        else:
            status, detail = STATUS_OK, (
                f"within {bound:.0%} of baseline {baseline:.4g}")
        results.append(GateResult(workload, metric, status, baseline,
                                  detail))
    return results


def evaluate_all_gates(entries: Sequence[LedgerEntry]) -> List[GateResult]:
    """Gate results for every workload in the ledger."""
    bounds = metric_bounds()
    results: List[GateResult] = []
    for workload in sorted({entry.workload for entry in entries}):
        results.extend(evaluate_gates(entries, workload, bounds=bounds))
    return results


def format_trend_report(entries: Sequence[LedgerEntry],
                        results: Sequence[GateResult]) -> str:
    """Each workload's rows, recent metric values and gate verdicts."""
    workloads = sorted({entry.workload for entry in entries})
    lines: List[str] = [
        f"bench ledger: {len(entries)} rows across "
        f"{len(workloads)} workload(s)"
    ]
    for workload in workloads:
        history = [entry for entry in entries if entry.workload == workload]
        latest = history[-1]
        stamp = latest.recorded_at.split("T")[0] or "?"
        lines.append("")
        lines.append(f"{workload}: {len(history)} run(s), latest {stamp} "
                     f"(python {latest.env.get('python', '?')}, "
                     f"{latest.env.get('nproc', '?')} cpu)")
        for metric in sorted(latest.metrics):
            trail = [entry.metrics[metric]
                     for entry in history[-(WINDOW + 1):]
                     if metric in entry.metrics]
            trend = " -> ".join(f"{value:.6g}" for value in trail)
            marker = " [gated]" if metric in GATED else ""
            lines.append(f"  {metric:<32s} {trend}{marker}")
        for result in results:
            if result.workload == workload:
                lines.append(f"  gate {result.metric}: {result.status} "
                             f"({result.detail})")
    return "\n".join(lines)
