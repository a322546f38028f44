#!/usr/bin/env python
"""Lint the telemetry event schema against its manifest and docs.

The events are the instants of a ``--trace`` file: each instant's
``args`` is one event's wire record (``to_record()``), so this schema is
the format of those args, next to the span schema of the same file.

Fails (exit 1) when:

* the current ``SCHEMA_VERSION`` has no entry in ``SCHEMA_MANIFEST``;
* the registered event types (``EVENT_TYPES``) differ from the manifest
  entry for the current version — i.e. someone added/removed an event
  type without bumping the version and recording the new set;
* a historical manifest entry is unsorted or duplicated (the manifest is
  append-only and must stay canonical);
* an event type is missing from the ``docs/telemetry.md`` schema table,
  or the docs mention an event type the schema no longer has;
* the span schema (``SPAN_SCHEMA_VERSION`` / ``SPAN_SCHEMA_MANIFEST``)
  drifted from the ``SpanRecord`` fields, or a span field is missing
  from the docs' span-field table.

Run from the repository root:  python tools/check_event_schema.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.events import (  # noqa: E402
    EVENT_TYPES,
    SCHEMA_MANIFEST,
    SCHEMA_VERSION,
)
from repro.telemetry.spans import (  # noqa: E402
    SPAN_SCHEMA_MANIFEST,
    SPAN_SCHEMA_VERSION,
    span_fields,
)

DOCS = REPO_ROOT / "docs" / "telemetry.md"


def check() -> list:
    errors = []
    current = tuple(sorted(EVENT_TYPES))

    if SCHEMA_VERSION not in SCHEMA_MANIFEST:
        errors.append(
            f"SCHEMA_VERSION {SCHEMA_VERSION} has no SCHEMA_MANIFEST entry; "
            "append the current event-type set for it"
        )
    else:
        recorded = SCHEMA_MANIFEST[SCHEMA_VERSION]
        if recorded != current:
            added = set(current) - set(recorded)
            removed = set(recorded) - set(current)
            detail = []
            if added:
                detail.append(f"added {sorted(added)}")
            if removed:
                detail.append(f"removed {sorted(removed)}")
            errors.append(
                f"event types changed ({', '.join(detail)}) but "
                f"SCHEMA_VERSION is still {SCHEMA_VERSION}; bump it and "
                "record the new set in SCHEMA_MANIFEST"
            )

    for version, names in SCHEMA_MANIFEST.items():
        if tuple(sorted(set(names))) != names:
            errors.append(
                f"SCHEMA_MANIFEST[{version}] must be sorted and "
                f"duplicate-free, got {names}"
            )

    current_fields = span_fields()
    if SPAN_SCHEMA_VERSION not in SPAN_SCHEMA_MANIFEST:
        errors.append(
            f"SPAN_SCHEMA_VERSION {SPAN_SCHEMA_VERSION} has no "
            "SPAN_SCHEMA_MANIFEST entry; append the current field set"
        )
    else:
        recorded = SPAN_SCHEMA_MANIFEST[SPAN_SCHEMA_VERSION]
        if recorded != current_fields:
            errors.append(
                f"SpanRecord fields changed ({list(current_fields)} vs "
                f"recorded {list(recorded)}) but SPAN_SCHEMA_VERSION is "
                f"still {SPAN_SCHEMA_VERSION}; bump it and record the "
                "new set in SPAN_SCHEMA_MANIFEST"
            )
    for version, fields in SPAN_SCHEMA_MANIFEST.items():
        if tuple(sorted(set(fields))) != fields:
            errors.append(
                f"SPAN_SCHEMA_MANIFEST[{version}] must be sorted and "
                f"duplicate-free, got {fields}"
            )

    if not DOCS.exists():
        errors.append(f"{DOCS} is missing; every event type must be documented")
        return errors

    text = DOCS.read_text()
    # Documented rows look like:  | `KernelLaunch` | ... | — restrict to
    # event-type names (the doc's other tables list snake_case metrics).
    known = {name for names in SCHEMA_MANIFEST.values() for name in names}
    known |= set(current)
    documented = set(re.findall(r"^\|\s*`(\w+)`\s*\|", text, re.MULTILINE))
    documented &= known
    for name in current:
        if name not in documented:
            errors.append(
                f"event type {name} is not documented in docs/telemetry.md "
                "(add a row to the schema table)"
            )
    for name in sorted(documented - set(current)):
        errors.append(
            f"docs/telemetry.md documents {name}, which is not a "
            "registered event type"
        )

    # Span fields use the same backticked-table-row convention.
    known_fields = {field for fields in SPAN_SCHEMA_MANIFEST.values()
                    for field in fields} | set(current_fields)
    documented_fields = set(
        re.findall(r"^\|\s*`(\w+)`\s*\|", text, re.MULTILINE)
    ) & known_fields
    for field in current_fields:
        if field not in documented_fields:
            errors.append(
                f"span field {field} is not documented in "
                "docs/telemetry.md (add a row to the span-field table)"
            )
    for field in sorted(documented_fields - set(current_fields)):
        errors.append(
            f"docs/telemetry.md documents span field {field}, which "
            "SpanRecord no longer has"
        )
    return errors


def main() -> int:
    errors = check()
    if errors:
        for error in errors:
            print(f"check_event_schema: {error}", file=sys.stderr)
        return 1
    print(
        f"check_event_schema: OK (events v{SCHEMA_VERSION}, "
        f"{len(EVENT_TYPES)} event types; spans v{SPAN_SCHEMA_VERSION}, "
        f"{len(span_fields())} fields; docs in sync)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
