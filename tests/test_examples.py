"""Smoke tests: every example script, and the documented code, must run
cleanly end to end."""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
TELEMETRY_DOC = EXAMPLES_DIR.parent / "docs" / "telemetry.md"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()  # every example prints its findings


def test_expected_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "graph500_adaptation.py",
            "custom_workload.py", "design_space_exploration.py",
            "measurement_rig.py", "roofline_and_thermal.py"} <= names


def test_telemetry_doc_quick_start_runs():
    """The python block of ``docs/telemetry.md`` runs as written: the
    handle's instants hold the policy's and the runner's events, and the
    block's span holds the controller spans."""
    (block,) = re.findall(r"^```python\n(.*?)^```",
                          TELEMETRY_DOC.read_text(), re.M | re.S)
    namespace = {}
    exec(compile(block, str(TELEMETRY_DOC), "exec"), namespace)
    types = {type(event).__name__ for event in namespace["events"]}
    assert {"KernelLaunch", "CGJump"} <= types
    names = [record.name for record in namespace["spans"]]
    assert names[-1] == "graph500"
    assert "controller.session" in names
