"""The static half of ``tools/check_reach.py``.

The full check runs every subcommand and example under a profile hook
(CI runs it); these tests cover what needs no run: every allowlist entry
names a definition under ``src/repro`` and carries a known tag, every
``build_parser()`` subcommand has a command line, and the bookkeeping
that turns a reach pass into errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_reach  # noqa: E402


def test_allowlist_resolves_and_every_subcommand_has_a_leg():
    assert check_reach.static_errors() == []


def test_every_leg_names_a_subcommand():
    assert {leg[0] for leg in check_reach.LEGS} <= set(
        check_reach.subcommands())


def test_bad_entries_are_reported(tmp_path):
    allowlist = tmp_path / "allowlist.txt"
    allowlist.write_text(
        "repro.units:hz_to_mhz  favourite\n"
        "repro.units:no_such_function  public\n"
        "repro.units:hz_to_mhz  public\n"
        "just-one-field\n")
    errors = check_reach.static_errors(allowlist)
    assert len(errors) == 4
    assert "unknown tag 'favourite'" in errors[0]
    assert "listed twice" in errors[1]
    assert "expected 'module:name  tag'" in errors[2]
    assert "repro.units:no_such_function names no definition" in errors[3]


def test_a_subcommand_without_a_leg_is_reported():
    legs = [leg for leg in check_reach.LEGS if leg[0] != "sweep"]
    errors = check_reach.static_errors(legs=legs)
    assert errors == ["subcommand 'sweep' has no command line in "
                      "tools/check_reach.py LEGS"]


def test_definitions_carry_the_code_object_keys():
    defs = {d.name: d for d in check_reach.definitions()}
    main = defs["repro.cli:main"]
    from repro.cli import main as function
    code = function.__code__
    assert (main.path, main.line, main.code_name) == (
        code.co_filename, code.co_firstlineno, code.co_name)
    # Nested definitions are qualified by their enclosing definition.
    assert "repro.telemetry.metrics:Counter.inc" in defs


def test_reach_errors_need_an_entry_per_uncalled_definition():
    def definition(name, line):
        code_name = name.rpartition(":")[2].rpartition(".")[2]
        return check_reach.Definition(name, "m.py", line, code_name, line)

    klass = definition("m:Klass", 1)
    method = definition("m:Klass.method", 2)
    helper = definition("m:helper", 5)
    called = {("m.py", 1, "Klass"), ("m.py", 5, "helper")}

    uncalled, errors = check_reach.reach_errors(
        [klass, method, helper], called, {})
    assert uncalled == [method]
    assert len(errors) == 1 and "m:Klass.method is never called" in errors[0]

    # A class entry covers its methods; an entry for a called definition
    # is stale.
    _, errors = check_reach.reach_errors(
        [klass, method, helper], called,
        {"m:Klass": "public", "m:helper": "public"})
    assert errors == [f"allowlist entry m:helper is called now; remove it "
                      f"from {check_reach.ALLOWLIST.name}"]
