"""Unit tests for :mod:`repro.analysis.report`."""

import pytest

from repro.analysis.report import format_table
from repro.errors import AnalysisError


class TestFormatTable:
    def test_basic_rendering(self):
        table = format_table(("a", "b"), [("x", "1"), ("long-cell", "2")])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "long-cell" in lines[3]

    def test_title(self):
        table = format_table(("a",), [("x",)], title="My Title")
        assert table.splitlines()[0] == "My Title"

    def test_columns_aligned(self):
        table = format_table(("col",), [("a",), ("bbb",)])
        lines = table.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])

    def test_numbers_stringified(self):
        table = format_table(("n",), [(42,)])
        assert "42" in table

    def test_width_mismatch_raises(self):
        with pytest.raises(AnalysisError):
            format_table(("a", "b"), [("only-one",)])

    def test_empty_headers_raise(self):
        with pytest.raises(AnalysisError):
            format_table((), [])
