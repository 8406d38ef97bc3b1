"""Unit tests for the analysis helpers (table rendering)."""

from __future__ import annotations

from repro.analysis.tables import format_value, render_csv, render_table


class TestTables:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(3.14159) == "3.14"
        assert format_value(12345) == "12,345"
        assert format_value(float("nan")) == "-"
        assert format_value("text") == "text"

    def test_render_table_contains_data(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = render_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "10" in text

    def test_render_table_column_order(self):
        text = render_table([{"x": 1}, {"y": 2, "x": 3}])
        assert text.splitlines()[0].split() == ["x", "|", "y"]

    def test_render_csv(self):
        text = render_csv([{"a": 1, "b": "z"}])
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1] == "1,z"
