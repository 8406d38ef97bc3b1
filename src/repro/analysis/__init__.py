"""Analysis helpers: table rendering for the experiment harness."""

from repro.analysis.tables import format_value, render_csv, render_table

__all__ = [
    "format_value",
    "render_csv",
    "render_table",
]
