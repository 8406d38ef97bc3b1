"""Plain-text table rendering for the experiment harness.

Every experiment driver returns a list of row dicts; this module renders them
as aligned monospace tables (and optionally CSV) so that the benchmark output
can be compared side by side with the paper's tables.
:func:`render_stored_tables` renders straight from a suite
:class:`~repro.experiments.store.ArtifactStore`, so every table can be
regenerated from persisted artifacts without recomputation.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

__all__ = ["render_table", "render_csv", "render_stored_tables", "format_value"]


def format_value(value) -> str:
    """Human-friendly scalar formatting (floats get 2 decimals, None a dash)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or value == int(value):
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _columns(rows: Sequence[Dict]) -> List[str]:
    """Every key of ``rows``, in first-appearance order."""
    return list(dict.fromkeys(key for row in rows for key in row))


def render_table(rows: Sequence[Dict], *, title: Optional[str] = None) -> str:
    """Render ``rows`` (list of dicts) as an aligned text table, one column
    per key in first-appearance order."""
    rows = list(rows)
    columns = _columns(rows)
    header = [str(c) for c in columns]
    body = [[format_value(row.get(c)) for c in columns] for row in rows]
    widths = [len(h) for h in header]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    separator = "-+-".join("-" * w for w in widths)
    out.write(" | ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    out.write(separator + "\n")
    for line in body:
        out.write(" | ".join(cell.ljust(w) for cell, w in zip(line, widths)) + "\n")
    return out.getvalue()


def render_csv(rows: Sequence[Dict]) -> str:
    """Render rows as CSV text (for piping into plotting tools)."""
    rows = list(rows)
    columns = _columns(rows)
    out = io.StringIO()
    out.write(",".join(str(c) for c in columns) + "\n")
    for row in rows:
        out.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
    return out.getvalue()


def render_stored_tables(
    store,
    *,
    csv: bool = False,
    titles: Optional[Dict[str, str]] = None,
) -> str:
    """Render every experiment of a stored suite run from its artifacts.

    ``store`` is an :class:`~repro.experiments.store.ArtifactStore` (accepted
    duck-typed to keep this layer free of experiment imports).  The rows come
    straight from the persisted cell JSONs in manifest (suite) order — no
    cell is recomputed — so tables can be regenerated offline from any
    ``--out`` directory.  Raises ``FileNotFoundError`` when the store has no
    manifest and ``KeyError`` when a manifest-listed artifact is missing.
    """
    manifest = store.read_manifest()
    titles = titles or {}
    per_experiment: Dict[str, List[Dict]] = {}
    for entry in manifest.get("cells", []):
        experiment = entry["experiment"]
        payload = store.load_cell(experiment, entry["key"])
        if payload is None:
            raise KeyError(
                f"artifact {entry['key']!r} for cell {entry.get('cell_id')!r} "
                f"is missing from the store; re-run the suite"
            )
        per_experiment.setdefault(experiment, []).extend(payload["rows"])
    out = io.StringIO()
    for experiment, rows in per_experiment.items():
        if csv:
            out.write(render_csv(rows))
        else:
            out.write(render_table(rows, title=titles.get(experiment, experiment)))
            out.write(f"[{experiment}: {len(rows)} rows from stored artifacts]\n\n")
    return out.getvalue()
