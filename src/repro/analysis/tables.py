"""Plain-text tables for benchmark and example output.

The paper has no figures to re-plot, so the harness reports its series as
aligned ASCII tables (one per experiment) that can be pasted into
EXPERIMENTS.md.  No third-party table library is used to keep the
dependency footprint at networkx alone.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Iterable[str] | None = None) -> str:
    """Render ``rows`` (dictionaries) as an aligned ASCII table.

    Columns default to the union of every row's keys in first-seen
    order, so rows carrying extra columns (e.g. the theorem-bound
    ratios only the paper's algorithm reports) never lose them to the
    accident of which row came first; missing values render as ``-``.
    Returns a string ending without a newline.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is not None:
        column_names = list(columns)
    else:
        column_names = []
        for row in rows:
            for name in row:
                if name not in column_names:
                    column_names.append(name)
    rendered = [
        [_render_cell(row.get(name, "-")) for name in column_names] for row in rows
    ]
    widths = [
        max(len(name), *(len(line[index]) for line in rendered))
        for index, name in enumerate(column_names)
    ]
    header = "  ".join(name.ljust(width) for name, width in zip(column_names, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths)) for line in rendered
    ]
    return "\n".join([header, separator, *body])
