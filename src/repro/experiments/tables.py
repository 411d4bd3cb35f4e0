"""ASCII table rendering and the shared experiment-result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class ExperimentResult:
    """Uniform result of one experiment (rows + rendering)."""

    experiment: str
    title: str
    columns: list
    data: list = field(default_factory=list)   # list of dicts
    note: Optional[str] = None

    def rows(self) -> list:
        return list(self.data)

    def render(self) -> str:
        return render_table(
            f"{self.experiment}: {self.title}", self.columns, self.data,
            note=self.note,
        )


def with_average(rows: list, *columns: str, **label) -> list:
    """``rows`` closed by one more row holding the mean of each of
    ``columns`` over them (nothing is added to no rows).

    ``label`` names the closing row (``app="Average"`` unless given);
    its other columns render blank.
    """
    if not rows:
        return rows
    means = {column: sum(row[column] for row in rows) / len(rows)
             for column in columns}
    return rows + [{**(label or {"app": "Average"}), **means}]


def render_table(
    title: str,
    columns: list,
    rows: Iterable[dict],
    note: Optional[str] = None,
) -> str:
    """Render ``rows`` (dicts) under ``columns`` (keys) as an ASCII table."""
    rows = list(rows)
    widths = {col: len(str(col)) for col in columns}
    rendered_rows = []
    for row in rows:
        rendered = {}
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                text = f"{value:.2f}"
            else:
                text = str(value)
            rendered[col] = text
            widths[col] = max(widths[col], len(text))
        rendered_rows.append(rendered)

    def line(char="-", joint="+"):
        return joint + joint.join(char * (widths[c] + 2) for c in columns) + joint

    out = [title, line("=")]
    out.append(
        "|" + "|".join(f" {str(c).ljust(widths[c])} " for c in columns) + "|")
    out.append(line())
    for rendered in rendered_rows:
        out.append(
            "|" + "|".join(
                f" {rendered[c].rjust(widths[c])} " for c in columns) + "|")
    out.append(line("="))
    if note:
        out.append(note)
    return "\n".join(out)
