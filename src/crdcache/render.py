"""Text and CSV rendering of exact-rational results.

Rationals are always shown in their exact p/q form; where a decimal is
also wanted it carries 12 significant digits.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Sequence

from .baselines import ComparisonTable, SweepRow

SWEEP_HEADER = (
    "param",
    "m_over_n",
    "m_over_n_dec",
    "rk_crd",
    "rk_crd_dec",
    "rk_man",
    "rk_man_dec",
    "f_crd",
    "f_man",
    "note",
)


def decimal_text(x: Fraction | int, digits: int = 12) -> str:
    return format(float(x), f".{digits}g")


def cell_text(x) -> str:
    if type(x) is Fraction:  # most cells: no ABC instance check, no float(x) call
        num, den = x.numerator, x.denominator
        return f"{num}/{den} ({num / den:.12g})" if den != 1 else str(num)
    if x is None:
        return "n/a"
    return cell_text(Fraction(x)) if isinstance(x, Fraction) else str(x)


def table_text(table: ComparisonTable) -> str:
    headers = ["parameter"] + [name for name, _ in table.columns]
    grid = [headers]
    for row_idx, label in enumerate(table.row_labels):
        grid.append([label] + [cell_text(cells[row_idx]) for _, cells in table.columns])
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = [table.title, ""]
    for row_idx, row in enumerate(grid):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if row_idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    for note in table.notes:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def table_csv(table: ComparisonTable) -> str:
    """One CSV row per scheme column; cells keep the exact p/q form."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scheme"] + list(table.row_labels))
    for name, cells in table.columns:
        writer.writerow([name] + [cell_text(c) for c in cells])
    return out.getvalue()


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        if row.note and row.m_over_n is None:
            writer.writerow([row.param] + [""] * 8 + [row.note])
            continue
        writer.writerow(
            [
                row.param,
                row.m_over_n,
                decimal_text(row.m_over_n),
                row.rk_crd,
                decimal_text(row.rk_crd),
                row.rk_man,
                decimal_text(row.rk_man),
                row.f_crd,
                row.f_man,
                row.note,
            ]
        )
    return out.getvalue()
