"""Text and CSV rendering of exact-rational results.

Rationals are always shown in their exact p/q form; where a decimal is
also wanted it carries 12 significant digits.

``table_text`` lays a comparison table out a column at a time: each
column's cells are formatted once and padded to the column's width in one
pass, and the rows are the padded columns zipped and joined.  The last
column is left unpadded, so no row ends in spaces as long as no text in it
is empty or ends in a space, which holds for every table the package
builds (cells are numbers, exact ratios or "n/a").
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
    if type(x) is int:  # the count cells: str(x) without the ABC check below
        return str(x)
    if x is None:
        return "n/a"
    return cell_text(Fraction(x)) if isinstance(x, Fraction) else str(x)


def table_text(table: ComparisonTable) -> str:
    """The table as aligned text: its title, a header row and a rule, one
    row per row label, then each note after a blank line."""
    columns = [["parameter", *table.row_labels]]
    columns += [[name, *map(cell_text, cells)] for name, cells in table.columns]
    widths = [max(map(len, column)) for column in columns]
    padded = [[cell.ljust(width) for cell in column] for column, width in zip(columns[:-1], widths)]
    header, *rows = map("  ".join, zip(*padded, columns[-1]))
    lines = [table.title, "", header, "  ".join("-" * w for w in widths), *rows]
    for note in table.notes:
        lines += ["", f"note: {note}"]
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
