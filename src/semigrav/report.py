"""Run reports and their CSV/JSON serialization.

A report is a set of named tables (labeled numeric columns), pass/fail
flags, the scenario name and the seed.  Serialization is byte-stable for a
fixed report: JSON keys are sorted and floats use Python's shortest
round-trip repr; CSV is RFC-4180 style (CRLF line endings, minimal
quoting), one file per table.

The JSON text is ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
newline, byte for byte.  ``indent`` turns off json's C encoder, so only the
small skeleton goes through ``json.dumps``; each table's cells are C-encoded
in one call, one per line, and laid out at their fixed depth.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = ["Table", "RunReport", "emit"]

Cell = float | int | str | bool


@dataclass(frozen=True)
class Table:
    """A named table of labeled columns over numeric/text rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row of width {len(row)} does not match "
                    f"{len(self.columns)} columns"
                )

    @staticmethod
    def build(name: str, columns: Sequence[str], rows: Sequence[Sequence[Cell]]) -> "Table":
        return Table(name, tuple(columns), tuple(tuple(r) for r in rows))


@dataclass
class RunReport:
    """Everything one scenario run produced."""

    scenario: str
    seed: int
    tables: dict[str, Table] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def _csv_row(row: tuple[Cell, ...]) -> Sequence[Cell]:
    """The row with its bools spelled true/false.  The C writer already renders
    a float by repr() and an int or str by str(), so nothing else is mapped."""
    if bool not in map(type, row):
        return row
    return [("true" if v else "false") if type(v) is bool else v for v in row]


def _table_to_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    writer.writerows(map(_csv_row, table.rows))
    return buf.getvalue()


_CELLS = json.JSONEncoder(separators=("\n", ": "))  # no indent: the C encoder runs


def _rows_to_json(table: Table) -> str:
    """``table.rows`` as ``json.dumps(..., indent=2)`` lays them out at depth 3."""
    if not table.rows:
        return "[]"
    width = len(table.columns)
    if width:
        cells = _CELLS.encode([c for row in table.rows for c in row])[1:-1].split("\n")
        rows = ["[\n          " + ",\n          ".join(cells[i:i + width]) + "\n        ]"
                for i in range(0, len(cells), width)]
    else:
        rows = ["[]"] * len(table.rows)
    return "[\n        " + ",\n        ".join(rows) + "\n      ]"


def _report_to_json(report: RunReport) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    head = json.dumps({"flags": report.flags, "scenario": report.scenario,
                       "seed": report.seed}, sort_keys=True, indent=2)
    tables = [f'    {json.dumps(name)}: {{\n      "columns": '
              + json.dumps(list(t.columns), indent=2).replace("\n", "\n      ")
              + f',\n      "rows": {_rows_to_json(t)}\n    }}'
              for name, t in sorted(report.tables.items())]
    body = "{\n" + ",\n".join(tables) + "\n  }" if tables else "{}"
    # "tables" sorts after the head's keys, so it goes before head's closing "\n}"
    return f'{head[:-2]},\n  "tables": {body}\n}}\n'


def emit(report: RunReport, format: str, destination=None) -> str:
    """Serialize ``report``; if ``destination`` is given, also write file(s).

    JSON writes one file.  CSV writes the first table at ``destination``
    and each further table at ``<stem>.<table_name>.csv``.  The primary
    serialized text is returned either way.
    """
    if format == "json":
        text = _report_to_json(report)
        if destination is not None:
            Path(destination).write_text(text, encoding="utf-8", newline="")
        return text
    if format != "csv":
        raise ValueError(f"unknown output format {format!r}")

    tables = list(report.tables.values())
    if not tables:
        tables = [Table.build("empty", (), ())]
    primary = _table_to_csv(tables[0])
    if destination is not None:
        dest = Path(destination)
        dest.write_text(primary, encoding="utf-8", newline="")
        for extra in tables[1:]:
            sibling = dest.with_name(f"{dest.stem}.{extra.name}{dest.suffix or '.csv'}")
            sibling.write_text(_table_to_csv(extra), encoding="utf-8", newline="")
    return primary
