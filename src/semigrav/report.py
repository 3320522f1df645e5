"""Run reports and their CSV/JSON serialization.

A report is a set of named tables, pass/fail flags, the scenario name and
the seed.  A table holds columns, a numpy array or a short list per label;
only this module turns cells into Python scalars.  Serialization is
byte-stable for a fixed report: JSON keys are sorted and floats use Python's
shortest round-trip repr; CSV is RFC-4180 style (CRLF line endings, minimal
quoting), one file per table.

The JSON text is ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
newline, byte for byte.  ``indent`` turns off json's C encoder, so only the
small skeleton goes through ``json.dumps``; each column's cells are
C-encoded a chunk of rows per call, then zipped into rows at their depth.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Table", "RunReport", "emit"]

Cell = float | int | str | bool


def _cells(column) -> list[Cell]:  # a column's cells as Python scalars
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


@dataclass(frozen=True)
class Table:
    """A named table: one column of cells (a sequence or a 1-D numpy array)
    per label, all of one length; ``rows`` derives the rows of Python scalars."""

    name: str
    columns: tuple[str, ...]
    data: tuple[Sequence[Cell], ...]

    def __post_init__(self):
        lengths = [len(column) for column in self.data]
        if len(lengths) != len(self.columns) or len(set(lengths)) > 1:
            raise ValueError(f"table {self.name!r}: {len(self.columns)} labels over "
                             f"columns of lengths {lengths}")

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(zip(*map(_cells, self.data)))


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


def _csv_column(column) -> list[Cell]:
    """The column's cells with its bools spelled true/false.  The C writer already
    renders a float by repr() and an int or str by str(), so nothing else is mapped."""
    cells = _cells(column)
    if bool not in map(type, cells):
        return cells
    return [("true" if v else "false") if type(v) is bool else v for v in cells]


def _table_to_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    writer.writerows(zip(*map(_csv_column, table.data)))
    return buf.getvalue()


_CELLS = json.JSONEncoder(separators=("\n", ": "))  # no indent: the C encoder runs
_CHUNK = 8192  # rows per encoder call on each column: bounds the per-cell strings alive


def _rows_to_json(table: Table) -> Iterator[str]:
    """``table.rows`` as ``json.dumps(..., indent=2)`` lays them out at depth 3, in pieces."""
    n_rows = len(table.data[0]) if table.data else 0
    if not n_rows:
        yield "[]"
        return
    row_sep = "\n        ],\n        [\n          "
    yield "[\n        [\n          "
    for start in range(0, n_rows, _CHUNK):
        cells = [_CELLS.encode(_cells(column[start:start + _CHUNK]))[1:-1].split("\n")
                 for column in table.data]
        yield (row_sep if start else "") + row_sep.join(map(",\n          ".join, zip(*cells)))
    yield "\n        ]\n      ]"


def _report_to_json(report: RunReport) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    head = json.dumps({"flags": report.flags, "scenario": report.scenario,
                       "seed": report.seed}, sort_keys=True, indent=2)
    # "tables" sorts after the head's keys, so it goes before head's closing "\n}"
    pieces = [head[:-2], ',\n  "tables": {']
    for i, (name, t) in enumerate(sorted(report.tables.items())):
        pieces += [",\n" if i else "\n", f'    {json.dumps(name)}: {{\n      "columns": ',
                   json.dumps(list(t.columns), indent=2).replace("\n", "\n      "),
                   ',\n      "rows": ', *_rows_to_json(t), "\n    }"]
    pieces.append("\n  }\n}\n" if report.tables else "}\n}\n")
    return "".join(pieces)


def emit(report: RunReport, format: str, destination=None) -> str:
    """Serialize ``report``; if ``destination`` is given, also write file(s).

    JSON writes one file.  CSV writes the first table at ``destination``
    and each further table at ``<stem>.<table_name>.csv``.  The primary
    serialized text is returned either way.  CSV of more than one table
    needs a ``destination``, else ``ValueError`` names the tables it would drop.
    """
    if format == "json":
        text = _report_to_json(report)
        if destination is not None:
            Path(destination).write_text(text, encoding="utf-8", newline="")
        return text
    if format != "csv":
        raise ValueError(f"unknown output format {format!r}")

    tables = list(report.tables.values()) or [Table("empty", (), ())]
    if destination is None and len(tables) > 1:
        raise ValueError(f"CSV with no destination drops tables {[t.name for t in tables[1:]]}")
    primary = _table_to_csv(tables[0])
    if destination is not None:
        dest = Path(destination)
        dest.write_text(primary, encoding="utf-8", newline="")
        for extra in tables[1:]:
            sibling = dest.with_name(f"{dest.stem}.{extra.name}{dest.suffix or '.csv'}")
            sibling.write_text(_table_to_csv(extra), encoding="utf-8", newline="")
    return primary
