"""Report serialization: byte-stable JSON, RFC-4180 CSV."""
import csv
import io
import json
import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrav import report
from semigrav.report import RunReport, Table, _report_to_json, emit
from semigrav.scenarios import SCENARIO_NAMES, default_config, run_scenario, scan_scenario


def _by_name(*tables):
    """The ``RunReport.tables`` mapping of ``tables``, in their order."""
    return {table.name: table for table in tables}


def _sample_report():
    return RunReport(scenario="demo", seed=42, tables=_by_name(
        Table(
            "stress",
            ("scenario", "t", "x1", "mu", "nu", "value"),
            (["demo", "demo"], [0.5, 0.5], [1.25, 1.25], [0, 0], [0, 1], [0.1, -0.25]),
        ),
        Table("flags_extra", ("ok",), ([True, False],)),
    ), flags={"some_check": True})


def test_json_has_exactly_four_keys_and_is_sorted():
    text = emit(_sample_report(), "json")
    payload = json.loads(text)
    assert sorted(payload.keys()) == ["flags", "scenario", "seed", "tables"]
    assert payload["scenario"] == "demo"
    assert payload["seed"] == 42
    assert payload["flags"] == {"some_check": True}
    assert payload["tables"]["stress"]["columns"][0] == "scenario"
    assert text.endswith("\n")


def test_json_is_byte_stable_across_runs():
    assert emit(_sample_report(), "json") == emit(_sample_report(), "json")


def test_csv_format_crlf_and_cell_rendering(tmp_path):
    text = emit(_sample_report(), "csv", tmp_path / "out.csv")
    lines = text.split("\r\n")
    assert lines[0] == "scenario,t,x1,mu,nu,value"
    assert lines[1] == "demo,0.5,1.25,0,0,0.1"
    assert lines[2] == "demo,0.5,1.25,0,1,-0.25"
    assert lines[3] == ""
    # floats are rendered with repr: round-trip exact
    assert repr(1.25) in lines[1]


def test_csv_multi_table_writes_siblings(tmp_path):
    dest = tmp_path / "out.csv"
    emit(_sample_report(), "csv", dest)
    assert dest.exists()
    sibling = tmp_path / "out.flags_extra.csv"
    assert sibling.exists()
    body = sibling.read_bytes().decode()
    assert body == "ok\r\ntrue\r\nfalse\r\n"


def test_csv_without_a_destination_refuses_to_drop_tables():
    with pytest.raises(ValueError, match=r"drops tables \['flags_extra'\]$"):
        emit(_sample_report(), "csv")


def test_json_destination_written_verbatim(tmp_path):
    dest = tmp_path / "r.json"
    text = emit(_sample_report(), "json", dest)
    assert dest.read_bytes().decode() == text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit(_sample_report(), "yaml")


def test_table_width_validation():
    """Labels that do not match the columns one to one, or ragged columns."""
    cases = [("few", ("a", "b"), ([1.0],), r"2 labels over columns of lengths \[1\]"),
             ("many", ("a",), ([1.0], [2.0]), r"1 labels over columns of lengths \[1, 1\]"),
             ("ragged", ("a", "b"), ([1.0, 2.0], np.array([3.0])),
              r"2 labels over columns of lengths \[2, 1\]")]
    for name, labels, data, message in cases:
        with pytest.raises(ValueError, match=f"^table '{name}': {message}$"):
            Table(name, labels, data)


def test_report_passed_property():
    rep = RunReport(scenario="x", seed=0)
    assert rep.passed  # vacuously true
    rep.flags["a"] = True
    assert rep.passed
    rep.flags["b"] = False
    assert not rep.passed


def test_csv_quotes_cells_with_commas():
    rep = RunReport(scenario="x", seed=0, tables=_by_name(Table("t", ("label",), (["a,b"],))))
    text = emit(rep, "csv")
    assert text == 'label\r\n"a,b"\r\n'


def _edge_report():
    """Every cell kind json and csv treat specially, and every empty shape."""
    return RunReport(scenario='ed"ge\n', seed=-3, tables=_by_name(
        Table("values", ("a", "b\u00e9", "c"), (
            [math.nan, -0.0, False, 2 ** 70],
            [math.inf, 5e-324, 7, 1e300],
            [-math.inf, True, 'q"u,o\nt\u00f6\\', ""],
        )),
        Table("arrays", ("f", "i", "b"), (
            np.array([math.nan, -0.0, 1e300]),
            np.array([2 ** 62, -1, 0]),
            np.array([True, False, True]),
        )),
        Table("empty", ("x",), ([],)),
        Table("no_columns", (), ()),
        Table("A", ("x",), ([1.5],)),
    ), flags={"zz": True, "aa": False})


def _reports():
    """Every packaged scenario, both volume scans, the edge report, a bare one."""
    reports = [run_scenario(name) for name in SCENARIO_NAMES]
    box_1d = dict(default_config("minkowski_particle"), dimension=1, mode_label=[1])
    reports.append(scan_scenario("minkowski_particle", box_1d, "V", [10.0, 20.0, 40.0, 80.0]))
    reports.append(scan_scenario("eds_cosmology", None, "V0", [18.85, 188.5, 1885.0]))
    return reports + [_edge_report(), RunReport(scenario="bare", seed=0)]


def _json_oracle(rep):
    payload = {
        "scenario": rep.scenario,
        "seed": rep.seed,
        "tables": {name: {"columns": list(t.columns), "rows": [list(r) for r in t.rows]}
                   for name, t in rep.tables.items()},
        "flags": dict(rep.flags),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_json_equals_json_dumps_with_indent_2():
    for rep in _reports():
        assert _report_to_json(rep) == _json_oracle(rep)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_json_is_the_same_at_every_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(report, "_CHUNK", chunk)
    for rep in _reports():
        assert _report_to_json(rep) == _json_oracle(rep)


def _csv_oracle(table):
    """RFC-4180 by hand: repr floats, lower-case bools, quote only when needed."""
    def cell(v):
        text = ("true" if v else "false") if isinstance(v, bool) else (
            repr(v) if isinstance(v, float) else str(v))
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text
    return "".join(",".join(cell(v) for v in row) + "\r\n"
                   for row in [table.columns, *table.rows])


def _per_cell_csv(table):
    """The CSV as it was written one formatted cell at a time."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else str(v)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue()


def _csv_bytes(table):
    return emit(RunReport(scenario="s", seed=0, tables=_by_name(table)), "csv").encode()


_cells = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
          | st.integers() | st.booleans() | st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(0, 4), n_rows=st.integers(0, 5), data=st.data())
def test_csv_rows_through_the_c_writer_match_the_per_cell_path(width, n_rows, data):
    columns = tuple(data.draw(st.lists(_cells, min_size=n_rows, max_size=n_rows))
                    for _ in range(width))
    table = Table("t", tuple(f"c{i}" for i in range(width)), columns)
    assert _csv_bytes(table) == _per_cell_csv(table).encode()


def test_csv_rows_of_every_cell_kind_match_the_per_cell_path():
    for rep in _reports():
        for table in rep.tables.values():
            assert _csv_bytes(table) == _per_cell_csv(table).encode()


def test_csv_of_every_table_matches_a_hand_written_writer(tmp_path):
    for i, rep in enumerate(_reports()):
        dest = tmp_path / f"r{i}.csv"
        emit(rep, "csv", dest)
        tables = list(rep.tables.values()) or [Table("empty", (), ())]
        assert dest.read_bytes().decode() == _csv_oracle(tables[0])
        for extra in tables[1:]:
            sibling = dest.with_name(f"{dest.stem}.{extra.name}.csv")
            assert sibling.read_bytes().decode() == _csv_oracle(extra)


def test_every_cell_of_every_report_is_a_python_scalar():
    """A numpy scalar in a list column would make json raise and csv print
    ``True`` for ``true``: ``rows`` must hold Python scalars only."""
    for rep in _reports():
        for table in rep.tables.values():
            kinds = {type(cell) for row in table.rows for cell in row}
            assert kinds <= {float, int, str, bool}, (rep.scenario, table.name, kinds)


def test_a_rindler_report_retains_at_most_96_bytes_per_frequency():
    n = 50_000
    config = dict(default_config("rindler_unruh"), n_frequencies=n, freq_hi=50.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rindler = run_scenario("rindler_unruh", config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rindler.tables["spectrum"].data[0]) == n
    assert retained / n <= 96.0
