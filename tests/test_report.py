"""Report tables against per-group and per-cell oracles kept here."""

import csv
import io
import json

import numpy as np
import pytest

from expvar.inference import ContrastRow
from expvar.report import Table, boxplot_table, contrast_table

from conftest import dataset_from_rows

QUANTILES = [0.0, 0.25, 0.5, 0.75, 1.0]


def test_boxplot_matches_per_group_quantiles_bytewise():
    # groups of every size 1..7, rows shuffled so groups interleave
    rng = np.random.default_rng(5)
    rows = []
    for g in range(28):
        size = g % 7 + 1
        for i in range(size):
            rows.append((f"m{g % 2}", f"o{g % 3}", f"s{g}", f"h{g % 4}", f"r{i}",
                         float(rng.normal(0.5, 0.1))))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    table = boxplot_table(dataset_from_rows(rows))

    groups = {}
    for m, o, s, h, _, metric in rows:
        groups.setdefault((m, o, h, s), []).append(metric)
    expected = []
    for key in sorted(groups):
        q = np.quantile(np.asarray(groups[key]), QUANTILES, method="linear")
        expected.append(key + tuple(float(v) for v in q) + (len(groups[key]),))
    assert sorted({row[-1] for row in table.rows}) == list(range(1, 8))
    assert [row[:4] + (row[-1],) for row in table.rows] == \
        [row[:4] + (row[-1],) for row in expected]
    got = np.array([row[4:9] for row in table.rows])
    want = np.array([row[4:9] for row in expected])
    assert got.tobytes() == want.tobytes()


def _cell_oracle(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def _rows_oracle(table):
    header = list(table.columns)
    if table.row_labels is not None:
        header = [table.label_header] + header
    body = []
    for i, row in enumerate(table.rows):
        cells = [_cell_oracle(v) for v in row]
        if table.row_labels is not None:
            cells = [table.row_labels[i]] + cells
        body.append(cells)
    return header, body


def test_table_renderings_match_per_cell_oracle():
    rows = ((1.0 / 3.0, None, True, np.int64(7), "a,b", float("nan")),
            (np.float64(2.5e-9), 3, False, 12345678, "x", float("inf")),
            (1e21, 0.1, None, -1, "", -0.0))
    for labels in (None, ("first", "second row", "3")):
        table = Table(name="t", columns=("f", "mixed", "flag", "int", "s", "special"),
                      rows=rows, label_header="lab", row_labels=labels)
        header, body = _rows_oracle(table)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
        assert table.to_csv() == buf.getvalue()
        widths = [max(len(h), *(len(r[j]) for r in body)) for j, h in enumerate(header)]
        lines = ["  ".join(c.rjust(w) for c, w in zip(cells, widths))
                 for cells in [header] + body]
        assert table.to_text() == "\n".join(lines) + "\n"
        obj = json.loads(table.to_json())
        assert len(obj["rows"]) == 3 and obj["rows"][0]["special"] is None
    empty = Table(name="e", columns=("a", "b"), rows=())
    assert empty.to_csv() == "a,b\n"
    assert empty.to_text() == "a  b\n"


def _json_dumps(table: Table) -> str:
    return json.dumps(table.to_json_obj(), indent=2) + "\n"


@pytest.mark.parametrize("labels", [False, True])
def test_to_json_equals_json_dumps(labels):
    rows = ((None, 1.5, "plain", 1),
            (float("nan"), float("inf"), 'quote " and \\ backslash', np.int64(-3)),
            (True, -float("inf"), "non-ASCII \u00e9\u2603\n\t", False),
            (np.float64(0.1), np.float32(2.5), "", np.bool_(True)),
            (1e-320, -0.0, "%s {x}", 2 ** 70))
    names = ("None/NaN", "float", "text%s", "int")
    row_labels = ("a", "b \u00fc", "c\"", "d", "e") if labels else None
    for table in (Table("t", names, rows, row_labels=row_labels),
                  Table("t", names, (), row_labels=() if labels else None),
                  Table("t\u00e9", (), ((),) * 2, row_labels=row_labels and ("x", "y"))):
        assert table.to_json() == _json_dumps(table)


def test_to_json_falls_back_on_keys_json_merges_or_converts():
    for table in (Table("t", ("a", "a"), ((1, 2),)),
                  Table("t", ("label", "a"), ((1, 2),), row_labels=("x",)),
                  Table("t", ("a",), ((1,),), row_labels=(3,))):
        assert table.to_json() == _json_dumps(table)


def test_contrast_table_writes_each_rows_df():
    rows = [ContrastRow(label="a", estimate=0.1, std_error=0.02, df=114.0,
                        lower=0.06, upper=0.14, p_value=1e-5),
            ContrastRow(label="b", estimate=0.0, std_error=0.0, df=None,
                        lower=0.0, upper=0.0, p_value=1.0)]
    table = contrast_table(rows)
    assert table.columns == ("Estimate", "Std. Error", "df", "lower", "upper", "Pr(>|t|)")
    csv_rows = list(csv.reader(io.StringIO(table.to_csv())))
    assert csv_rows[1][3] == "114" and csv_rows[2][3] == ""
    assert [r["df"] for r in json.loads(table.to_json())["rows"]] == [114.0, None]
