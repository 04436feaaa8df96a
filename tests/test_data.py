import csv
import math
import random

import numpy as np
import pytest

from expvar.data import (FACTOR_COLUMNS, DataError, Dataset, EmptyDataError,
                         ModelSpec, RowError, SchemaError, cross_factor,
                         ensure_factor, load_csv, write_csv)

from conftest import dataset_from_rows

CSV_4ROWS = """model,optimizer,seed,hparams,rerun,accuracy
protonet,adam,s1,h1,r1,0.61
protonet,sgd,s1,h2,r1,0.55
m-net,adam,s2,h1,r1,0.47
m-net,sgd,s2,h2,r1,0.52
"""


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    ds = load_csv(_write(tmp_path, CSV_4ROWS))
    assert ds.n == 4
    assert ds.levels("model") == ("m-net", "protonet")
    assert ds.levels("optimizer") == ("adam", "sgd")
    assert ds.levels("seed") == ("s1", "s2")
    assert ds.response()[0] == 0.61


def test_load_csv_shuffled_rows_same_levels(tmp_path):
    lines = CSV_4ROWS.strip().split("\n")
    header, rows = lines[0], lines[1:]
    rng = random.Random(3)
    rng.shuffle(rows)
    shuffled = load_csv(_write(tmp_path, "\n".join([header] + rows) + "\n", "s.csv"))
    original = load_csv(_write(tmp_path, CSV_4ROWS))
    for name in original.factor_names:
        assert shuffled.levels(name) == original.levels(name)
    assert shuffled.n == original.n
    assert sorted(shuffled.response()) == sorted(original.response())


def test_load_csv_nan_metric_names_row(tmp_path):
    bad = CSV_4ROWS.replace("m-net,adam,s2,h1,r1,0.47", "m-net,adam,s2,h1,r1,NaN")
    with pytest.raises(RowError, match="row 3"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_missing_metric_is_error(tmp_path):
    bad = CSV_4ROWS.replace("m-net,adam,s2,h1,r1,0.47", "m-net,adam,s2,h1,r1,")
    with pytest.raises(RowError, match="row 3"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_missing_column_named(tmp_path):
    text = CSV_4ROWS.replace("rerun,", "").replace(",r1,", ",")
    with pytest.raises(SchemaError, match="rerun"):
        load_csv(_write(tmp_path, text))


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(EmptyDataError):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(EmptyDataError):
        load_csv(_write(tmp_path, CSV_4ROWS.split("\n")[0] + "\n"))


def test_load_csv_nonexistent_path(tmp_path):
    with pytest.raises(DataError, match="missing.csv"):
        load_csv(tmp_path / "missing.csv")


def test_load_csv_column_mapping(tmp_path):
    text = CSV_4ROWS.replace("model,", "arch,")
    ds = load_csv(_write(tmp_path, text), columns={"model": "arch"})
    assert ds.levels("model") == ("m-net", "protonet")


def test_round_trip(tmp_path):
    ds = load_csv(_write(tmp_path, CSV_4ROWS))
    out = tmp_path / "out.csv"
    write_csv(ds, out)
    back = load_csv(out)
    assert back.factor_names == ds.factor_names
    for name in ds.factor_names:
        assert back.levels(name) == ds.levels(name)
        assert np.array_equal(back.level_codes(name), ds.level_codes(name))
    assert back.response().tobytes() == ds.response().tobytes()


def _labels(n=2, **overrides):
    labels = {name: [name[0]] * n for name in FACTOR_COLUMNS}
    labels.update(overrides)
    return labels


def test_record_validation():
    # the column constructor validates every column at once
    with pytest.raises(DataError, match="label 'model' must be a non-empty string"):
        Dataset.from_labels(_labels(model=["m", ""]), [0.5, 0.6])
    with pytest.raises(DataError, match="label 'seed' must be a non-empty string"):
        Dataset.from_labels(_labels(seed=["s", 3]), [0.5, 0.6])
    with pytest.raises(RowError, match="row 2: metric must be finite, got inf"):
        Dataset.from_labels(_labels(), [0.5, float("inf")])
    with pytest.raises(DataError, match="need labels for exactly"):
        Dataset.from_labels({"model": ["m"]}, [0.5])
    with pytest.raises(DataError, match="codes for"):
        Dataset.from_labels(_labels(n=3), [0.5, 0.6])
    ds = Dataset.from_labels(_labels(seed=["s2", "s1"]), [0.5, 0.6])
    assert ds.levels("seed") == ("s1", "s2")
    assert ds.level_codes("seed").tolist() == [1, 0]
    with pytest.raises(ValueError, match="read-only"):
        ds.response()[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.level_codes("seed")[0] = 0


@pytest.mark.parametrize("name, levels, codes, message", [
    ("seed", ("s1", "s2"), [0, 2], "codes must be integers in 0..1"),
    ("seed", ("s1", "s2"), [-1, 0], "codes must be integers in 0..1"),
    ("seed", ("s1", "s2"), [0.0, 1.0], "codes must be integers in 0..1"),
    ("seed", ("s2", "s1"), [0, 1], "levels must be sorted and distinct"),
    ("seed", ("s1", "s1"), [0, 1], "levels must be sorted and distinct"),
    ("seed", ("", "s1"), [0, 1], "levels must be non-empty strings"),
    ("seed", ("s1", 2), [0, 1], "levels must be non-empty strings"),
])
def test_direct_constructor_checks_levels_and_codes(name, levels, codes, message):
    factors = dict(Dataset.from_labels(_labels(), [0.5, 0.6]).factors)
    factors[name] = (levels, codes)
    with pytest.raises(DataError, match=f"factor {name!r} {message}"):
        Dataset(factors=factors, y=[0.5, 0.6])


def test_factors_mapping_is_read_only():
    ds = Dataset.from_labels(_labels(), [0.5, 0.6])
    with pytest.raises(TypeError):
        ds.factors["extra"] = (("a",), np.zeros(2, dtype=np.intp))
    assert "extra" not in ds.factor_names


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataError):
        Dataset.from_labels(_labels(n=0), [])


def test_take_gathers_every_column():
    ds = ensure_factor(dataset_from_rows(
        (f"m{i % 3}", "o", f"s{i % 2}", "h", f"r{i}", i / 10.0) for i in range(6)),
        "model:seed")
    perm = [5, 0, 3, 1, 4, 2]
    taken = ds.take(perm)
    for name in ds.factor_names:
        assert taken.levels(name) == ds.levels(name)
        assert taken.level_codes(name).tolist() == ds.level_codes(name)[perm].tolist()
    assert taken.response().tolist() == [ds.response()[i] for i in perm]
    with pytest.raises(DataError, match="permutation"):
        ds.take([0, 0, 1, 2, 3, 4])


def test_cross_factor_all_pairs_observed():
    ds = cross_factor(dataset_from_rows((m, o, "s", "h", f"{m}{o}", 0.5)
                                        for m in ("a", "b", "c")
                                        for o in ("adam", "sgd")),
                      "model", "optimizer")
    assert len(ds.levels("model:optimizer")) == 6


def test_cross_factor_single_record():
    ds = dataset_from_rows([("m", "o", "s", "h", "r", 0.1)])
    assert cross_factor(ds, "model", "optimizer").levels("model:optimizer") == ("m:o",)


def test_cross_factor_unobserved_pair_absent():
    ds = cross_factor(dataset_from_rows([("m1", "adam", "s", "h", "r1", 0.1),
                                         ("m2", "sgd", "s", "h", "r2", 0.2),
                                         ("m2", "adam", "s", "h", "r3", 0.3)]),
                      "model", "optimizer")
    levels = ds.levels("model:optimizer")
    assert "m1:sgd" not in levels
    assert levels == ("m1:adam", "m2:adam", "m2:sgd")
    assert ds.level_codes("model:optimizer").tolist() == [0, 2, 1]


def test_cross_factor_levels_sort_as_joined_strings():
    # "m-net:adam" < "m:adam" as strings although "m" < "m-net"
    ds = cross_factor(dataset_from_rows([("m", "adam", "s", "h", "r1", 0.1),
                                         ("m-net", "adam", "s", "h", "r2", 0.2),
                                         ("m", "sgd", "s", "h", "r3", 0.3)]),
                      "model", "optimizer")
    assert ds.levels("model:optimizer") == ("m-net:adam", "m:adam", "m:sgd")
    assert ds.level_codes("model:optimizer").tolist() == [1, 0, 2]


def test_cross_factor_refuses_colliding_labels():
    # ("a:b", "c") and ("a", "b:c") both join to "a:b:c"
    ds = dataset_from_rows([("a:b", "c", "s", "h", "r1", 0.1),
                            ("a", "b:c", "s", "h", "r2", 0.2)])
    with pytest.raises(DataError, match=r"\('a', 'b:c'\) and \('a:b', 'c'\).*'a:b:c'"):
        cross_factor(ds, "model", "optimizer")


def test_cross_factor_unknown_name():
    ds = dataset_from_rows([("m", "o", "s", "h", "r", 0.1)])
    with pytest.raises(DataError, match="unknown factor"):
        cross_factor(ds, "model", "nope")


def test_ensure_factor_three_way():
    ds = ensure_factor(dataset_from_rows(("m", o, "s", "h", r, 0.1)
                                         for o in ("adam", "sgd") for r in ("r1", "r2")),
                       "model:optimizer:rerun")
    assert len(ds.levels("model:optimizer:rerun")) == 4
    assert "model:optimizer" in ds.factor_names


def test_model_spec_validation():
    with pytest.raises(DataError):
        ModelSpec(random_factors=("seed", "seed"))
    with pytest.raises(DataError):
        ModelSpec(fixed_factor="seed", random_factors=("seed",))
    with pytest.raises(DataError):
        ModelSpec(contrast_coding="helmert")


def test_permutation_invariance_of_levels():
    rng = random.Random(9)
    rows = [(f"m{i % 3}", "o", f"s{i % 4}", f"h{i % 5}", f"r{i}", i / 10.0)
            for i in range(20)]
    ds1 = dataset_from_rows(rows)
    rng.shuffle(rows)
    ds2 = dataset_from_rows(rows)
    for name in ds1.factor_names:
        assert ds1.levels(name) == ds2.levels(name)
    assert ds1.n == ds2.n


# ---------------------------------------------------------------------------
# load_csv against a row-by-row csv.DictReader oracle
# ---------------------------------------------------------------------------


def _dictreader_oracle(path, response="accuracy", columns=None):
    """Labels and metrics read one csv.DictReader row at a time, or the error."""
    colmap = {name: name for name in FACTOR_COLUMNS}
    colmap.update(columns or {})
    labels = {name: [] for name in FACTOR_COLUMNS}
    metrics = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(csv.DictReader(fh), start=1):
            raw = row.get(response)
            if raw is None or raw.strip() == "":
                return f"row {i}: missing {response!r} value"
            try:
                metric = float(raw)
            except ValueError:
                return f"row {i}: non-numeric {response!r} value {raw!r}"
            if not math.isfinite(metric):
                return f"row {i}: non-finite {response!r} value {raw!r}"
            for name in FACTOR_COLUMNS:
                value = row[colmap[name]]
                if not isinstance(value, str) or value == "":
                    return (f"row {i}: label {name!r} must be a non-empty string, "
                            f"got {value!r}")
                labels[name].append(value)
            metrics.append(metric)
    return labels, metrics


HEADER = "model,optimizer,seed,hparams,rerun,accuracy\n"
GOOD_ROWS = ('m-net,adam,s1,h1,r1,0.61\n'
             '\n'
             'm,"sgd, momentum",s2,h2,r1, 0.55 \n'
             'protonet,adam,s10,h1,r2,1_0\n'
             '\n'
             'm-net,adam,s2,ü,r3,-2.5e-3,extra\n'
             'm,adam,s1,h2,r1,7\n'
             '\n')

PARITY_CASES = {
    "blank_lines_and_1_0": HEADER + GOOD_ROWS,
    "renamed_columns": HEADER.replace("model", "arch").replace("seed", "rng") + GOOD_ROWS,
    "short_row": HEADER + GOOD_ROWS + "m,adam,s1,h1,r9\n",
    "short_row_no_labels": HEADER + "m,adam,s1\n" + GOOD_ROWS,
    "short_label_before_metric": ("accuracy,model,optimizer,seed,hparams,rerun\n"
                                  "0.5,m,o,s,h,r\n0.7,m,o\n"),
    "empty_label": HEADER + GOOD_ROWS + "m,,s1,h1,r1,0.5\nm,adam,s1,h1,r1,\n",
    "empty_label_after_bad_metric": HEADER + "m,adam,s1,h1,r1,abc\nm,,s1,h1,r1,0.5\n",
    "bad_metric_and_label_same_row": HEADER + GOOD_ROWS + ",adam,s1,h1,r1,nan\n",
    "non_numeric": HEADER + GOOD_ROWS + "m,adam,s1,h1,r1,0.5.1\n",
    "whitespace_metric": HEADER + "m,adam,s1,h1,r1,   \n",
    "non_finite": HEADER + GOOD_ROWS + "m,adam,s1,h1,r1,1e999\nm,adam,s1,h1,r1,x\n",
    "nan": HEADER + "m,adam,s1,h1,r1,0.5\nm,adam,s1,h1,r1,NaN\n",
    "duplicate_header": ("model,optimizer,seed,hparams,rerun,accuracy,model\n"
                         "a,o,s,h,r,0.5,b\nc,o,s,h,r,0.6\n"),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_load_csv_matches_dictreader_oracle(tmp_path, case):
    path = _write(tmp_path, PARITY_CASES[case])
    columns = {"model": "arch", "seed": "rng"} if case == "renamed_columns" else None
    expected = _dictreader_oracle(path, columns=columns)
    if isinstance(expected, str):
        with pytest.raises(RowError) as info:
            load_csv(path, columns=columns)
        assert str(info.value) == expected
        return
    ds = load_csv(path, columns=columns)
    labels, metrics = expected
    assert ds.n == len(metrics)
    assert ds.response().tobytes() == np.array(metrics).tobytes()
    for name in FACTOR_COLUMNS:
        levels = tuple(sorted(set(labels[name])))
        assert ds.levels(name) == levels
        assert ds.level_codes(name).tolist() == [levels.index(v) for v in labels[name]]
