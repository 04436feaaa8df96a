import random

import pytest

from expvar.data import (DataError, Dataset, EmptyDataError, ExperimentRecord,
                         ModelSpec, RowError, SchemaError, cross_factor,
                         ensure_factor, load_csv, write_csv)

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
    assert ds.records[0].metric == 0.61


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
    assert sorted(r.metric for r in shuffled.records) == \
        sorted(r.metric for r in original.records)


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
    assert load_csv(out) == ds


def test_record_validation():
    with pytest.raises(DataError):
        ExperimentRecord(model="", optimizer="o", seed="s", hparams="h",
                         rerun="r", metric=0.5)
    with pytest.raises(DataError):
        ExperimentRecord(model="m", optimizer="o", seed="s", hparams="h",
                         rerun="r", metric=float("inf"))


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataError):
        Dataset(records=())


def test_cross_factor_all_pairs_observed():
    records = []
    for m in ("a", "b", "c"):
        for o in ("adam", "sgd"):
            records.append(ExperimentRecord(model=m, optimizer=o, seed="s",
                                            hparams="h", rerun=f"{m}{o}",
                                            metric=0.5))
    ds = cross_factor(Dataset(records=tuple(records)), "model", "optimizer")
    assert len(ds.levels("model:optimizer")) == 6


def test_cross_factor_single_record():
    ds = Dataset(records=(ExperimentRecord(model="m", optimizer="o", seed="s",
                                           hparams="h", rerun="r", metric=0.1),))
    assert cross_factor(ds, "model", "optimizer").levels("model:optimizer") == ("m:o",)


def test_cross_factor_unobserved_pair_absent():
    records = (
        ExperimentRecord(model="m1", optimizer="adam", seed="s", hparams="h",
                         rerun="r1", metric=0.1),
        ExperimentRecord(model="m2", optimizer="sgd", seed="s", hparams="h",
                         rerun="r2", metric=0.2),
        ExperimentRecord(model="m2", optimizer="adam", seed="s", hparams="h",
                         rerun="r3", metric=0.3),
    )
    ds = cross_factor(Dataset(records=records), "model", "optimizer")
    levels = ds.levels("model:optimizer")
    assert "m1:sgd" not in levels
    assert levels == ("m1:adam", "m2:adam", "m2:sgd")


def test_cross_factor_unknown_name():
    ds = Dataset(records=(ExperimentRecord(model="m", optimizer="o", seed="s",
                                           hparams="h", rerun="r", metric=0.1),))
    with pytest.raises(DataError, match="unknown factor"):
        cross_factor(ds, "model", "nope")


def test_ensure_factor_three_way():
    records = tuple(
        ExperimentRecord(model="m", optimizer=o, seed="s", hparams="h",
                         rerun=r, metric=0.1)
        for o in ("adam", "sgd") for r in ("r1", "r2"))
    ds = ensure_factor(Dataset(records=records), "model:optimizer:rerun")
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
    records = [
        ExperimentRecord(model=f"m{i % 3}", optimizer="o", seed=f"s{i % 4}",
                         hparams=f"h{i % 5}", rerun=f"r{i}", metric=i / 10.0)
        for i in range(20)
    ]
    ds1 = Dataset(records=tuple(records))
    rng.shuffle(records)
    ds2 = Dataset(records=tuple(records))
    for name in ds1.factor_names:
        assert ds1.levels(name) == ds2.levels(name)
    assert ds1.n == ds2.n
