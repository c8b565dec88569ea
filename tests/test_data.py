"""CSV loading, schema sidecars and dataset immutability."""

import numpy as np
import pytest

from shaplab import CONTINUOUS, DISCRETE, DatasetError, TabularDataset


def test_construction_and_kind_inference():
    data = TabularDataset(["a", "b"], [[0, 1.5], [1, 2.5]])
    assert data.domain_kinds == (DISCRETE, CONTINUOUS)
    assert data.n_rows == 2 and data.n_features == 2
    assert not data.all_discrete
    assert data.continuous_features() == ("b",)


def test_rows_are_immutable():
    data = TabularDataset(["a"], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        data.rows[0, 0] = 9.0


def test_unique_names_and_shape_checks():
    with pytest.raises(DatasetError):
        TabularDataset(["a", "a"], [[1, 2]])
    with pytest.raises(DatasetError):
        TabularDataset(["a", "b"], [[1, 2, 3]])
    with pytest.raises(DatasetError):
        TabularDataset(["a"], np.empty((0, 1)))


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2\n0,0.5\n1,1.5\n")
    data = TabularDataset.from_csv(path)
    assert data.feature_names == ("x1", "x2")
    assert data.rows.tolist() == [[0.0, 0.5], [1.0, 1.5]]
    assert data.domain_kinds == (DISCRETE, CONTINUOUS)


def test_csv_schema_sidecar_autodetected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2\n0,1\n1,0\n")
    (tmp_path / "d.csv.schema.json").write_text('{"x2": "continuous"}')
    data = TabularDataset.from_csv(path)
    assert data.domain_kinds == (DISCRETE, CONTINUOUS)


def test_csv_schema_explicit_path(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1\n0\n1\n")
    schema = tmp_path / "kinds.json"
    schema.write_text('{"x1": "continuous"}')
    data = TabularDataset.from_csv(path, schema_path=schema)
    assert data.domain_kinds == (CONTINUOUS,)


def test_csv_schema_unknown_feature(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1\n0\n")
    schema = tmp_path / "kinds.json"
    schema.write_text('{"nope": "discrete"}')
    with pytest.raises(DatasetError):
        TabularDataset.from_csv(path, schema_path=schema)


@pytest.mark.parametrize(
    "content", [b'{"a": "discrete",', b'{"a": "caf\xe9"}', b'["a"]', b"[]"],
    ids=["not-json", "not-utf8", "list", "empty-list"],
)
def test_csv_schema_unreadable(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_text("a\n0\n1\n")
    schema = tmp_path / "d.csv.schema.json"
    schema.write_bytes(content)
    with pytest.raises(DatasetError, match="d.csv.schema.json"):
        TabularDataset.from_csv(path)


def test_csv_not_utf8(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a\n0\n\xff\n")
    with pytest.raises(DatasetError, match="not UTF-8"):
        TabularDataset.from_csv(path)

def test_csv_malformed_value(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1\nfoo\n")
    with pytest.raises(DatasetError):
        TabularDataset.from_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_value(tmp_path, value):
    path = tmp_path / "d.csv"
    path.write_text(f"x1,x2\n0,1\n{value},2\n")
    with pytest.raises(DatasetError, match=f"{path}:3: non-finite"):
        TabularDataset.from_csv(path)


def test_helpers():
    data = TabularDataset(["a", "b"], [[0, 2], [1, 4]])
    assert data.column("b").tolist() == [2.0, 4.0]
    assert data.means().tolist() == [0.5, 3.0]
    assert data.row(1).tolist() == [1.0, 4.0]
    assert (1.0, 4.0) in data.row_set()
    assert len(data) == 2
