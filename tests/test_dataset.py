from __future__ import annotations

import json
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import PERSON_SCHEMA
from dqeval.dataset import (ColumnSchema, Entity, EntitySchema, load_catalog, load_entity, load_snapshot,
                            serialize_catalog, serialize_entity, write_entity)
from dqeval.errors import LoadError, ParseError


def _schema(*cols: tuple, key=()) -> EntitySchema:
    return EntitySchema("t", tuple(ColumnSchema(*c) for c in cols), tuple(key))


# --------------------------------------------------------------------------
# catalog

def test_catalog_with_fourteen_entities():
    doc = {"entities": [
        {"name": f"e{i}", "columns": [{"name": "c", "datatype": "text"}]}
        for i in range(14)]}
    catalog = load_catalog(json.dumps(doc))
    assert len(catalog.entities) == 14


def test_empty_catalog_is_valid():
    assert load_catalog('{"entities": []}').entities == ()


def test_key_must_reference_existing_column():
    doc = {"entities": [{"name": "e", "columns": [
        {"name": "id", "datatype": "text"}], "key": ["id2"]}]}
    with pytest.raises(ParseError, match="id2"):
        load_catalog(json.dumps(doc))


def test_duplicate_entity_rejected():
    doc = {"entities": [
        {"name": "e", "columns": [{"name": "c", "datatype": "text"}]},
        {"name": "e", "columns": [{"name": "c", "datatype": "text"}]}]}
    with pytest.raises(ParseError, match="duplicate entity"):
        load_catalog(json.dumps(doc))


def test_unknown_datatype_rejected():
    doc = {"entities": [{"name": "e", "columns": [
        {"name": "c", "datatype": "varchar"}]}]}
    with pytest.raises(ParseError, match="varchar"):
        load_catalog(json.dumps(doc))


def test_catalog_roundtrip():
    catalog = load_catalog(json.dumps(PERSON_SCHEMA))
    assert load_catalog(serialize_catalog(catalog)) == catalog


# --------------------------------------------------------------------------
# entity loading

def test_four_row_person_file(tmp_path: Path):
    schema = _schema(("id", "text"), ("ipaddress", "text"))
    path = tmp_path / "person.csv"
    path.write_text("id,ipaddress\n12345678A,1.2.3.4\n87654321Z,2.2.2.2\n"
                    "1234,3.3.3.3\n11111111B,4.4.4.4\n")
    entity = load_entity(path, schema)
    assert entity.n_rows == 4
    assert entity.column("id")[0] == "12345678A"


def test_header_only_file_gives_zero_rows(tmp_path: Path):
    schema = _schema(("id", "text"))
    path = tmp_path / "t.csv"
    path.write_text("id\n")
    assert load_entity(path, schema).n_rows == 0


def test_unparseable_integer_names_row_and_column(tmp_path: Path):
    schema = _schema(("n", "integer"))
    path = tmp_path / "t.csv"
    path.write_text("n\n1\nabc\n")
    with pytest.raises(LoadError) as exc:
        load_entity(path, schema)
    assert exc.value.row == 1 and exc.value.column == "n"


def test_null_in_non_nullable_rejected(tmp_path: Path):
    schema = _schema(("id", "text", False))
    path = tmp_path / "t.csv"
    path.write_text("id\n\n")
    with pytest.raises(LoadError, match="null"):
        load_entity(path, schema)


def test_header_mismatch_rejected(tmp_path: Path):
    schema = _schema(("a", "text"), ("b", "text"))
    path = tmp_path / "t.csv"
    path.write_text("b,a\nx,y\n")
    with pytest.raises(LoadError, match="header"):
        load_entity(path, schema)


def test_quoted_empty_is_text_unquoted_is_null(tmp_path: Path):
    schema = _schema(("a", "text", True), ("b", "text", True))
    path = tmp_path / "t.csv"
    path.write_text('a,b\n"",\n\\N,"x,y"\n')
    entity = load_entity(path, schema)
    assert entity.column("a") == ["", None]
    assert entity.column("b") == [None, "x,y"]


def test_embedded_newline_and_quote(tmp_path: Path):
    schema = _schema(("a", "text"),)
    path = tmp_path / "t.csv"
    path.write_text('a\n"line1\nline2"\n"say ""hi"""\n')
    entity = load_entity(path, schema)
    assert entity.column("a") == ["line1\nline2", 'say "hi"']


def test_typed_cells(tmp_path: Path):
    schema = _schema(("n", "integer"), ("d", "decimal"), ("b", "boolean"),
                     ("t", "timestamp"))
    path = tmp_path / "t.csv"
    path.write_text("n,d,b,t\n-5,10.50,true,2024-01-02T03:04:05+01:00\n")
    entity = load_entity(path, schema)
    assert entity.column("n") == [-5]
    assert entity.column("d") == [Decimal("10.50")]
    assert entity.column("b") == [True]
    assert entity.column("t") == [datetime(2024, 1, 2, 2, 4, 5, tzinfo=timezone.utc)]


def test_naive_timestamp_rejected(tmp_path: Path):
    schema = _schema(("t", "timestamp"),)
    path = tmp_path / "t.csv"
    path.write_text("t\n2024-01-02T03:04:05\n")
    with pytest.raises(LoadError, match="naive"):
        load_entity(path, schema)


def test_two_loads_compare_equal(tmp_path: Path):
    schema = _schema(("id", "text"),)
    path = tmp_path / "t.csv"
    path.write_text("id\nx\ny\n")
    assert load_entity(path, schema) == load_entity(path, schema)


def test_snapshot_requires_every_entity(tmp_path: Path, person_catalog):
    snap = tmp_path / "snap"
    snap.mkdir()
    (snap / "person.csv").write_text(
        "id,ipaddress,age,balance,active,updated\n")
    with pytest.raises(LoadError, match="warning.csv"):
        load_snapshot(snap, person_catalog)


# --------------------------------------------------------------------------
# round-trip properties

_text_cells = st.one_of(st.none(), st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "Zs")),
    max_size=12))
_int_cells = st.one_of(st.none(), st.integers(-10**9, 10**9))
_decimal_cells = st.one_of(st.none(), st.integers(-10**6, 10**6).map(
    lambda n: Decimal(n) / 100))
_bool_cells = st.one_of(st.none(), st.booleans())
_ts_cells = st.one_of(st.none(), st.integers(0, 10**9).map(
    lambda s: datetime.fromtimestamp(s, tz=timezone.utc)))


@given(st.lists(st.tuples(_text_cells, _int_cells, _decimal_cells, _bool_cells,
                          _ts_cells), max_size=30))
def test_write_load_roundtrip(rows):
    import tempfile
    schema = _schema(("t", "text", True), ("n", "integer", True),
                     ("d", "decimal", True), ("b", "boolean", True),
                     ("ts", "timestamp", True))
    columns = {name: [row[i] for row in rows]
               for i, name in enumerate(["t", "n", "d", "b", "ts"])}
    entity = Entity(schema, columns)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        write_entity(entity, path)
        loaded = load_entity(path, schema)
        text = path.read_text(encoding="utf-8")
    assert loaded == entity
    # loading the canonical form and re-serializing reproduces it byte for byte
    assert serialize_entity(loaded) == text


def test_single_nullable_column_null_rows_roundtrip(tmp_path: Path):
    schema = _schema(("t", "text", True))
    entity = Entity(schema, {"t": [None, "x", None]})
    path = tmp_path / "t.csv"
    write_entity(entity, path)
    assert load_entity(path, schema) == entity
