from __future__ import annotations

import hashlib
import json
import tempfile
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dataset_reference
from conftest import PERSON_CSV, PERSON_SCHEMA, WARNING_CSV, growing_reader
from dqeval import canonical, dataset
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


@pytest.mark.parametrize("key", [[["id"]], [{"name": "id"}], [1]])
def test_key_entries_must_be_column_names(key):
    doc = {"entities": [{"name": "e", "columns": [
        {"name": "id", "datatype": "text"}], "key": key}]}
    with pytest.raises(ParseError, match="key must be an array of column names") as exc:
        load_catalog(json.dumps(doc))
    assert exc.value.context == "entities[0].key"


@pytest.mark.parametrize("name", ["../outside", "a/b", "/abs", "a\\b", "a\0b",
                                  ".", ".."])
def test_entity_name_must_be_a_plain_file_name(name):
    doc = {"entities": [{"name": name, "columns": [
        {"name": "c", "datatype": "text"}]}]}
    with pytest.raises(ParseError, match="is not a plain file name") as exc:
        load_catalog(json.dumps(doc))
    assert exc.value.context == "entities[0].name"


def test_entity_name_may_hold_dots():
    doc = {"entities": [{"name": n, "columns": [{"name": "c", "datatype": "text"}]}
                        for n in ("a.b", "...", ".hidden")]}
    assert [e.name for e in load_catalog(json.dumps(doc)).entities] == \
        ["a.b", "...", ".hidden"]


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


@pytest.mark.parametrize("text, ids, ns", [
    ("id,n\r\nx,1\r\ny,\r\n", ["x", "y"], [1, None]),
    ("id,n\r\n", [], []),
    ("id,n\nx,1\ny,2", ["x", "y"], [1, 2]),
    ("id,n\r\nx,1\r\ny,2", ["x", "y"], [1, 2]),
    ("id,n", [], []),
    ('id,n\n"a\r\nb",3\r\n', ["a\r\nb"], [3]),  # "\r" in quotes is kept
])
def test_line_endings_and_final_newline(tmp_path: Path, text, ids, ns):
    schema = _schema(("id", "text"), ("n", "integer", True))
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    entity = load_entity(path, schema)
    assert (entity.column("id"), entity.column("n")) == (ids, ns)


@pytest.mark.parametrize("value", ["a\rb", "a\r\nb", "a\nb", "\r", "a\r",
                                   "\ra", "\r\n\r"])
def test_carriage_returns_in_text_roundtrip(tmp_path: Path, value):
    schema = _schema(("t", "text"), ("n", "integer", True))
    entity = Entity(schema, {"t": [value, "x"], "n": [1, None]})
    path = tmp_path / "t.csv"
    write_entity(entity, path)
    assert load_entity(path, schema) == entity


def test_bare_carriage_return_is_not_a_record_separator(tmp_path: Path):
    schema = _schema(("id", "text"), ("n", "integer", True))
    path = tmp_path / "t.csv"
    path.write_bytes(b"id,n\rx,1\ry,2\r")
    with pytest.raises(LoadError, match="header"):
        load_entity(path, schema)


def test_only_the_final_newline_is_dropped(tmp_path: Path):
    schema = _schema(("id", "text", True),)
    path = tmp_path / "t.csv"
    path.write_text("id\n\nx\n\n")
    assert load_entity(path, schema).column("id") == [None, "x", None]


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


@pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00",
                                  "9999-12-31T23:59:59-01:00"])
def test_timestamp_outside_utc_range_names_row_and_column(tmp_path: Path, text):
    schema = _schema(("n", "integer"), ("t", "timestamp"))
    path = tmp_path / "t.csv"
    path.write_text(f"n,t\nx,2024-01-01T00:00:00Z\n1,{text}\n")
    with pytest.raises(LoadError) as exc:
        load_entity(path, schema)
    assert (exc.value.message, exc.value.row, exc.value.column) == (
        "invalid integer 'x'", 0, "n")
    path.write_text(f"n,t\n1,2024-01-01T00:00:00Z\n1,{text}\n")
    with pytest.raises(LoadError) as exc:
        load_entity(path, schema)
    assert (exc.value.message, exc.value.row, exc.value.column) == (
        f"timestamp {text!r} is out of range", 1, "t")


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


def test_fingerprint_covers_catalog_files_only(tmp_path: Path, person_catalog):
    snap = tmp_path / "snap"
    snap.mkdir()
    (snap / "person.csv").write_text(PERSON_CSV)
    (snap / "warning.csv").write_text(WARNING_CSV)
    fingerprint = load_snapshot(snap, person_catalog).fingerprint
    assert fingerprint == canonical.snapshot_fingerprint(snap)
    (snap / "stray.csv").write_text("x\n1\n")
    assert load_snapshot(snap, person_catalog).fingerprint == fingerprint
    assert canonical.snapshot_fingerprint(snap) != fingerprint
    (snap / "warning.csv").write_text(WARNING_CSV + "w6,HR,1234\n")
    assert load_snapshot(snap, person_catalog).fingerprint != fingerprint


# --------------------------------------------------------------------------
# round-trip properties

_text_cells = st.one_of(st.none(), st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "Zs")),
    max_size=12))
_int_cells = st.one_of(st.none(), st.integers(-10**9, 10**9))
# up to the loader's 12 places: str() would write some of these as 1E-7
_decimal_cells = st.one_of(st.none(), st.builds(
    Decimal.scaleb, st.integers(-10**6, 10**6).map(Decimal), st.integers(-12, 0)))
_bool_cells = st.one_of(st.none(), st.booleans())
_ts_cells = st.one_of(st.none(), st.integers(0, 10**9).map(
    lambda s: datetime.fromtimestamp(s, tz=timezone.utc)))


@example([(None, None, Decimal("1E-7"), None, None),
          (None, None, Decimal("-0E-12"), None, None),
          (None, None, Decimal("1E+2"), None, None)])
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


@example(["a,b", 'say "hi"', "x\ny", "a\rb", "\\N", "id"])
@given(st.lists(st.text(alphabet='ab,"\n\r\\N é', min_size=1, max_size=6),
                min_size=1, max_size=6, unique=True))
def test_header_names_that_need_quotes_roundtrip(names):
    """Column names are written as text cells are: quoted where a comma,
    quote, CR, LF or the null token would otherwise change the header."""
    import tempfile
    schema = _schema(*((name, "text", True) for name in names))
    entity = Entity(schema, {name: ["v", None] for name in names})
    text = serialize_entity(entity)
    assert text == dataset_reference.serialize_entity(entity)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        write_entity(entity, path)
        assert load_entity(path, schema) == entity


def test_single_nullable_column_null_rows_roundtrip(tmp_path: Path):
    schema = _schema(("t", "text", True))
    entity = Entity(schema, {"t": [None, "x", None]})
    path = tmp_path / "t.csv"
    write_entity(entity, path)
    assert load_entity(path, schema) == entity


# --------------------------------------------------------------------------
# the column-at-a-time writer against the cell-by-cell reference

_PLUS0530 = timezone(timedelta(hours=5, minutes=30))
_INSTANT = datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
# per datatype, a few values that repeat (so the per-value memo is used),
# including ones equal but built differently, plus arbitrary ones
_WRITER_CELLS = {
    "text": st.sampled_from(["", "\\N", "a,b", 'say "hi"', "x\ny", "a\rb",
                             "a\r\nb", "N", "plain"])
    | st.text(alphabet='ab,"\n\r\\N é', max_size=6),
    "integer": st.integers(-2, 2) | st.integers(),
    "decimal": st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("1.00"),
                                Decimal("-0"), Decimal("0.000"), Decimal("1E+2")])
    | st.integers(-10**6, 10**6).map(lambda n: Decimal(n) / 100),
    "boolean": st.booleans(),
    "timestamp": st.sampled_from([_INSTANT, _INSTANT.astimezone(_PLUS0530),
                                  _INSTANT.replace(microsecond=5)])
    | st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1),
                   timezones=st.sampled_from([timezone.utc, _PLUS0530])),
}


@st.composite
def _writer_entities(draw) -> Entity:
    n = draw(st.integers(0, 12))
    cols = {dtype: draw(st.lists(st.none() | cells, min_size=n, max_size=n))
            for dtype, cells in _WRITER_CELLS.items()}
    # all-distinct columns, as serial keys are
    cols["key"] = [f"K{i:03d}" for i in range(n)]
    cols["serial"] = list(range(n))
    schema = _schema(*((dtype, dtype, True) for dtype in _WRITER_CELLS),
                     ("key", "text"), ("serial", "integer"))
    return Entity(schema, cols)


@given(_writer_entities())
def test_serialize_entity_matches_cell_by_cell_reference(entity):
    assert serialize_entity(entity) == dataset_reference.serialize_entity(entity)


@pytest.mark.parametrize("datatype, values", [
    ("integer", [1, True, 1, True, 0, False, 0]),  # equal, encoded apart
    ("decimal", [Decimal("1.0"), 1, Decimal("1.00"), 1, Decimal("1.0")]),
])
def test_mixed_types_in_one_column_match_reference(datatype, values):
    entity = Entity(_schema(("c", datatype)), {"c": values})
    assert serialize_entity(entity) == dataset_reference.serialize_entity(entity)


# --------------------------------------------------------------------------
# the streamed loader against the whole-file reference

_WIDE = _schema(("t", "text", True), ("u", "text"), ("n", "integer", True),
                ("b", "boolean"))
_NARROW = _schema(("t", "text", True))

# unquoted: \\N, a bare \\r, a stray quote, multi-byte characters
_unquoted = st.sampled_from(["", "\\N", "x", "é€", "日本", "😀", "a\rb", "\r",
                             'x"y']) | st.text(alphabet="a1\r\\Né€", max_size=4)
# quoted: "" escapes, separators, newlines and CRLF inside, empty, \N
_quoted = st.lists(st.sampled_from(
    ["a", "1", ",", '"', "\n", "\r\n", "\r", "é", "€", "\\N", "true"]),
    max_size=4).map(lambda parts: '"' + "".join(parts).replace('"', '""') + '"')
_text_fields = _unquoted | _quoted
# per datatype, fields that mostly parse; nulls and bad cells now and then
_FIELDS = {
    "text": _text_fields,
    "integer": st.sampled_from(["1", "-7", "", "\\N", '"12"', '""', "abc"]),
    "boolean": st.sampled_from(["true", "false", '"true"', "false", "",
                                "yes"]),
}


@st.composite
def _csv_files(draw) -> tuple[EntitySchema, bytes]:
    """A schema and the bytes of a file for it: mostly well-formed, with
    every quoting and line-ending form, and sometimes a wrong header, a
    wrong field count, an unparseable cell, a null where none is allowed,
    an unterminated quote or bytes that are not UTF-8."""
    schema = draw(st.sampled_from([_WIDE, _NARROW]))
    names = schema.column_names()
    header = draw(st.sampled_from([",".join(names)] * 4 + [
        ",".join(f'"{n}"' for n in names), "t,n", ""]))
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:  # any number of any fields
            fields = draw(st.lists(_text_fields, min_size=1, max_size=5))
        elif kind == 1:  # an unterminated quote
            fields = ['"' + draw(_unquoted)] * len(names)
        else:
            fields = [draw(_FIELDS[c.datatype]) for c in schema.columns]
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    mixed = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                          min_size=len(lines), max_size=len(lines)))
    ends = draw(st.sampled_from([[newline] * len(lines), mixed]))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final newline
    data = text.encode("utf-8")
    damage = draw(st.integers(0, 11))
    if damage == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    elif damage == 1:  # ends inside a multi-byte character
        data += "€".encode("utf-8")[:2]
    return schema, data


def _outcome(load, path: Path, schema: EntitySchema):
    """The loaded columns, each value as its repr (so that 1 and True, or
    Decimal 1.0 and 1.00, differ), or the LoadError's parts."""
    try:
        entity = load(path, schema)
    except LoadError as exc:
        return "LoadError", exc.message, exc.row, exc.column
    return entity.n_rows, {name: list(map(repr, entity.column(name)))
                           for name in schema.column_names()}


@settings(max_examples=300, deadline=None)
@given(_csv_files(), st.sampled_from([2, 3, 65536]))
@example((_WIDE, b't,u,n,b\nx,y,1,true,9\n\xff'), 65536)  # UTF-8 reported first
@example((_WIDE, 't,u,n,b\n"é\r\n",x,,false\r\n'.encode()), 65536)
@example((_NARROW, b"t\n\n\r\n\"\"\n\\N\n\"\\N\""), 65536)
@example((_WIDE, b't,u,n,b\nx,"open,1,true\n'), 65536)
@example((_NARROW, b""), 65536)
@example((_schema(("", "text")), b""), 65536)  # the empty file's header is [""]
# a record one field short, then one a field long: right only as a block total
@example((_WIDE, b"t,u,n,b\nx,y,1\nx,y,1,true,9\n"), 65536)
# cached keys, then in a later block a bad integer and a null where none may be
@example((_WIDE, b"t,u,n,b\nx,y,1,true\nx,y,1,true\nx,y,abc,true\nx,,1,true\n"), 65536)
# blocks of nulls only, which the pre-seeded keys map, next to a new key
@example((_NARROW, b"t\n\n\\N\n\n\\N\nx\n\\N\n\n"), 65536)
# a null in the non-nullable text column u once its cache is warm, alone
# or before a bad integer in a later row
@example((_WIDE, b"t,u,n,b\nx,y,1,true\nx,z,1,true\nx,y,1,true\nx,\\N,1,true\n"), 65536)
@example((_WIDE, b"t,u,n,b\nx,y,1,true\nx,z,1,true\nx,,1,true\nx,y,abc,true\n"), 65536)
# quoted "" and \N: text in both the nullable t and the non-nullable u
@example((_WIDE, b't,u,n,b\n"","\\N",,true\n"\\N","",1,false\n,x,,true\n'), 65536)
@example((_WIDE, b't,u,n,b\n"","\\N",,true\n"\\N","",1,false\n,x,,true\n'), 3)
# the last record a field long, where the separators alone look right
@example((_WIDE, b"t,u,n,b\nx,y,1,true\nx,y,1,true,9\n"), 65536)
# an empty record next to one with twice the fields; next to one with three,
# the block's total is right, and only the separators' places show it
@example((_schema(("a", "text"), ("b", "text")), b"a,b\nx,y\n\nx,y,z,w\n"), 65536)
@example((_schema(("a", "text"), ("b", "text")), b"a,b\nx,y\n\nx,y,z\n"), 65536)
def test_streamed_load_matches_reference_at_every_chunk_size(file, cap):
    """Every chunk size from 1 byte to past the file's end splits multi-byte
    characters, quoted fields and CRLF pairs somewhere, and puts a record in a
    block of its own or in one with its neighbours, so that blocks take both
    the one-split and the record-by-record path, and columns map both through
    a warm cache and past it. The dedup cap patched low sends columns through
    the per-block dict."""
    schema, data = file
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        path.write_bytes(data)
        expected = _outcome(dataset_reference.load_entity, path, schema)
        with mock.patch.object(dataset, "_DEDUP_CAP", cap), \
                mock.patch.object(dataset_reference, "_DEDUP_CAP", cap):
            for size in range(1, len(data) + 2):
                with mock.patch.object(dataset, "_CHUNK_BYTES", size):
                    assert _outcome(load_entity, path, schema) == expected, size
        if expected[0] != "LoadError":
            assert dataset._load(path, schema)[1] == hashlib.sha256(data).hexdigest()


def test_dedup_cap_bounds_a_columns_cache(tmp_path: Path):
    """Past the cap, a column's values still come out equal, and its cache
    stops growing."""
    schema = _schema(("n", "integer"))
    path = tmp_path / "t.csv"
    path.write_text("n\n" + "".join(f"{i % 7}\n" for i in range(40)))
    caches = []
    real = dataset._add_rows
    with mock.patch.object(dataset, "_DEDUP_CAP", 4), \
            mock.patch.object(dataset, "_CHUNK_BYTES", 6), \
            mock.patch.object(dataset, "_add_rows",
                              lambda *a: (caches.append(a[3]), real(*a))[1]):
        entity = load_entity(path, schema)
    assert entity.column("n") == [i % 7 for i in range(40)]
    assert max(len(c) for c in caches[-1]) <= 4


def test_dedup_cap_bounds_a_text_columns_cache(tmp_path: Path):
    """The same for text columns, which add their new keys to their caches
    in the pass that maps them: no cache ever holds more than the cap."""
    schema = _schema(("s", "text"), ("t", "text", True))
    path = tmp_path / "t.csv"
    path.write_text("s,t\n" + "".join(f"v{i % 7},{i % 3 or ''}\n" for i in range(40)))
    sizes = []
    real = dataset._add_rows

    def add_rows(*args):
        real(*args)
        sizes.append(max(map(len, args[3])))  # the largest cache after the block

    with mock.patch.object(dataset, "_DEDUP_CAP", 4), \
            mock.patch.object(dataset, "_CHUNK_BYTES", 6), \
            mock.patch.object(dataset, "_add_rows", add_rows):
        entity = load_entity(path, schema)
    assert entity.column("s") == [f"v{i % 7}" for i in range(40)]
    assert entity.column("t") == [str(i % 3) if i % 3 else None for i in range(40)]
    assert len(sizes) > 7 and max(sizes) <= 4


@pytest.mark.parametrize("text, message, row, column", [
    ('n,d\n"12\n",1.5\n7,2.25\n', "invalid integer '12\\n'", 0, "n"),
    ('n,d\n12,1.5\n7,"2.25\n"\n', "invalid decimal '2.25\\n'", 1, "d"),
    ('n,d\n12,1.5\n" 7",2.25\n', "invalid integer ' 7'", 1, "n"),
], ids=["integer-newline", "decimal-newline", "integer-space"])
def test_number_cells_match_whole(tmp_path: Path, text, message, row, column):
    """An integer or decimal field must match its grammar whole: a final
    newline inside quotes is not dropped."""
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(LoadError) as exc:
        load_entity(path, _schema(("n", "integer"), ("d", "decimal")))
    assert (exc.value.message, exc.value.row, exc.value.column) == (message, row, column)


@pytest.mark.parametrize("extra", [b"40\n", b"40,"], ids=["record", "bad-record"])
def test_file_that_grows_while_loading_is_refused(tmp_path: Path, extra: bytes):
    """Bytes appended between chunks are read too, so the size read and the
    size at the end differ from the size at open. A bad record among them is
    reported as the change, not as a parse error."""
    schema = _schema(("n", "integer"))
    path = tmp_path / "t.csv"
    path.write_text("n\n" + "".join(f"{i}\n" for i in range(40)))
    with mock.patch.object(dataset, "_CHUNK_BYTES", 16), \
            mock.patch.object(dataset, "_decoded", growing_reader(extra)):
        with pytest.raises(LoadError) as exc:
            load_entity(path, schema)
    assert str(exc.value) == f"snapshot file {path} changed while it was read"
