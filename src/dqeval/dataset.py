"""Typed, immutable snapshots of a data repository.

A snapshot is a directory of one CSV file per entity (RFC 4180 quoting,
comma-delimited, UTF-8, header row matching the schema's column order).
An unquoted empty field (or the token ``\\N``) reads as Null; a quoted empty
field reads as empty text, which is why loading uses its own quote-aware
reader instead of the stdlib csv module. Entities keep columns column-major
and are never mutated after load, so concurrent readers need no locks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from pathlib import Path

from . import canonical
from .errors import LoadError, ParseError, UnknownColumn
from .values import DATATYPES, format_cell, parse_cell

_NULL_TOKEN = "\\N"


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    datatype: str
    nullable: bool = False


@dataclass(frozen=True)
class EntitySchema:
    name: str
    columns: tuple[ColumnSchema, ...]
    key: tuple[str, ...] = ()

    def column(self, name: str) -> ColumnSchema | None:
        for c in self.columns:
            if c.name == name:
                return c
        return None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass(frozen=True)
class SchemaCatalog:
    entities: tuple[EntitySchema, ...]

    def get(self, name: str) -> EntitySchema | None:
        for e in self.entities:
            if e.name == name:
                return e
        return None


def load_catalog(document: str) -> SchemaCatalog:
    """Parse a schema catalog JSON document."""
    data = canonical.load_document(document)
    if not isinstance(data, dict) or not isinstance(data.get("entities"), list):
        raise ParseError("schema catalog must be an object with an 'entities' array")

    entities = []
    seen: set[str] = set()
    for i, raw in enumerate(data["entities"]):
        ctx = f"entities[{i}]"
        if not isinstance(raw, dict):
            raise ParseError("entity entries must be objects", context=ctx)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError("entity name must be non-empty text", context=f"{ctx}.name")
        if name in seen:
            raise ParseError(f"duplicate entity name {name!r}", context=f"{ctx}.name")
        seen.add(name)

        raw_cols = raw.get("columns")
        if not isinstance(raw_cols, list):
            raise ParseError("entity columns must be an array", context=f"{ctx}.columns")
        columns = []
        col_names: set[str] = set()
        for j, rc in enumerate(raw_cols):
            cctx = f"{ctx}.columns[{j}]"
            if not isinstance(rc, dict) or not isinstance(rc.get("name"), str):
                raise ParseError("column entries must be objects with a name", context=cctx)
            cname = rc["name"]
            if cname in col_names:
                raise ParseError(f"duplicate column name {cname!r}", context=cctx)
            col_names.add(cname)
            dtype = rc.get("datatype")
            if dtype not in DATATYPES:
                raise ParseError(f"unknown datatype {dtype!r}; expected one of "
                                 + ", ".join(DATATYPES), context=cctx)
            nullable = rc.get("nullable", False)
            if not isinstance(nullable, bool):
                raise ParseError("nullable must be a boolean", context=cctx)
            columns.append(ColumnSchema(cname, dtype, nullable))

        key = raw.get("key", [])
        if not isinstance(key, list):
            raise ParseError("key must be an array of column names", context=f"{ctx}.key")
        for kc in key:
            if kc not in col_names:
                raise ParseError(f"key column {kc!r} does not exist",
                                 context=f"{ctx}.key")
        entities.append(EntitySchema(name, tuple(columns), tuple(key)))
    return SchemaCatalog(tuple(entities))


def serialize_catalog(catalog: SchemaCatalog) -> str:
    doc = {"entities": [
        {
            "name": e.name,
            "columns": [{"name": c.name, "datatype": c.datatype, "nullable": c.nullable}
                        for c in e.columns],
            "key": list(e.key),
        }
        for e in catalog.entities
    ]}
    return canonical.dumps(doc)


# --------------------------------------------------------------------------
# Entities

class Entity:
    """One loaded table: column-major cells, ordinals 0..n-1 in file order."""

    __slots__ = ("name", "schema", "n_rows", "_columns")

    def __init__(self, schema: EntitySchema, columns: dict[str, list]):
        self.name = schema.name
        self.schema = schema
        self._columns = columns
        self.n_rows = len(next(iter(columns.values()))) if columns else 0

    def column(self, name: str) -> list:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(f"{self.name} has no column {name!r}") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Entity) and self.schema == other.schema
                and self._columns == other._columns)

    def __repr__(self) -> str:
        return f"Entity({self.name!r}, rows={self.n_rows})"


class RowView:
    """Mapping-style view of one row, used by expression evaluation."""

    __slots__ = ("_entity", "_ordinal")

    def __init__(self, entity: Entity, ordinal: int):
        self._entity = entity
        self._ordinal = ordinal

    def __getitem__(self, column: str):
        return self._entity.column(column)[self._ordinal]


# --------------------------------------------------------------------------
# Snapshot reading

def _records(text: str):
    """Yield raw CSV records, merging physical lines inside quoted fields.

    RFC 4180: a record is complete iff it contains an even number of quote
    characters, so odd cumulative parity means the newline was inside quotes.
    A final newline ends the last record; an interior empty line is a record.
    Records end in "\n" or "\r\n"; a bare "\r" separates nothing.
    """
    lines = text.split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()
    buf: list[str] = []
    parity = 0
    for line in lines:
        parity += line.count('"')
        buf.append(line)
        if parity % 2 == 0:
            record = "\n".join(buf)
            if record.endswith("\r"):
                record = record[:-1]
            yield record
            buf = []
            parity = 0
    if buf and any(buf):
        raise LoadError("unterminated quoted field at end of file")


def _split_record(record: str) -> list[tuple[str, bool]]:
    """Split one record into (field_text, was_quoted) pairs."""
    if '"' not in record:
        return [(f, False) for f in record.split(",")]
    fields: list[tuple[str, bool]] = []
    i, n = 0, len(record)
    while True:
        if i < n and record[i] == '"':
            # quoted field: scan for the closing quote, honoring "" escapes
            j = i + 1
            parts: list[str] = []
            while True:
                k = record.find('"', j)
                if k < 0:
                    raise LoadError("unterminated quoted field")
                if k + 1 < n and record[k + 1] == '"':
                    parts.append(record[j:k + 1])
                    j = k + 2
                else:
                    parts.append(record[j:k])
                    break
            fields.append(("".join(parts), True))
            i = k + 1
            if i < n and record[i] != ",":
                raise LoadError("unexpected text after closing quote")
            if i >= n:
                return fields
            i += 1
        else:
            k = record.find(",", i)
            if k < 0:
                fields.append((record[i:], False))
                return fields
            fields.append((record[i:k], False))
            i = k + 1


_DEDUP_CAP = 65536


def load_entity(path: Path, schema: EntitySchema) -> Entity:
    """Load one snapshot file, coercing every cell to its declared datatype."""
    path = Path(path)
    try:
        # no newline translation: a "\r" inside quotes is part of the value
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise LoadError(f"{path} is not valid UTF-8") from None

    records = _records(text)
    try:
        header = [f for f, _ in _split_record(next(records))]
    except StopIteration:
        raise LoadError(f"{path} is empty (missing header row)") from None
    expected = schema.column_names()
    if header != expected:
        raise LoadError(f"header {header!r} does not match schema columns {expected!r}",
                        row=0)

    columns: dict[str, list] = {c.name: [] for c in schema.columns}
    specs = list(schema.columns)
    appenders = [columns[c.name].append for c in specs]
    # dictionary dedup: repeated field texts share one parsed value object
    # (big memory win on categorical columns; also skips re-parsing).
    # High-cardinality columns stop caching once the cap is hit.
    caches: list[dict | None] = [{} for _ in specs]
    n_cols = len(specs)
    ordinal = 0
    for record in records:
        fields = _split_record(record)
        if len(fields) != n_cols:
            raise LoadError(f"expected {n_cols} fields, found {len(fields)}", row=ordinal)
        for idx in range(n_cols):
            text_value, quoted = fields[idx]
            spec = specs[idx]
            if not quoted and (text_value == "" or text_value == _NULL_TOKEN):
                if not spec.nullable:
                    raise LoadError(f"null in non-nullable column",
                                    row=ordinal, column=spec.name)
                appenders[idx](None)
                continue
            cache = caches[idx]
            if cache is not None:
                cached = cache.get(text_value)
                if cached is not None:
                    appenders[idx](cached)
                    continue
            if spec.datatype == "text":
                value = text_value
            else:
                try:
                    value = parse_cell(text_value, spec.datatype)
                except ValueError as exc:
                    raise LoadError(str(exc), row=ordinal,
                                    column=spec.name) from None
            if cache is not None:
                if len(cache) < _DEDUP_CAP:
                    cache[text_value] = value
                else:
                    caches[idx] = None
            appenders[idx](value)
        ordinal += 1
    return Entity(schema, columns)


# --------------------------------------------------------------------------
# Snapshot writing (canonical form)

_NEEDS_QUOTES = re.compile('[,"\n\r]')

# Types whose equal values always encode alike, so that a column holding only
# one of them (and nulls) can be encoded once per distinct value. Not Decimal:
# Decimal("1.0") == Decimal("1.00") encode differently. Not a mix of types:
# 1 == True encode differently in an integer column.
_ENCODE_ONCE_TYPES = frozenset({str, int, bool, datetime})


def _encode_field(value, datatype: str) -> str:
    if value is None:
        return ""
    text = format_cell(value, datatype)
    if datatype == "text":
        if text == "" or text == _NULL_TOKEN or _NEEDS_QUOTES.search(text):
            return '"' + text.replace('"', '""') + '"'
    return text


def _column_fields(values: list, datatype: str):
    """An iterator over the fields of one column, each distinct value encoded
    once. Lazy, so that the writer holds no encoded copy of the columns."""
    types = set(map(type, values))
    types.discard(type(None))
    if len(types) == 1 and types <= _ENCODE_ONCE_TYPES:
        distinct = set(values)
        if len(distinct) < len(values):  # all distinct (serial keys): no memo
            encoded = {v: _encode_field(v, datatype) for v in distinct}
            return map(encoded.__getitem__, values)
    return map(_encode_field, values, repeat(datatype))


def write_entity(entity: Entity, path: Path) -> None:
    """Write the canonical snapshot form (the one load_entity round-trips)."""
    Path(path).write_text(serialize_entity(entity), encoding="utf-8")


def serialize_entity(entity: Entity) -> str:
    specs = entity.schema.columns
    cols = [_column_fields(entity.column(c.name), c.datatype) for c in specs]
    return "\n".join([",".join(c.name for c in specs),
                      *map(",".join, zip(*cols)), ""])


# --------------------------------------------------------------------------
# Repository

@dataclass(frozen=True)
class Repository:
    catalog: SchemaCatalog
    entities: dict[str, Entity]
    fingerprint: str

    def record_key(self, entity: str, row: int) -> dict:
        """The key of one row: key column name → value, in schema order."""
        e = self.entities[entity]
        return {c: e.column(c)[row] for c in e.schema.key}


def load_snapshot(directory: Path, catalog: SchemaCatalog) -> Repository:
    """Load every catalog entity from `<entity>.csv` files in a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise LoadError(f"snapshot directory {directory} does not exist")
    entities: dict[str, Entity] = {}
    for schema in catalog.entities:
        path = directory / f"{schema.name}.csv"
        if not path.is_file():
            raise LoadError(f"snapshot is missing {path.name}")
        entities[schema.name] = load_entity(path, schema)
    return Repository(catalog, entities, canonical.snapshot_fingerprint(directory))

