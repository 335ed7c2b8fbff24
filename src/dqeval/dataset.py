"""Typed, immutable snapshots of a data repository.

A snapshot is a directory of one CSV file per entity (RFC 4180 quoting,
comma-delimited, UTF-8, header row matching the schema's column order).
An unquoted empty field (or the token ``\\N``) reads as Null; a quoted empty
field reads as empty text, which is why loading uses its own quote-aware
reader instead of the stdlib csv module. Entities keep columns column-major
and are never mutated after load, so concurrent readers need no locks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    try:
        data = canonical.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from None
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

    def key_values(self, ordinal: int) -> dict[str, object]:
        return {c: self._columns[c][ordinal] for c in self.schema.key}

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
    """
    buf: list[str] = []
    parity = 0
    for line in text.split("\n"):
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


_EOF = object()
_DEDUP_CAP = 65536


def _with_sentinel(it):
    yield from it
    yield _EOF


def load_entity(path: Path, schema: EntitySchema) -> Entity:
    """Load one snapshot file, coercing every cell to its declared datatype."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
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
    # one-record lookahead so only the trailing empty record (final newline)
    # is dropped; an interior empty line is a data row
    pending: str | None = None
    for record in _with_sentinel(records):
        record, pending = pending, record
        if record is None or (record == "" and pending is _EOF):
            continue
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

def _encode_field(value, datatype: str) -> str:
    if value is None:
        return ""
    text = format_cell(value, datatype)
    if datatype == "text":
        if text == "" or text == _NULL_TOKEN or any(ch in text for ch in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
    return text


def write_entity(entity: Entity, path: Path) -> None:
    """Write the canonical snapshot form (the one load_entity round-trips)."""
    Path(path).write_text(serialize_entity(entity), encoding="utf-8")


def serialize_entity(entity: Entity) -> str:
    specs = entity.schema.columns
    cols = [entity.column(c.name) for c in specs]
    lines = [",".join(c.name for c in specs)]
    for i in range(entity.n_rows):
        lines.append(",".join(_encode_field(col[i], spec.datatype)
                              for col, spec in zip(cols, specs)))
    lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Repository

@dataclass(frozen=True)
class Repository:
    catalog: SchemaCatalog
    entities: dict[str, Entity]
    fingerprint: str


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

