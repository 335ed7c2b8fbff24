"""Typed, immutable snapshots of a data repository.

A snapshot is a directory of one CSV file per entity (RFC 4180 quoting,
comma-delimited, UTF-8, header row matching the schema's column order).
An unquoted empty field (or the token ``\\N``) reads as Null; a quoted empty
field reads as empty text, which is why loading uses its own quote-aware
reader instead of the stdlib csv module. Loading reads each file once, in
fixed-size chunks: it hashes the bytes it parses, for the snapshot
fingerprint, and turns each chunk's complete records into columns a block at
a time. A block without quotes is split once, as one text, with a sentinel
field between records that shows whether each holds the schema's number of
fields. A column whose keys are all in its cache of parsed values maps
through the cache in one pass; a text column maps a block without quotes
that brings new keys in one more pass, which also adds them to the cache,
as such keys are their own values. Every other block, and every other
column, takes the record-by-record and parse-what-is-new path, which also
reports errors. Entities keep columns column-major and are never mutated
after load, so concurrent readers need no locks.
"""

from __future__ import annotations

import codecs
import hashlib
import os
import re
from datetime import datetime
from functools import partial
from itertools import chain, repeat
from pathlib import Path

from . import canonical
from .errors import LoadError, ParseError, UnknownColumn
from .host import Record, plain_name, write_atomic
from .values import DATATYPES, format_cell, parse_cell

_NULL_TOKEN = "\\N"


class ColumnSchema(Record):
    name: str
    datatype: str
    nullable: bool = False


class EntitySchema(Record):
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


class SchemaCatalog(Record):
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
        if not plain_name(name):
            raise ParseError(f"entity name {name!r} is not a plain file name "
                             "(no '/', '\\', NUL, '.' or '..')", context=f"{ctx}.name")
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
        if not isinstance(key, list) or not all(isinstance(kc, str) for kc in key):
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
    """One loaded table: column-major cells, ordinals 0..n-1 in file order.

    An entity given `n_rows` and no columns holds only its size: one whose
    rows were loaded and evaluated in row ranges by other processes."""

    __slots__ = ("name", "schema", "n_rows", "_columns")

    def __init__(self, schema: EntitySchema, columns: dict[str, list],
                 n_rows: int | None = None):
        self.name = schema.name
        self.schema = schema
        self._columns = columns
        if n_rows is None:
            n_rows = len(next(iter(columns.values()))) if columns else 0
        self.n_rows = n_rows

    def column(self, name: str) -> list:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(f"{self.name} has no column {name!r}") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Entity) and self.schema == other.schema
                and self.n_rows == other.n_rows and self._columns == other._columns)

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

# Bytes read per step. The loader holds one chunk's text and its records at a
# time besides the columns it builds and their caches.
_CHUNK_BYTES = 1 << 16

# A column caches the values of at most this many distinct field texts.
_DEDUP_CAP = 65536

# A quoted "" or \N is text, unlike the same characters unquoted, which read
# as Null: the splitter gives such a field this key instead of its text.
_QUOTED_NULLS = {"": ("",), _NULL_TOKEN: (_NULL_TOKEN,)}
_NULLS = frozenset(_QUOTED_NULLS)


def _field_text(key) -> str:
    return key[0] if key.__class__ is tuple else key


def _decoded(file, digest, stop=None):
    """The file's text from its position to byte `stop`, or to its end, one
    chunk at a time, after feeding each chunk's bytes to `digest`, if any.
    Raises UnicodeDecodeError where the bytes stop being UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    if stop is None:
        read = partial(file.read, _CHUNK_BYTES)
    else:
        def read():
            return file.read(min(_CHUNK_BYTES, stop - file.tell()))
    for chunk in iter(read, b""):
        if digest is not None:
            digest.update(chunk)
        yield decoder.decode(chunk)
    yield decoder.decode(b"", final=True)


def _record_blocks(texts):
    """Yield the CSV records each text completes, as one list per text, and
    whether any of them may hold a quote character.

    RFC 4180: a newline ends a record iff an even number of quote characters
    precede it in the record, so odd parity means the newline is inside
    quotes. The unfinished record and its parity carry over to the next text.
    Records end in "\\n" or "\\r\\n"; a bare "\\r" separates nothing. A final
    newline ends the last record; an interior empty line is a record, and so
    is an empty file.
    """
    parts: list[str] = []  # the unfinished record
    odd = 0
    empty = True
    for text in texts:
        lines = text.split("\n")
        if not (odd or '"' in text):  # every newline ends a record
            parts.append(lines[0])
            if len(lines) == 1:
                continue
            lines[0] = "".join(parts)
            parts = [lines.pop()]
            records = lines
            quoted = '"' in records[0]
        else:
            quoted = True
            records = []
            for line in lines[:-1]:
                parts.append(line)
                odd ^= line.count('"') & 1
                if odd:
                    parts.append("\n")
                else:
                    records.append("".join(parts))
                    parts = []
            parts.append(lines[-1])
            odd ^= lines[-1].count('"') & 1
        if records:
            empty = False
            # only the first record can hold text of an earlier chunk
            if "\r" in text or records[0].endswith("\r"):
                records = [r[:-1] if r.endswith("\r") else r for r in records]
            yield records, quoted
    if odd:
        raise LoadError("unterminated quoted field at end of file")
    last = "".join(parts)
    if last or empty:
        yield [last[:-1] if last.endswith("\r") else last], '"' in last


def _split(record: str) -> list:
    """The field keys of one record: each field's text, except that a quoted
    "" or \\N gives its `_QUOTED_NULLS` key."""
    if '"' not in record:
        return record.split(",")
    fields: list = []
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
            text = "".join(parts)
            fields.append(_QUOTED_NULLS.get(text, text))
            i = k + 1
            if i < n and record[i] != ",":
                raise LoadError("unexpected text after closing quote")
            if i >= n:
                return fields
            i += 1
        else:
            k = record.find(",", i)
            if k < 0:
                fields.append(record[i:])
                return fields
            fields.append(record[i:k])
            i = k + 1


def _split_block(records: list[str], quoted: bool, n_cols: int, first_row: int):
    """The records' field keys as n_cols columns, up to the first record that
    does not split into n_cols fields; and that record's LoadError, or None.
    The records are rows first_row, first_row + 1, ...

    A block without quotes is split once, as one text, with a "\n" field
    between records: no such record holds a "\n", so these fields are the
    separators. Every record holds n_cols fields iff the block splits into
    R * (n_cols + 1) - 1 fields and every (n_cols + 1)-th field from n_cols
    is a separator; column j is then every (n_cols + 1)-th field from j. The
    total alone would pass a record one field short next to one a field
    long. Every other block is split a record at a time and transposed, so
    that it fails at the record, and with the message, that the reference
    loader gives.
    """
    if not records:
        return [()] * n_cols, None
    if not quoted:
        width = n_cols + 1
        fields = ",\n,".join(records).split(",")
        if (len(fields) == len(records) * width - 1
                and fields[n_cols::width].count("\n") == len(records) - 1):
            return [fields[j::width] for j in range(n_cols)], None
    rows = []
    try:
        for record in records:
            rows.append(_split(record))
    except LoadError as exc:
        error = exc
    else:
        error = None
    if set(map(len, rows)) - {n_cols}:
        for i, fields in enumerate(rows):
            if len(fields) != n_cols:
                return list(zip(*rows[:i])), LoadError(
                    f"expected {n_cols} fields, found {len(fields)}",
                    row=first_row + i)
    return list(zip(*rows)), error


def _parse_keys(keys: set, spec: ColumnSchema) -> tuple[dict, dict]:
    """key → value for the keys that parse in this column, and key → error
    message for those that do not."""
    nulls = keys.intersection(_NULLS)  # nullable columns cache these
    errors = dict.fromkeys(nulls, "null in non-nullable column")
    keys -= nulls
    if spec.datatype == "text":
        values = dict(zip(keys, keys))
        for key in _QUOTED_NULLS.values():
            if key in values:
                values[key] = key[0]
        return values, errors
    values = {}
    for key in keys:
        try:
            values[key] = parse_cell(_field_text(key), spec.datatype)
        except ValueError as exc:
            errors[key] = str(exc)
    return values, errors


def _add_rows(cols: list, first_row: int, specs, caches: list[dict],
              columns: list[list], quoted: bool) -> None:
    """Append one block of field keys, given as columns, to the columns.
    Only a quoted block, one that may hold quote characters, can hold the
    keys of quoted nulls.

    A cache holds only keys that parsed (and a nullable column's nulls), so
    a column whose keys are all cached maps through it in one pass. At the
    first key it lacks, the column drops what that pass appended; a
    column's first block skips that pass, as its cache holds no more than
    the nulls. A text key of a block without quotes is its own value, so a
    text column then maps such a block in a second pass that adds its new
    keys to its cache, while the cache cannot pass _DEDUP_CAP; a null in a
    non-nullable column shows as a null key in the cache after it. On a
    block whose keys are all cached, that pass costs more than the lookup.
    Any other column parses only the keys its cache has not seen, once
    each. A block whose new keys would take the cache past _DEDUP_CAP maps
    through a dict of its own keys instead. The first cell that fails, in
    row order, raises its LoadError.
    """
    failure = None  # (row, column index, message) of the first failing cell
    for j, keys in enumerate(cols):
        cache = caches[j]
        column = columns[j]
        size = len(column)
        if size:
            try:
                column.extend(map(cache.__getitem__, keys))
                continue
            except KeyError:
                del column[size:]
        if (not quoted and specs[j].datatype == "text"
                and len(cache) + len(keys) <= _DEDUP_CAP):
            column.extend(map(cache.setdefault, keys, keys))
            if specs[j].nullable or not ("" in cache or _NULL_TOKEN in cache):
                continue
            # a null where none may be: the block fails, at the row found below
            cache.pop("", None)
            cache.pop(_NULL_TOKEN, None)
        distinct = set(keys)
        values, errors = _parse_keys(distinct.difference(cache), specs[j])
        if errors:
            row = next(i for i, key in enumerate(keys) if key in errors)
            if failure is None or row < failure[0]:
                failure = (row, j, errors[keys[row]])
            continue
        if failure is not None:
            continue
        if len(cache) + len(values) <= _DEDUP_CAP:
            cache.update(values)
            values = cache
        else:
            for key in distinct.difference(values):
                values[key] = cache[key]
        column.extend(map(values.__getitem__, keys))
    if failure is not None:
        row, j, message = failure
        raise LoadError(message, row=first_row + row, column=specs[j].name)


def _stat(file) -> tuple[int, int, int]:
    st = os.fstat(file.fileno())
    return st.st_size, st.st_mtime_ns, st.st_ino


def _check_unchanged(file, before: tuple[int, int, int], path: Path,
                     stop: int | None = None) -> None:
    """Refuse a file whose size, mtime or inode moved while it was read, or
    that was not read up to `stop`, or to its size."""
    if _stat(file) != before or file.tell() != (before[0] if stop is None else stop):
        raise LoadError(f"snapshot file {path} changed while it was read")


def _load(path: Path, schema: EntitySchema, start: int = 0,
          stop: int | None = None, digest=None) -> tuple[Entity, str | None]:
    """One snapshot file's Entity, from one pass over the file, which feeds
    the bytes it parses to `digest` if one is given, and then that digest's
    hex digest (else None). A file that changes during the pass is a
    LoadError.

    With `start` or `stop`, only the records in bytes [start, stop) load,
    the header only when start is 0: each must be 0, the file's size or an
    offset just after a newline that ends a record (_record_cuts). Rows and
    errors then count from the range's first record. Ranges load without a
    digest: the ranged path hashes each cut file whole (_file_digest)."""
    path = Path(path)
    specs = schema.columns
    columns: list[list] = [[] for _ in specs]
    caches = [dict.fromkeys(_NULLS) if c.nullable else {} for c in specs]
    n_rows = 0
    try:
        # binary: no newline translation, a "\r" inside quotes is kept
        with open(path, "rb") as file:
            before = _stat(file)
            file.seek(start)
            texts = _decoded(file, digest, stop)
            try:
                blocks = _record_blocks(texts)
                if not start:
                    records, quoted = next(blocks)  # the first record is the header
                    header = [_field_text(k) for k in _split(records[0])]
                    expected = schema.column_names()
                    if header != expected:
                        raise LoadError(f"header {header!r} does not match schema "
                                        f"columns {expected!r}", row=0)
                    blocks = chain([(records[1:], quoted)], blocks)
                for records, quoted in blocks:
                    cols, error = _split_block(records, quoted, len(specs), n_rows)
                    _add_rows(cols, n_rows, specs, caches, columns, quoted)
                    if error is not None:
                        raise error
                    n_rows += len(cols[0])
            except LoadError:
                for _ in texts:  # a file that is not UTF-8 says so first
                    pass
                _check_unchanged(file, before, path, stop)  # and one that changed
                raise
            _check_unchanged(file, before, path, stop)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise LoadError(f"{path} is not valid UTF-8") from None
    return (Entity(schema, dict(zip(schema.column_names(), columns))),
            None if digest is None else digest.hexdigest())


def load_entity(path: Path, schema: EntitySchema) -> Entity:
    """Load one snapshot file, coercing every cell to its declared datatype."""
    return _load(path, schema)[0]


def _record_cuts(path: Path, parts: int) -> tuple[tuple[int, int, int], list[int]]:
    """The file's (size, mtime, inode) and the offsets 0 = c0 < c1 < ... < ck
    = size, k <= parts, that cut it into k byte ranges of whole records.

    Each inner cut follows the first newline at or after i * size / parts
    that ends a record: by RFC 4180, as _record_blocks reads it, one with an
    even number of quote characters before it in the file. Quotes are
    counted a chunk at a time; the bytes after the last cut are not read. A
    cut that would leave the last range empty is not made."""
    with open(path, "rb") as file:
        before = _stat(file)
        size = before[0]
        cuts = [0]
        pos = odd = 0  # odd: the parity of the quotes in the file before pos
        for i in range(1, parts):
            target = size * i // parts  # the search starts at pos if that is later
            while pos < target and (chunk := file.read(min(_CHUNK_BYTES,
                                                           target - pos))):
                odd ^= chunk.count(b'"') & 1
                pos += len(chunk)
            cut = None
            while cut is None:
                chunk = file.read(_CHUNK_BYTES)
                if not chunk:
                    return before, cuts + [size]
                at = 0
                while (end := chunk.find(b"\n", at)) >= 0:
                    odd ^= chunk.count(b'"', at, end) & 1
                    at = end + 1
                    if not odd:
                        cut = pos + at
                        break
                else:
                    odd ^= chunk.count(b'"', at) & 1
                    pos += len(chunk)
            if cut >= size:
                break
            cuts.append(cut)
            pos = cut
            file.seek(cut)
    return before, cuts + [size]


def _file_digest(path: Path, before: tuple[int, int, int]) -> str | None:
    """The file's sha256; None if it cannot be read or its size, mtime or
    inode is no longer `before` once it is."""
    try:
        digest = canonical.sha256_file(path)
        st = os.stat(path)
    except OSError:
        return None
    return digest if (st.st_size, st.st_mtime_ns, st.st_ino) == before else None


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
    write_atomic(path, serialize_entity(entity))


def serialize_entity(entity: Entity) -> str:
    specs = entity.schema.columns
    cols = [_column_fields(entity.column(c.name), c.datatype) for c in specs]
    return "\n".join([",".join(_encode_field(c.name, "text") for c in specs),
                      *map(",".join, zip(*cols)), ""])


# --------------------------------------------------------------------------
# Repository

class Repository(Record):
    catalog: SchemaCatalog
    entities: dict[str, Entity]
    fingerprint: str

    def record_key(self, entity: str, row: int) -> dict:
        """The key of one row: key column name → value, in schema order."""
        e = self.entities[entity]
        return {c: e.column(c)[row] for c in e.schema.key}


def load_snapshot(directory: Path, catalog: SchemaCatalog) -> Repository:
    """Load every catalog entity from `<entity>.csv` files in a directory.
    The fingerprint covers those files, as the bytes they were parsed from;
    other files in the directory do not count."""
    directory = Path(directory)
    if not directory.is_dir():
        raise LoadError(f"snapshot directory {directory} does not exist")
    entities: dict[str, Entity] = {}
    digests: dict[str, str] = {}
    for schema in catalog.entities:
        path = directory / f"{schema.name}.csv"
        if not path.is_file():
            raise LoadError(f"snapshot is missing {path.name}")
        entities[schema.name], digests[path.name] = _load(
            path, schema, digest=hashlib.sha256())
    return Repository(catalog, entities, canonical.fingerprint_digests(digests))

