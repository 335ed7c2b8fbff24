"""Reference snapshot writer and loader: the cell-by-cell forms
dqeval.dataset replaced.

Kept verbatim as the specification of the canonical CSV form and of how a
snapshot file loads. The tests check that dqeval.dataset.serialize_entity
writes the same text as this writer, and that dqeval.dataset.load_entity
gives the same Entity, or the same LoadError, as this loader.
"""

from __future__ import annotations

from pathlib import Path

from dqeval.dataset import Entity, EntitySchema
from dqeval.errors import LoadError
from dqeval.values import format_cell, parse_cell

_NULL_TOKEN = "\\N"


def _encode_field(value, datatype: str) -> str:
    if value is None:
        return ""
    text = format_cell(value, datatype)
    if datatype == "text":
        if text == "" or text == _NULL_TOKEN or any(ch in text for ch in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
    return text


def serialize_entity(entity: Entity) -> str:
    specs = entity.schema.columns
    cols = [entity.column(c.name) for c in specs]
    lines = [",".join(_encode_field(c.name, "text") for c in specs)]
    for i in range(entity.n_rows):
        lines.append(",".join(_encode_field(col[i], spec.datatype)
                              for col, spec in zip(cols, specs)))
    lines.append("")
    return "\n".join(lines)


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
