"""Reference canonical JSON emitter: the recursive form dqeval.canonical replaced.

Kept verbatim as the specification of the canonical layout. The tests check
that dqeval.canonical.dumps writes the same bytes, and raises the same
exception types, as this one.
"""

from __future__ import annotations

import json
from datetime import datetime
from decimal import Decimal

from dqeval.values import format_timestamp


def _emit(obj, out: list[str], indent: str, level: int) -> None:
    pad = indent * level
    inner = indent * (level + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, Decimal):
        if not obj.is_finite():
            raise ValueError(f"non-finite decimal {obj} cannot be serialized")
        out.append(str(obj))
    elif isinstance(obj, float):
        # floats are never produced by the pipeline; refuse silently lossy output
        raise TypeError("float values are not allowed in canonical documents")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, datetime):
        out.append(json.dumps(format_timestamp(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(inner)
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize to canonical JSON text (trailing newline included)."""
    out: list[str] = []
    _emit(obj, out, " " * indent, 0)
    out.append("\n")
    return "".join(out)
