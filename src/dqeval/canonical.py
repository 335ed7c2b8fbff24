"""Canonical JSON emission and content fingerprints.

The stdlib encoder cannot serialize Decimal without precision loss, so this
module writes JSON itself: keys in insertion order (documents are built
deterministically), Decimals as plain number literals, timestamps in the
canonical RFC 3339 form. Identical inputs therefore produce byte-identical
documents.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from datetime import datetime
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .errors import ParseError
from .values import format_timestamp


# The C string encoder json.dumps(s, ensure_ascii=False) ends in, bound once:
# json.dumps builds a new JSONEncoder per call when ensure_ascii is False.
_encode_str = json.encoder.encode_basestring


class Raw(str):
    """JSON text written as it is: a value already laid out for the depth at
    which it is placed."""


@functools.lru_cache(maxsize=None)
def layout(level: int) -> tuple[str, str, str]:
    """(first lead, separator lead, closing pad) of a container at one depth."""
    inner = "\n" + "  " * (level + 1)
    return inner, "," + inner, "\n" + "  " * level


def _finite(value: Decimal) -> str:
    if not value.is_finite():
        raise ValueError(f"non-finite decimal {value} cannot be serialized")
    return str(value)


def _refuse_float(value):
    # floats are never produced by the pipeline; refuse silently lossy output
    raise TypeError("float values are not allowed in canonical documents")


def _container(value) -> None:
    """None: _emit writes the members of a dict, list or tuple."""


# Each value type's JSON text; None for a container. A value of a type not
# listed is written as its nearest listed base (see scalar).
_TEXT = {
    str: _encode_str, Raw: str, int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__, type(None): lambda _: "null",
    Decimal: _finite,
    datetime: lambda value: _encode_str(format_timestamp(value)),
    float: _refuse_float,
    dict: _container, list: _container, tuple: _container,
}


def scalar(obj) -> str | None:
    """The JSON text of a non-container value, or None for a dict, list or
    tuple: the table's entry for the first of its type's bases listed."""
    for base in type(obj).__mro__:
        if base in _TEXT:
            return _TEXT[base](obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj, out: list[str], level: int) -> None:
    """Append a dict, list or tuple; scalar members are written inline."""
    keyed = isinstance(obj, dict)
    if not obj:
        out.append("{}" if keyed else "[]")
        return
    append = out.append
    text_of = _TEXT.get
    lead, sep, close = layout(level)
    append("{" if keyed else "[")
    for item in (obj.items() if keyed else obj):
        if keyed:
            key, value = item
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            head = lead + _encode_str(key) + ": "
        else:
            value = item
            head = lead
        lead = sep
        t = type(value)  # most members are str: those skip the lookup
        text = _encode_str(value) if t is str else text_of(t, scalar)(value)
        if text is None:
            append(head)
            _emit(value, out, level + 1)
        else:
            append(head + text)
    append(close + ("}" if keyed else "]"))


def dumps(obj) -> str:
    """Serialize to canonical JSON text, two-space indented (trailing newline included)."""
    text = scalar(obj)
    if text is not None:
        return text + "\n"
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


_TOO_DEEP = "arrays and objects nest deeper than the decoder's recursion allows"


def loads(text: str):
    """Parse JSON keeping decimals exact (floats become Decimal). A number
    whose exponent is beyond Decimal's limits, arrays and objects nested
    too deeply to decode, or a key or string holding a lone UTF-16
    surrogate, are a ValueError, as malformed JSON is."""
    try:
        data = json.loads(text, parse_float=Decimal)
    except InvalidOperation:
        raise ValueError("a number's exponent is out of range") from None
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    _refuse_lone_surrogate(text, data, ValueError)
    return data


# The most digits a number in an input document or expression may have
# before, and after, its decimal point once written out in full. Rule
# literals become integers and positional expression text, which grow with
# the exponent.
MAX_NUMBER_DIGITS = 1000


def number_out_of_range(literal: str) -> ParseError:
    shown = literal if len(literal) <= 24 else literal[:20] + "..."
    return ParseError(f"number {shown} is out of range: at most "
                      f"{MAX_NUMBER_DIGITS} digits before and after the "
                      "decimal point")


def _document_int(literal: str) -> int:
    if len(literal.lstrip("-")) > MAX_NUMBER_DIGITS:
        raise number_out_of_range(literal)
    return int(literal)


def _document_decimal(literal: str) -> Decimal:
    if len(literal.lower().partition("e")[2].lstrip("+-0")) > 9:
        raise number_out_of_range(literal)  # beyond what Decimal's own limits allow
    value = Decimal(literal)
    if (value.as_tuple().exponent < -MAX_NUMBER_DIGITS
            or value.adjusted() >= MAX_NUMBER_DIGITS):
        raise number_out_of_range(literal)
    return value


# A UTF-16 surrogate, which UTF-8 cannot encode: in a str, always a lone one.
SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _lone_surrogate(data) -> re.Match | None:
    """A lone surrogate in the keys or strings of a decoded document, if any."""
    stack = [data]
    while stack:
        item = stack.pop()
        if type(item) is dict:
            stack += item
            stack += item.values()
        elif type(item) is list:
            stack += item
        elif type(item) is str and (found := SURROGATE.search(item)):
            return found
    return None


def _refuse_lone_surrogate(text: str, data, error: type[Exception]) -> None:
    """Raise error if a key or string of data, decoded from text, holds a
    lone surrogate. A surrogate in the text is in a string; the walk runs
    only where an escape may have decoded to one (an escaped pair decodes to
    one character)."""
    lone = (not text.isascii() and SURROGATE.search(text)
            or _SURROGATE_ESCAPE.search(text) and _lone_surrogate(data))
    if lone:
        raise error(f"a string holds the lone surrogate U+{ord(lone.group()):04X}, "
                    "which UTF-8 cannot encode")


def load_document(text: str):
    """`loads` for input documents: malformed JSON is a ParseError naming its
    line and column, a number too long to write out in full (see
    MAX_NUMBER_DIGITS) is one, and so is nesting too deep to decode, or a
    key or string holding a lone UTF-16 surrogate, which UTF-8 cannot encode."""
    try:
        data = json.loads(text, parse_int=_document_int,
                          parse_float=_document_decimal)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from None
    except RecursionError:
        raise ParseError(f"malformed JSON: {_TOO_DEEP}") from None
    _refuse_lone_surrogate(text, data, ParseError)
    return data


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint_digests(digests: dict[str, str]) -> str:
    """Content hash of a snapshot from its files' sha256 digests, keyed by
    file name: one `name:digest` line per file, in name order."""
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}:{digests[name]}\n".encode("utf-8"))
    return h.hexdigest()


def snapshot_fingerprint(directory: Path) -> str:
    """Content hash of every `*.csv` file in a snapshot directory. A loaded
    Repository's fingerprint covers its catalog files alone, and equals this
    one where those are the only CSV files."""
    directory = Path(directory)
    return fingerprint_digests({p.name: sha256_file(p) for p in directory.iterdir()
                                if p.suffix == ".csv"})
