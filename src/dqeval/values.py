"""Cell values and their text forms.

A cell is one of: None (Null), str (text), int, decimal.Decimal, bool, or a
timezone-aware datetime normalized to UTC. Decimals keep exact digits so
boundary comparisons in range rules never drift; naive timestamps are
rejected everywhere.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from decimal import Decimal

DATATYPES = ("text", "integer", "decimal", "boolean", "timestamp")

# matched whole: "$" would also match before a final newline
_INT_RE = re.compile(r"[+-]?[0-9]+")
# decimal point '.', no thousands separators, at most 12 fractional digits
DECIMAL_PLACES = 12
_DECIMAL_RE = re.compile(rf"[+-]?[0-9]+(\.[0-9]{{1,{DECIMAL_PLACES}}})?")


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp; reject naive ones; normalize to UTC."""
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        raise ValueError(f"invalid timestamp {text!r} (expected RFC 3339)") from None
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset; naive timestamps are rejected")
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # its UTC instant falls outside years 1..9999
        raise ValueError(f"timestamp {text!r} is out of range") from None


def format_timestamp(dt: datetime) -> str:
    """Canonical RFC 3339 form: UTC, 'Z' suffix, fractional part only if set."""
    dt = dt.astimezone(timezone.utc)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z"
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_integer(text: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_decimal(text: str) -> Decimal:
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"invalid decimal {text!r}")
    return Decimal(text)


def parse_boolean(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"invalid boolean {text!r} (expected 'true' or 'false')")


def parse_cell(text: str, datatype: str):
    """Coerce field text to the declared datatype (Null handled by caller)."""
    if datatype == "text":
        return text
    if datatype == "integer":
        return parse_integer(text)
    if datatype == "decimal":
        return parse_decimal(text)
    if datatype == "boolean":
        return parse_boolean(text)
    if datatype == "timestamp":
        return parse_timestamp(text)
    raise ValueError(f"unknown datatype {datatype!r}")


def format_cell(value, datatype: str) -> str:
    """Canonical field text for a non-null cell."""
    if datatype == "text":
        return value
    if datatype == "boolean":
        return "true" if value else "false"
    if datatype == "timestamp":
        return format_timestamp(value)
    if isinstance(value, Decimal):  # positional: str() may write 1E-7
        return format(value, "f")
    return str(value)


def value_type(value) -> str:
    """Datatype name of a non-null runtime value."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, Decimal):
        return "decimal"
    if isinstance(value, str):
        return "text"
    if isinstance(value, datetime):
        return "timestamp"
    raise TypeError(f"unsupported value {value!r}")


def coerce_literal(value, datatype: str):
    """Fit a parsed JSON literal (int/Decimal/str/bool/None) to a column datatype.

    Timestamp columns accept RFC 3339 strings; integer columns accept exact
    integral decimals. Raises ValueError when the literal cannot represent a
    value of the datatype.
    """
    if value is None:
        return None
    if datatype == "text":
        if isinstance(value, str):
            return value
    elif datatype == "integer":
        if isinstance(value, bool):
            raise ValueError(f"boolean literal {value!r} is not an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, Decimal) and value == value.to_integral_value():
            return int(value)
    elif datatype == "decimal":
        if isinstance(value, bool):
            raise ValueError(f"boolean literal {value!r} is not a decimal")
        if isinstance(value, int):
            return Decimal(value)
        if isinstance(value, Decimal):
            if value.as_tuple().exponent < -DECIMAL_PLACES:
                raise ValueError(f"decimal literal {value:f} has more than "
                                 f"{DECIMAL_PLACES} places after the point")
            return value
        if isinstance(value, str):
            return parse_decimal(value)
    elif datatype == "boolean":
        if isinstance(value, bool):
            return value
    elif datatype == "timestamp":
        if isinstance(value, datetime):
            return value
        if isinstance(value, str):
            return parse_timestamp(value)
    else:
        raise ValueError(f"unknown datatype {datatype!r}")
    raise ValueError(f"literal {value!r} does not fit datatype {datatype}")
