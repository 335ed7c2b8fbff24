"""Reference snapshot writer: the cell-by-cell form dqeval.dataset replaced.

Kept verbatim as the specification of the canonical CSV form. The tests
check that dqeval.dataset.serialize_entity writes the same text as this one.
"""

from __future__ import annotations

from dqeval.dataset import Entity
from dqeval.values import format_cell

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
    lines = [",".join(c.name for c in specs)]
    for i in range(entity.n_rows):
        lines.append(",".join(_encode_field(col[i], spec.datatype)
                              for col, spec in zip(cols, specs)))
    lines.append("")
    return "\n".join(lines)
