from __future__ import annotations

import json
from pathlib import Path

import pytest

from dqeval import canonical, dataset
from dqeval.dataset import load_catalog, load_snapshot
from dqeval.rules import parse_ruleset

PERSON_SCHEMA = {
    "entities": [
        {
            "name": "person",
            "columns": [
                {"name": "id", "datatype": "text", "nullable": True},
                {"name": "ipaddress", "datatype": "text", "nullable": True},
                {"name": "age", "datatype": "integer", "nullable": True},
                {"name": "balance", "datatype": "decimal", "nullable": True},
                {"name": "active", "datatype": "boolean", "nullable": True},
                {"name": "updated", "datatype": "timestamp", "nullable": True},
            ],
            "key": ["id"],
        },
        {
            "name": "warning",
            "columns": [
                {"name": "wid", "datatype": "text", "nullable": False},
                {"name": "type", "datatype": "text", "nullable": True},
                {"name": "person_id", "datatype": "text", "nullable": True},
            ],
            "key": ["wid"],
        },
    ]
}

PERSON_CSV = """id,ipaddress,age,balance,active,updated
12345678A,126.12.4.89,34,10.50,true,2024-05-30T12:00:00Z
87654321Z,10.0.0.1,51,0.00,false,2024-05-01T00:00:00Z
1234,9.9.9.9,17,99.99,true,2024-03-01T00:00:00Z
11111111B,8.8.8.8,28,5.25,true,2024-05-20T08:30:00Z
"""

WARNING_CSV = """wid,type,person_id
w1,HR,12345678A
w2,HR,87654321Z
w3,IT GENERAL,12345678A
w4,SUPERCOMPUTATION,99999999X
w5,HR2,11111111B
"""


def make_ruleset(rules: list[dict], *, name: str = "fixture", version: str = "1",
                 reference_time: str = "2024-06-01T00:00:00Z",
                 format_classes: dict | None = None) -> str:
    return json.dumps({
        "name": name,
        "version": version,
        "reference_time": reference_time,
        "format_classes": format_classes or {},
        "rules": rules,
    })


def rule(rule_id: str, entity: str, columns: list[str], prop: str, kind: str,
         params: dict | None = None, **extra) -> dict:
    body = {"id": rule_id, "entity": entity, "columns": columns,
            "property": prop, "kind": kind, "params": params or {}}
    body.update(extra)
    return body


@pytest.fixture
def person_catalog():
    return load_catalog(json.dumps(PERSON_SCHEMA))


@pytest.fixture
def person_snapshot(tmp_path: Path, person_catalog):
    snap = tmp_path / "snapshot"
    snap.mkdir()
    (snap / "person.csv").write_text(PERSON_CSV, encoding="utf-8")
    (snap / "warning.csv").write_text(WARNING_CSV, encoding="utf-8")
    return load_snapshot(snap, person_catalog)


@pytest.fixture
def table3_ruleset():
    """The classic worked examples: id syntax check plus warning-type domain."""
    return parse_ruleset(make_ruleset([
        rule("r1", "person", ["id"], "EXAC_SINT", "syntax",
             {"pattern": "^[0-9]{8}[A-Z]$"}),
        rule("r3", "warning", ["type"], "EXAC_SEMAN", "domain",
             {"allowed": ["IT GENERAL", "SUPERCOMPUTATION", "HR"]}),
    ]))


def dumps(obj) -> str:
    return canonical.dumps(obj)


def reference_record_writer(record_key, level: int, with_entity: bool):
    """reporting.record_writer's reference: each list of failing records in
    the dict shape of measures.json and the manifests, for canonical.dumps.
    `level` is where the emitter puts the list."""
    def write(records):
        return [({"entity": entity} if with_entity else {})
                | {"row": row, "key": {} if row is None else record_key(entity, row)}
                for entity, row in records]
    return write


def growing_reader(extra: bytes):
    """A stand-in for dataset._decoded that appends `extra` to the file being
    read once its first chunk has been read."""
    decoded = dataset._decoded

    def read(file, digest):
        texts = decoded(file, digest)
        yield next(texts)
        with open(file.name, "ab") as out:
            out.write(extra)
        yield from texts

    return read
