"""Every ``repro.*`` reader fails with its own error class.

The six readers share :mod:`repro.jsonio`, so each must turn a missing
file, bytes that do not parse, a document or line that is not an
object, and (for tagged formats) a foreign schema tag into its format's
error — never an ``OSError``, ``JSONDecodeError`` or ``TypeError``
escaping to the caller.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    ArtifactError,
    LintError,
    OpsError,
    StoreError,
    TraceError,
)
from repro.experiments.sweep_service import load_plan
from repro.jsonio import check_schema, replace_atomically, write_json
from repro.lint import LINT_SCHEMA, load_payload
from repro.obs import load_artifact, load_jsonl, load_ops, read_heartbeat

#: reader, its error class, a foreign-schema document (None: untagged).
READERS = {
    "artifact": (load_artifact, ArtifactError, {"schema": "repro.bench/9"}),
    "lint": (load_payload, LintError, {"schema": "repro.lint/9"}),
    "plan": (load_plan, StoreError, {"schema": "repro.sweep/9"}),
    "ops": (
        load_ops,
        OpsError,
        {"schema": "repro.ops/9", "kind": "header"},
    ),
    "heartbeat": (
        read_heartbeat,
        OpsError,
        {"schema": "repro.ops/9", "kind": "heartbeat", "shard": 0},
    ),
    "trace": (load_jsonl, TraceError, None),
}

#: case -> (file bytes or None for a missing file, message fragment).
INPUTS = {
    "missing": (None, "cannot read"),
    "malformed": (b"{not json\n", "not valid JSON"),
    "not-utf8": (b"\x80\x81\xfe\n", "corrupt"),
    "not-an-object": (b"[1, 2, 3]\n", "JSON object"),
}


@pytest.mark.parametrize("case", sorted(INPUTS))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_bad_input_raises_the_format_error(tmp_path, reader, case):
    load, error, _ = READERS[reader]
    data, fragment = INPUTS[case]
    path = tmp_path / "doc.json"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(error, match=fragment):
        load(path)


@pytest.mark.parametrize(
    "reader", sorted(r for r in READERS if READERS[r][2] is not None)
)
def test_foreign_schema_is_unsupported(tmp_path, reader):
    load, error, foreign = READERS[reader]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(foreign) + "\n")
    with pytest.raises(error, match=r"unsupported schema '.*/9'"):
        load(path)


def _lint_document(**changes) -> dict:
    document = {
        "schema": LINT_SCHEMA,
        "catalog": {"version": 1, "rules": []},
        "paths": [],
        "select": [],
        "ignore": [],
        "findings": [],
        "unused_suppressions": [],
        "statistics": {
            "modules": 0,
            "findings": 0,
            "suppressed": 0,
            "unused_suppressions": 0,
            "per_rule": {},
        },
        "clean": True,
    }
    document.update(changes)
    return document


@pytest.mark.parametrize(
    "changes",
    [
        {"findings": [1]},
        {"findings": "none"},
        {"unused_suppressions": 5},
        {"unused_suppressions": [None]},
        {"statistics": 3},
    ],
    ids=repr,
)
def test_lint_payload_with_wrong_shapes_is_a_lint_error(tmp_path, changes):
    path = tmp_path / "lint.json"
    write_json(_lint_document(**changes), path)
    with pytest.raises(LintError):
        load_payload(str(path))


def test_valid_lint_document_loads(tmp_path):
    path = tmp_path / "lint.json"
    write_json(_lint_document(), path)
    assert load_payload(str(path))["clean"] is True


def test_check_schema_names_the_document():
    with pytest.raises(StoreError, match="plan p.json: unsupported"):
        check_schema({"schema": "x/2"}, "x/1", StoreError, "plan p.json")
    with pytest.raises(StoreError, match="expected a JSON object"):
        check_schema([], "x/1", StoreError, "plan")


def test_replace_atomically_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "a" / "b" / "entry.bin"
    replace_atomically(target, b"one")
    replace_atomically(target, b"two")
    assert target.read_bytes() == b"two"
    assert [p.name for p in target.parent.iterdir()] == ["entry.bin"]
