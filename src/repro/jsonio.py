"""The one reader and writer of every ``repro.*`` JSON document.

Benchmark artifacts, run manifests, lint findings, sweep plans, ops
logs, heartbeats, traces and result-store entries are all files that
another process — or another machine — wrote.  Each format keeps its
own error class and its own structural checks, but the mechanics are
shared here so every format fails the same way on the same fault:

* ``cannot read {what} {path}: ...`` — missing or unreadable file;
* ``corrupt {what} {path}: not valid JSON ...`` (or ``line N ...`` for
  JSON Lines) — the bytes do not parse;
* ``{what} {path}: unsupported schema {found!r} (expected ...)`` —
  a document from a format version this reader does not understand.

Writers get one stable encoding (:func:`write_json`) and one atomic
file replacement (:func:`replace_atomically`), so readers polling a
file never see a torn write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, TextIO


def read_json(path: str | Path, error: type[Exception], what: str):
    """Parse one JSON document from ``path``.

    Raises:
        error: the file is unreadable or does not hold valid JSON.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"corrupt {what} {path}: not valid JSON: {exc}") from exc


def read_jsonl(
    source: str | Path | IO[str], error: type[Exception], what: str
) -> list[dict]:
    """Parse a JSON Lines file (a path or an open text stream).

    Blank lines are skipped; every other line must be a JSON object.

    Raises:
        error: the file is unreadable, or a line is not valid JSON or
            not an object.
    """
    if isinstance(source, (str, Path)):
        try:
            handle = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise error(f"cannot read {what} {source}: {exc}") from exc
        with handle:
            return read_jsonl(handle, error, what)
    path = getattr(source, "name", "<stream>")
    records: list[dict] = []
    try:
        for lineno, line in enumerate(source, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(
                    f"corrupt {what} {path}: line {lineno} is not valid "
                    f"JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise error(
                    f"corrupt {what} {path}: line {lineno} is not a "
                    "JSON object"
                )
            records.append(record)
    except UnicodeDecodeError as exc:
        raise error(f"corrupt {what} {path}: not valid UTF-8: {exc}") from exc
    return records


def check_schema(
    payload: object, schema: str, error: type[Exception], what: str
) -> dict:
    """Require ``payload`` to be an object tagged with ``schema``.

    Returns the payload so loaders can chain the call.

    Raises:
        error: ``payload`` is not an object or carries another tag.
    """
    if not isinstance(payload, dict):
        raise error(
            f"{what}: expected a JSON object, got "
            f"{type(payload).__name__}"
        )
    found = payload.get("schema")
    if found != schema:
        raise error(
            f"{what}: unsupported schema {found!r} (expected {schema!r})"
        )
    return payload


def write_json(payload: dict, dest: str | Path | TextIO) -> None:
    """Write one JSON document (sorted keys, indented, trailing \\n).

    The one encoder every machine-readable artifact goes through, so
    diffs of committed artifacts stay minimal and stable.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as handle:
            write_json(payload, handle)
        return
    json.dump(payload, dest, indent=2, sort_keys=True)
    dest.write("\n")


def replace_atomically(path: Path, data: bytes) -> None:
    """Make ``data`` the content of ``path`` in one atomic step.

    Writes a ``<name>.tmp.<pid>`` sibling, then renames it over
    ``path``: concurrent readers see the old file or the new one,
    never a partial write, and concurrent writers (pool workers,
    shards on a shared filesystem) cannot interleave.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
