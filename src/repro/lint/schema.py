"""The versioned ``repro.lint/1`` findings schema.

``repro lint --format=json`` emits one self-describing JSON document
per run, following the same conventions as the ``repro.bench/1``
artifacts (PR 6): a ``schema`` tag readers must recognise, flat
JSON-native types throughout, and a validator that rejects drift
loudly instead of letting consumers misparse.

Layout::

    {
      "schema": "repro.lint/1",
      "catalog": {"version": 1, "rules": [{id, severity, summary}]},
      "paths": [...],                  # as given on the command line
      "select": [...], "ignore": [...],
      "findings": [
        {rule, severity, path, module, line, col, message, hint}
      ],
      "unused_suppressions": [{path, line, rule, reason}],
      "statistics": {
        "modules": N, "findings": N, "suppressed": N,
        "unused_suppressions": N,
        "per_rule": {"D1": {"findings": N, "suppressed": N}, ...}
      },
      "clean": bool                    # exit-0 <=> true
    }

Bump the schema integer on any backwards-incompatible layout change
(schema-version policy: docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from ..errors import LintError
from ..jsonio import check_schema, read_json

#: Schema tag of the JSON findings document.
LINT_SCHEMA = "repro.lint/1"

_FINDING_KEYS = frozenset({
    "rule", "severity", "path", "module", "line", "col", "message",
    "hint",
})
_UNUSED_KEYS = frozenset({"path", "line", "rule", "reason"})
_STATISTICS_KEYS = frozenset({
    "modules", "findings", "suppressed", "unused_suppressions",
    "per_rule",
})


def build_payload(
    result,
    *,
    paths: list[str],
    select: tuple[str, ...],
    ignore: tuple[str, ...],
) -> dict:
    """The JSON document for one lint run.

    Args:
        result: a :class:`~repro.lint.runner.LintResult`.
        paths: the paths as requested (not the expanded file list).
        select: effective rule selection (empty = all).
        ignore: effective rule ignores.
    """
    from .rules import CATALOG_VERSION, catalog_description

    return {
        "schema": LINT_SCHEMA,
        "catalog": {
            "version": CATALOG_VERSION,
            "rules": catalog_description(),
        },
        "paths": [str(path) for path in paths],
        "select": list(select),
        "ignore": list(ignore),
        "findings": [
            finding.to_dict() for finding in result.findings
        ],
        "unused_suppressions": [
            entry.to_dict() for entry in result.unused_suppressions
        ],
        "statistics": result.statistics(),
        "clean": result.clean,
    }


def _check_keys(entry: object, keys: frozenset, what: str) -> None:
    if not isinstance(entry, dict):
        raise LintError(f"{what} must be an object, got {entry!r}")
    missing = keys - set(entry)
    if missing:
        raise LintError(
            f"{what} missing keys: {', '.join(sorted(missing))}"
        )


def validate_payload(payload: object, what: str = "lint payload") -> dict:
    """Check ``payload`` against ``repro.lint/1``; return it.

    Args:
        what: how error messages name the document (loaders add the
            file path).

    Raises:
        LintError: the payload is not a recognisable lint document
            (wrong/missing schema tag, missing sections, or findings
            entries with missing keys).
    """
    check_schema(payload, LINT_SCHEMA, LintError, what)
    for key in ("catalog", "findings", "unused_suppressions",
                "statistics", "clean"):
        if key not in payload:
            raise LintError(f"{what} missing {key!r}")
    for key, keys, entry_what in (
        ("findings", _FINDING_KEYS, "finding entry"),
        ("unused_suppressions", _UNUSED_KEYS,
         "unused-suppression entry"),
    ):
        if not isinstance(payload[key], list):
            raise LintError(f"{what} {key!r} must be a list")
        for entry in payload[key]:
            _check_keys(entry, keys, entry_what)
    _check_keys(payload["statistics"], _STATISTICS_KEYS, "statistics block")
    return payload


def load_payload(path: str) -> dict:
    """Read and validate a lint JSON document from ``path``.

    Raises:
        LintError: unreadable file, invalid JSON, or schema drift.
    """
    return validate_payload(
        read_json(path, LintError, "lint payload"), f"lint payload {path}"
    )
