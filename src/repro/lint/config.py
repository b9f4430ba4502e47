"""``[tool.repro.lint]`` configuration.

Rule *logic* lives in :mod:`repro.lint.rules`; rule *scoping* — which
modules count as sim-path, which modules may read the wall clock or
raise outside the ``repro.errors`` hierarchy, which rules run by
default — lives here, loaded from ``pyproject.toml`` so tightening or
relaxing a boundary is a config diff, not a code change.

The in-code defaults mirror the repository's committed
``[tool.repro.lint]`` section, so the linter behaves identically when
no pyproject is found (e.g. linting a single file from a scratch
directory).  Keys accept both ``kebab-case`` (TOML convention) and
``snake_case``.

``tomllib`` ships with Python 3.11+; on 3.10 the loader degrades to
the defaults rather than importing a third-party parser.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

try:  # pragma: no cover - always present on the CI interpreters
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - python 3.10
    tomllib = None  # type: ignore[assignment]

from ..errors import LintError

#: Modules whose code executes under the simulated clock and must be
#: deterministic (D1/D3/D5 scope).
DEFAULT_SIM_PATH = (
    "repro.net",
    "repro.p2p",
    "repro.experiments",
    "repro.abr",
    "repro.player",
)

#: Sim-path-adjacent modules explicitly allowed to read the wall
#: clock: benchmarking, progress reporting, and the ops telemetry
#: layer measure the host, not the simulation.
DEFAULT_WALLCLOCK_ALLOW = (
    "repro.obs.bench",
    "repro.obs.ops",
    "repro.parallel.progress",
)

#: Modules exempt from E1 (raise outside ``repro.errors``).  Empty:
#: deliberate one-off exceptions use suppression comments instead, so
#: each carries its reason next to the raise.
DEFAULT_RAISE_ALLOW: tuple[str, ...] = ()

#: Modules holding the picklable sweep specs checked by D4.
DEFAULT_SPEC_MODULES = ("repro.parallel.spec",)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Resolved lint configuration.

    Attributes:
        sim_path: dotted prefixes of simulation-path modules.
        wallclock_allow: modules exempt from D1.
        raise_allow: modules exempt from E1.
        spec_modules: modules D4 checks for picklable specs.
        select: rule ids enabled by default (empty = all).
        ignore: rule ids disabled by default.
    """

    sim_path: tuple[str, ...] = DEFAULT_SIM_PATH
    wallclock_allow: tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOW
    raise_allow: tuple[str, ...] = DEFAULT_RAISE_ALLOW
    spec_modules: tuple[str, ...] = DEFAULT_SPEC_MODULES
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()


def find_pyproject(start: str | Path | None = None) -> Path | None:
    """The nearest ``pyproject.toml`` at or above ``start`` (cwd)."""
    current = Path(start) if start is not None else Path.cwd()
    current = current.resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: str | Path | None = None) -> LintConfig:
    """Load ``[tool.repro.lint]`` from ``pyproject``.

    Args:
        pyproject: path to a ``pyproject.toml``; ``None`` searches
            upward from the cwd.  A missing file (or a file without
            the table, or Python 3.10 without ``tomllib``) yields the
            defaults.

    Raises:
        LintError: the file exists but cannot be parsed, or the table
            contains an unknown key or a non-list value.
    """
    if pyproject is None:
        pyproject = find_pyproject()
    if pyproject is None or tomllib is None:
        return LintConfig()
    path = Path(pyproject)
    if not path.is_file():
        return LintConfig()
    try:
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise LintError(f"cannot read '{path}': {exc}") from exc
    table = (
        payload.get("tool", {}).get("repro", {}).get("lint", {})
    )
    if not isinstance(table, dict):
        raise LintError(
            f"[tool.repro.lint] in '{path}' must be a table"
        )
    return _apply(table, path)


def _apply(table: dict, path: Path) -> LintConfig:
    known = {f.name for f in fields(LintConfig)}
    config = LintConfig()
    overrides: dict[str, tuple[str, ...]] = {}
    for raw_key, value in table.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            raise LintError(
                f"unknown [tool.repro.lint] key {raw_key!r} in "
                f"'{path}' (expected one of: "
                f"{', '.join(sorted(known))})"
            )
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise LintError(
                f"[tool.repro.lint] {raw_key!r} in '{path}' must be "
                f"a list of strings"
            )
        overrides[key] = tuple(value)
    return replace(config, **overrides)
