"""Run manifests: the environment block every perf artifact embeds.

A benchmark number without its provenance is noise: 1,900 events/sec
on a throttled 1-core container and on a 32-core workstation are
different facts.  This module captures the provenance once —
interpreter, platform, CPU budget, git revision + dirty flag — in a
plain-dict form that is cheap to JSON-encode, so

* every ``BENCH_<suite>.json`` artifact embeds it (see
  :mod:`repro.obs.bench`),
* ``repro compare`` can warn when two artifacts came from different
  environments,
* ``repro --version`` prints it, making pasted reports
  self-describing, and
* ``reproduce --manifest PATH`` records it next to a figure run.

Everything here degrades gracefully: outside a git checkout the git
block is ``None``, on platforms without an affinity mask the usable
core count falls back to ``cpu_count``, and nothing raises.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

#: Version tag of the benchmark-artifact schema.  Bump the integer on
#: any backwards-incompatible change to the artifact layout; readers
#: reject artifacts whose tag they do not understand (see
#: ``docs/OBSERVABILITY.md`` for the policy).
ARTIFACT_SCHEMA = "repro.bench/1"

#: Version tag of the run-manifest schema (``reproduce --manifest``).
MANIFEST_SCHEMA = "repro.manifest/1"

_GIT_TIMEOUT_S = 5.0


def usable_cores() -> int:
    """Cores this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment_block() -> dict:
    """The interpreter/platform/CPU facts a perf number depends on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": usable_cores(),
    }


def _git(root: Path, *argv: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *argv],
            capture_output=True,
            text=True,
            timeout=_GIT_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def git_info(root: str | Path | None = None) -> dict | None:
    """``{"sha": ..., "dirty": ...}`` for the checkout holding ``root``.

    Defaults to the directory of this source file, so artifacts
    describe the revision of the *code that ran*, not whatever
    directory the process happened to be started from.  Returns
    ``None`` when git is unavailable or ``root`` is not inside a work
    tree (e.g. an installed wheel).
    """
    base = Path(root) if root is not None else Path(__file__).parent
    sha = _git(base, "rev-parse", "HEAD")
    if sha is None:
        return None
    status = _git(base, "status", "--porcelain")
    return {
        "sha": sha.strip(),
        "dirty": bool(status.strip()) if status is not None else False,
    }


def build_manifest() -> dict:
    """The provenance block embedded in every benchmark artifact.

    ``sim_code`` is the result-store code fingerprint, so an artifact
    names the simulation source that produced it even when the git
    block is missing or dirty.
    """
    # Imported here: repro.parallel imports repro.obs.
    from ..parallel.store import sim_code_fingerprint

    return {
        "env": environment_block(),
        "git": git_info(),
        "sim_code": sim_code_fingerprint(),
    }


def utc_timestamp() -> str:
    """Wall-clock creation stamp for artifacts (ISO-8601, UTC)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run_manifest(command: str, **extra) -> dict:
    """A self-describing record of one CLI invocation.

    Args:
        command: the command line being described (free text).
        extra: additional JSON-compatible facts (config digests,
            executor stats, elapsed seconds ...) stored verbatim.
    """
    payload = {
        "schema": MANIFEST_SCHEMA,
        "created": utc_timestamp(),
        "command": command,
        **build_manifest(),
    }
    payload.update(extra)
    return payload


def render_environment(manifest: dict | None = None) -> str:
    """The environment block as the lines ``repro --version`` prints."""
    manifest = manifest if manifest is not None else build_manifest()
    env = manifest.get("env", {})
    lines = [
        f"python {env.get('python', '?')} "
        f"({env.get('implementation', '?')}) on "
        f"{env.get('platform', '?')}",
        f"cpus {env.get('usable_cores', '?')} usable "
        f"of {env.get('cpu_count', '?')}",
    ]
    git = manifest.get("git")
    if git is not None:
        state = "dirty" if git.get("dirty") else "clean"
        lines.append(f"git {git.get('sha', '?')[:12]} ({state})")
    if manifest.get("sim_code"):
        lines.append(f"sim-code {manifest['sim_code'][:12]}")
    return "\n".join(lines)
