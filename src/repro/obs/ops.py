"""Operational wall-clock telemetry for the sweep orchestration layer.

Three cooperating pieces, all speaking ``repro.ops/1``:

* :class:`OpsLog` — an append-only JSONL span log (header record
  first, one record per finished :class:`~repro.obs.span.Span`).  The
  executor, the result store, and the sweep service emit into it;
  ``repro ops PATH`` renders it back as a wall-clock tree with a
  critical-path summary.
* :class:`ShardHeartbeat` — a single JSON file a running shard
  atomically rewrites (:func:`~repro.jsonio.replace_atomically`) every
  ``interval`` seconds: shard id, run counters, last commit time, and
  an ETA from the observed run rate.  A reader can never see a torn
  heartbeat, and a killed shard is detectable because its heartbeat
  goes stale while still claiming ``state: running``.
* :func:`fleet_status` / :func:`render_fleet` — the aggregation
  behind ``repro sweep status``: join a plan's per-shard run counts
  with every shard's heartbeat into per-shard progress, flag
  stragglers (rate below a fraction of the fleet median), and flag
  dead shards (stale heartbeat).

This is the **one orchestration module sanctioned to read the wall
clock** (lint rule D1's allowlist): sim-path code that wants wall
telemetry calls in here instead of touching ``time`` itself.  Both
writers ship disabled null twins (:data:`NULL_OPS`,
:data:`NULL_HEARTBEAT`) so instrumented code pays one attribute check
when telemetry is off — the same pattern as
:data:`~repro.obs.tracer.NULL_TRACER`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Iterable, Iterator, Sequence

from ..errors import OpsError
from ..jsonio import check_schema, read_json, read_jsonl, replace_atomically
from .span import OPS_SCHEMA, Span, span_from_dict

#: Directory (under a result-store root) holding ops logs and
#: heartbeats for the sweeps that ran against that store.
OPS_DIR = "repro.ops"

#: Heartbeats older than this (seconds) mark their shard dead by
#: default; ``repro sweep status --stale`` overrides it.
DEFAULT_STALE_AFTER_S = 30.0

#: A running shard whose rate is below this fraction of the fleet
#: median is flagged as a straggler by default.
DEFAULT_STRAGGLER_BELOW = 0.5

#: Recognized terminal heartbeat states (plus ``"running"``).
HEARTBEAT_STATES = ("running", "done", "failed")


def ops_root(store_root: str | Path) -> Path:
    """The telemetry directory next to a result store's entries."""
    return Path(store_root) / OPS_DIR


def shard_ops_path(store_root: str | Path, shard: int) -> Path:
    """Span-log path for one ``repro sweep run`` shard."""
    return ops_root(store_root) / f"shard-{shard}.ops.jsonl"


def merge_ops_path(store_root: str | Path) -> Path:
    """Span-log path for a ``repro sweep merge`` into a store."""
    return ops_root(store_root) / "merge.ops.jsonl"


def heartbeat_path(store_root: str | Path, shard: int) -> Path:
    """Heartbeat path for one shard running against a store."""
    return ops_root(store_root) / f"shard-{shard}.heartbeat.json"


class OpsLog:
    """Append-only wall-clock span log (schema ``repro.ops/1``).

    Spans are written when they *finish* (a crash loses only the
    spans still open), each as one JSON line after a header record
    naming the schema.  Parent/child structure comes from an
    in-process span stack: all orchestration emission happens in the
    parent process (pool workers report wall time through their
    outcome, not by writing here), so a plain stack is exact.

    Args:
        path: log file; parent directories are created, an existing
            file is truncated (one log per orchestration run).
        clock: epoch-seconds time source (tests inject a fake one).
    """

    enabled = True

    def __init__(self, path: str | Path, clock=time.time) -> None:
        self.path = Path(path)
        self._clock = clock
        self._handle = None
        self._next_id = 1
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Time a block as a span; yields it for mid-flight attrs.

        The span's status flips to ``"failed"`` when the block
        raises; either way it is written on exit.
        """
        span = Span(
            id=self._next_id,
            parent=self._stack[-1].id if self._stack else None,
            name=name,
            start=self._clock(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "failed"
            raise
        finally:
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            span.end = self._clock()
            self._write(span)

    def record(
        self,
        name: str,
        duration_s: float = 0.0,
        status: str = "ok",
        **attrs,
    ) -> Span:
        """Emit a span for an operation that already happened.

        The executor uses this for cell runs: a pool worker measured
        its own ``wall_seconds``, so the span is back-dated to
        ``now - duration_s`` under whatever span is currently open.
        """
        now = self._clock()
        span = Span(
            id=self._next_id,
            parent=self._stack[-1].id if self._stack else None,
            name=name,
            start=now - max(0.0, duration_s),
            end=now,
            status=status,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._write(span)
        return span

    def _write(self, span: Span) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
            header = {
                "schema": OPS_SCHEMA,
                "kind": "header",
                "created": self._clock(),
            }
            self._handle.write(
                json.dumps(header, sort_keys=True) + "\n"
            )
        self._handle.write(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "OpsLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullOps(OpsLog):
    """The disabled twin: every emission is a no-op."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - trivial
        self.path = Path(os.devnull)
        self._handle = None
        self._next_id = 1
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        yield Span(id=0, parent=None, name=name, start=0.0)

    def record(self, name, duration_s=0.0, status="ok", **attrs):
        return Span(id=0, parent=None, name=name, start=0.0)

    def _write(self, span: Span) -> None:  # pragma: no cover
        pass


#: The ops log used when telemetry is off: every call is a no-op.
NULL_OPS = _NullOps()


def load_ops(path: str | Path) -> list[Span]:
    """Read and validate an ops log written by :class:`OpsLog`.

    Record kinds other than ``span`` (after the header) are skipped,
    so minor additive record types never break old readers — exactly
    the optional-field policy of the other ``repro.*`` schemas.

    Raises:
        OpsError: unreadable file, malformed JSON, missing/unknown
            header schema, or a structurally invalid span record.
    """
    records = read_jsonl(path, OpsError, "ops log")
    if not records:
        raise OpsError(f"ops log {path} is empty")
    header = records[0]
    if header.get("kind") != "header":
        raise OpsError(
            f"ops log {path} does not start with a header record"
        )
    check_schema(header, OPS_SCHEMA, OpsError, f"ops log {path}")
    spans = []
    for record in records[1:]:
        if record.get("kind") != "span":
            continue
        spans.append(span_from_dict(record))
    return spans


class ShardHeartbeat:
    """One shard's atomically-rewritten liveness + progress file.

    The executor drives it like the progress reporter: :meth:`begin`
    with the shard's run count, :meth:`update` once per settled run,
    :meth:`finish` with a terminal state.  Every write is a whole new
    document moved into place atomically, so concurrent
    readers (``repro sweep status --watch``) never see a torn file.

    Args:
        path: heartbeat file (see :func:`heartbeat_path`).
        shard: this shard's index in its plan.
        shards: total shards in the plan.
        interval: minimum seconds between rewrites; updates arriving
            faster are folded into the next one (begin, finish, and
            the final run always write).
        clock: epoch-seconds time source (tests inject a fake one).
    """

    enabled = True

    def __init__(
        self,
        path: str | Path,
        shard: int,
        shards: int,
        interval: float = 1.0,
        clock=time.time,
    ) -> None:
        self.path = Path(path)
        self.shard = shard
        self.shards = shards
        self.interval = interval
        self._clock = clock
        self._started: float | None = None
        self._last_write: float | None = None
        self._last_commit: float | None = None
        self._total = 0
        self._done = 0
        self._computed = 0
        self._cached = 0
        self._failed = 0

    def begin(self, total: int) -> None:
        """Start the shard: zero the counters, write immediately."""
        self._started = self._clock()
        self._last_write = None
        self._last_commit = None
        self._total = total
        self._done = 0
        self._computed = 0
        self._cached = 0
        self._failed = 0
        self._write("running", force=True)

    def update(self, outcome) -> None:
        """Record one settled run (any object with ``ok``/``cached``)."""
        if self._started is None:
            return
        self._done += 1
        if not outcome.ok:
            self._failed += 1
        elif outcome.cached:
            self._cached += 1
        else:
            self._computed += 1
            self._last_commit = self._clock()
        self._write("running", force=self._done >= self._total)

    def finish(self, state: str = "done") -> None:
        """Write the terminal heartbeat (``done`` or ``failed``).

        A shard that settled every run but saw failures terminates
        as ``failed`` even when asked for ``done``: the store holds
        only the successful runs, so the shard is not finished work.
        """
        if self._started is None:
            return
        if state == "done" and self._failed:
            state = "failed"
        self._write(state, force=True)

    def _write(self, state: str, force: bool = False) -> None:
        now = self._clock()
        if (
            not force
            and self._last_write is not None
            and now - self._last_write < self.interval
        ):
            return
        elapsed = max(0.0, now - (self._started or now))
        rate = self._done / elapsed if elapsed > 0 else None
        in_flight = max(0, self._total - self._done)
        eta = in_flight / rate if rate else None
        payload = {
            "schema": OPS_SCHEMA,
            "kind": "heartbeat",
            "shard": self.shard,
            "shards": self.shards,
            "pid": os.getpid(),
            "state": state,
            "started": self._started,
            "updated": now,
            "runs_total": self._total,
            "runs_done": self._done,
            "runs_computed": self._computed,
            "runs_cached": self._cached,
            "runs_failed": self._failed,
            "in_flight": in_flight,
            "last_commit": self._last_commit,
            "rate_runs_per_s": rate,
            "eta_s": eta,
        }
        replace_atomically(
            self.path,
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )
        self._last_write = now


class _NullHeartbeat(ShardHeartbeat):
    """The disabled twin: never touches the filesystem."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - trivial
        self.path = Path(os.devnull)
        self.shard = -1
        self.shards = 0
        self.interval = 0.0
        self._started = None

    def begin(self, total: int) -> None:
        pass

    def update(self, outcome) -> None:
        pass

    def finish(self, state: str = "done") -> None:
        pass


#: The heartbeat used when telemetry is off: every call is a no-op.
NULL_HEARTBEAT = _NullHeartbeat()


def read_heartbeat(path: str | Path) -> dict:
    """Read and validate one heartbeat file.

    Raises:
        OpsError: unreadable file, malformed JSON, or schema drift.
    """
    what = f"heartbeat {path}"
    payload = check_schema(
        read_json(path, OpsError, "heartbeat"), OPS_SCHEMA, OpsError, what
    )
    if payload.get("kind") != "heartbeat":
        raise OpsError(f"{what} has kind "
                       f"{payload.get('kind')!r}, not 'heartbeat'")
    shard = payload.get("shard")
    if not isinstance(shard, int) or shard < 0:
        raise OpsError(f"{what} has invalid shard {shard!r}")
    return payload


def find_heartbeats(
    store_roots: Iterable[str | Path],
) -> list[dict]:
    """Every shard heartbeat under the given store directories.

    Later stores win when two carry the same shard (the fleet view
    takes the freshest file per shard anyway).
    """
    payloads: list[dict] = []
    for root in store_roots:
        directory = ops_root(root)
        if not directory.is_dir():
            continue
        for path in sorted(
            directory.glob("shard-*.heartbeat.json")
        ):
            payloads.append(read_heartbeat(path))
    return payloads


class ShardStatus:
    """One shard's row in the fleet view (plain attributes).

    Attributes mirror the heartbeat counters, joined with the plan:
    ``planned`` comes from the plan's shard partition, everything
    else from the freshest heartbeat.  ``state`` is one of
    ``missing`` (no heartbeat yet), ``running``, ``done``,
    ``failed``, or ``dead`` (heartbeat stale while claiming to run);
    ``straggler`` marks a running shard whose rate fell below the
    fleet-median fraction.
    """

    __slots__ = (
        "shard",
        "planned",
        "done",
        "computed",
        "cached",
        "failed",
        "in_flight",
        "rate",
        "eta_s",
        "age_s",
        "state",
        "straggler",
        "note",
    )

    def __init__(self, shard: int, planned: int) -> None:
        self.shard = shard
        self.planned = planned
        self.done = 0
        self.computed = 0
        self.cached = 0
        self.failed = 0
        self.in_flight = 0
        self.rate: float | None = None
        self.eta_s: float | None = None
        self.age_s: float | None = None
        self.state = "missing"
        self.straggler = False
        self.note = ""


def fleet_status(
    plan: dict,
    heartbeats: Sequence[dict],
    now: float,
    stale_after: float = DEFAULT_STALE_AFTER_S,
    straggler_below: float = DEFAULT_STRAGGLER_BELOW,
) -> list[ShardStatus]:
    """Join a plan with shard heartbeats into per-shard statuses.

    Args:
        plan: a validated ``repro.sweep/1`` plan document.
        heartbeats: heartbeat payloads (see :func:`find_heartbeats`);
            the freshest per shard wins.
        now: the caller's wall clock (injected so tests — and the
            ``--watch`` loop — control staleness deterministically).
        stale_after: seconds after which a ``running`` heartbeat
            marks its shard dead.
        straggler_below: fraction of the median running rate below
            which a live shard is flagged a straggler.
    """
    shards = plan["shards"]
    planned = [0] * shards
    for run in plan["runs"]:
        planned[run["shard"]] += 1
    freshest: dict[int, dict] = {}
    for payload in heartbeats:
        shard = payload["shard"]
        if not 0 <= shard < shards:
            continue
        held = freshest.get(shard)
        if held is None or (
            payload.get("updated", 0) > held.get("updated", 0)
        ):
            freshest[shard] = payload
    statuses = [
        ShardStatus(shard, planned[shard]) for shard in range(shards)
    ]
    for status in statuses:
        payload = freshest.get(status.shard)
        if payload is None:
            status.note = "no heartbeat"
            continue
        status.done = int(payload.get("runs_done", 0))
        status.computed = int(payload.get("runs_computed", 0))
        status.cached = int(payload.get("runs_cached", 0))
        status.failed = int(payload.get("runs_failed", 0))
        status.in_flight = int(payload.get("in_flight", 0))
        rate = payload.get("rate_runs_per_s")
        status.rate = float(rate) if rate is not None else None
        eta = payload.get("eta_s")
        status.eta_s = float(eta) if eta is not None else None
        status.age_s = max(0.0, now - payload.get("updated", now))
        state = payload.get("state", "running")
        if state in ("done", "failed"):
            status.state = state
        elif status.age_s > stale_after:
            status.state = "dead"
            status.note = (
                f"heartbeat {status.age_s:.0f}s stale"
            )
        else:
            status.state = "running"
    running = [
        s.rate
        for s in statuses
        if s.state == "running" and s.rate
    ]
    if len(running) >= 2:
        fleet_median = median(running)
        for status in statuses:
            if (
                status.state == "running"
                and status.rate is not None
                and fleet_median > 0
                and status.rate < straggler_below * fleet_median
            ):
                status.straggler = True
                status.note = (
                    f"{status.rate:.2f} runs/s vs fleet median "
                    f"{fleet_median:.2f}"
                )
    return statuses


def _bar(done: int, total: int, width: int = 20) -> str:
    if total <= 0:
        return "·" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "·" * (width - filled)


def render_fleet(
    plan: dict, statuses: Sequence[ShardStatus]
) -> str:
    """The fleet view ``repro sweep status`` prints."""
    total_planned = sum(s.planned for s in statuses)
    total_done = sum(s.done for s in statuses)
    header = (
        f"sweep fleet: figure {plan['figure']}"
        f"{' (quick)' if plan.get('quick') else ''} — "
        f"{len(statuses)} shard(s), "
        f"{total_done}/{total_planned} runs done"
    )
    if plan.get("sim_code"):
        header += f", sim-code {plan['sim_code'][:12]}"
    lines = [header]
    for status in statuses:
        bar = _bar(status.done, status.planned)
        detail = (
            f"{status.computed} computed, {status.cached} cached"
        )
        if status.failed:
            detail += f", {status.failed} FAILED"
        if status.state == "running":
            rate = (
                f"{status.rate:.2f} runs/s"
                if status.rate is not None
                else "rate ?"
            )
            eta = (
                f"ETA {status.eta_s:.0f}s"
                if status.eta_s is not None
                else "ETA ?"
            )
            tail = f"{rate}  {eta}  running"
            if status.straggler:
                tail += f"  STRAGGLER ({status.note})"
        elif status.state == "dead":
            tail = f"DEAD ({status.note})"
        elif status.state == "missing":
            tail = "missing (no heartbeat)"
        elif status.state == "failed":
            tail = "FAILED"
        else:
            tail = "done"
        lines.append(
            f"shard {status.shard}  [{bar}]  "
            f"{status.done}/{status.planned} runs  "
            f"{detail}  {tail}"
        )
    return "\n".join(lines)
