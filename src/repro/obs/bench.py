"""Structured benchmark artifacts: the ``BenchHarness`` and its schema.

Every benchmark under ``benchmarks/`` used to hand-roll its own timing
loop and print a free-text table; the only durable output was a
``.txt`` nobody could diff numerically.  This module is the shared
replacement:

* :class:`BenchHarness` times each **case** (best-of-N wall time with
  warmup discard, or repeat-until-budget for millisecond-scale cells),
  collects per-case scalars — simulated events/sec, key streaming
  metrics, the stall-cause histogram from the PR-5 analyzer, the
  :class:`~repro.obs.profile.EngineProfile` breakdown — and still
  prints/writes the human-readable tables exactly where they always
  went;
* :func:`build_artifact` wraps the cases in a **versioned JSON
  artifact** (schema ``repro.bench/1``) with a full run manifest: git
  SHA + dirty flag, python/platform/cpu environment block, and stable
  :func:`~repro.parallel.digest.content_digest`\\ s of each case's
  workload;
* :func:`validate_artifact` / :func:`load_artifact` enforce the schema
  on the way back in, so ``repro compare`` never diffs garbage.

A benchmark script participates by exposing::

    def run_suite(harness, quick=False): ...

which both its pytest wrapper (``benchmarks/conftest.py``'s
``harness`` fixture) and ``repro bench <suite>`` drive.  The artifact
lands next to the tables as ``benchmarks/results/BENCH_<suite>.json``
— the machine-readable perf trajectory the ROADMAP's scaling work is
judged against.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from ..errors import ArtifactError, BenchError
from ..jsonio import check_schema, read_json, write_json
from . import manifest as _manifest

#: The schema tag written into and required from every artifact.
SCHEMA = _manifest.ARTIFACT_SCHEMA

#: Upper bound on repeat-until-budget rounds (runaway guard).
MAX_BUDGET_ROUNDS = 400


@dataclass(frozen=True, slots=True)
class CaseTiming:
    """Wall-time statistics of one benchmark case.

    Attributes:
        rounds: timed repetitions (after warmup).
        warmup: discarded untimed repetitions.
        best_s: minimum wall seconds over the rounds — the run least
            disturbed by scheduler noise, and the number regression
            gates compare.
        mean_s: mean wall seconds over the rounds.
        stdev_s: sample standard deviation (0 when rounds == 1);
            ``repro compare`` widens its threshold by this noise.
    """

    rounds: int
    warmup: int
    best_s: float
    mean_s: float
    stdev_s: float

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "warmup": self.warmup,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "stdev_s": self.stdev_s,
        }


@dataclass
class BenchCase:
    """One measured case of a suite (a row of the artifact).

    Attributes:
        case_id: stable identity within the suite (``"star/100/
            incremental"``); ``repro compare`` matches cases on it.
        timing: wall-time statistics.
        params: the case's knobs, recorded verbatim for humans.
        digest: content digest of the workload description, so compare
            can distinguish "same workload, slower" from "different
            workload".
        events_fired: simulated events executed (one timed round).
        events_per_sec: ``events_fired / timing.best_s``.
        sim_seconds: simulated seconds the case covered.
        metrics: free-form scalar metrics (stall counts, startup
            means, speedups ...).
        causes: stall-cause histogram from the analyzer, when the
            suite ran with analysis.
        profile: engine wall-time breakdown (``EngineProfile``
            snapshot), when the suite profiled.
    """

    case_id: str
    timing: CaseTiming
    params: dict = field(default_factory=dict)
    digest: str | None = None
    events_fired: int | None = None
    events_per_sec: float | None = None
    sim_seconds: float | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    causes: dict[str, int] | None = None
    profile: dict | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.case_id,
            "timing": self.timing.to_dict(),
            "params": dict(self.params),
            "digest": self.digest,
            "events_fired": self.events_fired,
            "events_per_sec": self.events_per_sec,
            "sim_seconds": self.sim_seconds,
            "metrics": dict(self.metrics),
            "causes": None if self.causes is None else dict(self.causes),
            "profile": self.profile,
        }


class BenchHarness:
    """Times cases, keeps tables, and assembles the JSON artifact.

    Args:
        suite: suite name; the artifact is ``BENCH_<suite>.json``.
        results_dir: where tables and artifacts land (default:
            ``benchmarks/results`` relative to the current directory).
        quick: reduced-scale run.  Quick runs still produce a (quick-
            flagged) artifact but never overwrite the committed
            human-readable tables.
        clock: injectable monotonic clock (tests).
    """

    def __init__(
        self,
        suite: str,
        results_dir: str | Path | None = None,
        quick: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not suite or "/" in suite:
            raise BenchError(f"invalid suite name: {suite!r}")
        self.suite = suite
        self.results_dir = Path(
            results_dir
            if results_dir is not None
            else Path("benchmarks") / "results"
        )
        self.quick = quick
        self._clock = clock
        self.cases: list[BenchCase] = []
        self._case_ids: set[str] = set()

    # -- measurement ---------------------------------------------------

    def case(
        self,
        case_id: str,
        fn: Callable[..., Any],
        *args: Any,
        kwargs: Mapping[str, Any] | None = None,
        rounds: int = 1,
        warmup: int = 0,
        budget_s: float | None = None,
        params: Mapping[str, Any] | None = None,
        digest_of: Any = None,
        self_timed: bool = False,
        profile: Any = None,
    ) -> Any:
        """Measure one case; returns ``fn``'s (last) return value.

        Timing modes:

        * fixed — ``warmup`` discarded calls, then ``rounds`` timed
          calls; the minimum wall time is the headline number;
        * budget (``budget_s``) — after warmup, repeat until the
          budget is spent (at least once, at most
          :data:`MAX_BUDGET_ROUNDS` rounds) and keep the minimum.
          Right for millisecond-scale cells where a fixed small N is
          all noise.

        Args:
            self_timed: ``fn`` returns ``(result, wall_seconds)``,
                timing only the section it cares about (e.g. the
                simulator loop, excluding topology construction).
            digest_of: any value describing the workload; its
                content digest is recorded on the case.
            profile: an :class:`~repro.obs.profile.EngineProfile` the
                run records into; the case stores the *delta* this
                case contributed.
        """
        if case_id in self._case_ids:
            raise BenchError(
                f"duplicate case id {case_id!r} in suite {self.suite!r}"
            )
        if rounds < 1:
            raise BenchError(f"rounds must be >= 1: {rounds}")
        if warmup < 0:
            raise BenchError(f"warmup must be >= 0: {warmup}")
        call_kwargs = dict(kwargs or {})
        before = profile.snapshot() if profile is not None else None

        for _ in range(warmup):
            self._call(fn, args, call_kwargs, self_timed)

        walls: list[float] = []
        result: Any = None
        spent = 0.0
        while True:
            result, wall = self._call(fn, args, call_kwargs, self_timed)
            walls.append(wall)
            spent += wall
            if budget_s is not None:
                if spent >= budget_s or len(walls) >= MAX_BUDGET_ROUNDS:
                    break
            elif len(walls) >= rounds:
                break

        timing = CaseTiming(
            rounds=len(walls),
            warmup=warmup,
            best_s=min(walls),
            mean_s=statistics.fmean(walls),
            stdev_s=(
                statistics.stdev(walls) if len(walls) > 1 else 0.0
            ),
        )
        case = BenchCase(
            case_id=case_id,
            timing=timing,
            params=dict(params or {}),
        )
        if digest_of is not None:
            from ..parallel.digest import content_digest

            case.digest = content_digest(digest_of)
        if profile is not None and before is not None:
            case.profile = _profile_delta(before, profile.snapshot())
        self.cases.append(case)
        self._case_ids.add(case_id)
        return result

    def _call(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        self_timed: bool,
    ) -> tuple[Any, float]:
        if self_timed:
            result, wall = fn(*args, **kwargs)
            if not isinstance(wall, (int, float)) or wall < 0:
                raise BenchError(
                    "self-timed case must return "
                    "(result, wall_seconds >= 0)"
                )
            return result, float(wall)
        start = self._clock()
        result = fn(*args, **kwargs)
        return result, self._clock() - start

    def annotate(
        self,
        case_id: str | None = None,
        *,
        events_fired: int | None = None,
        sim_seconds: float | None = None,
        causes: Mapping[str, int] | None = None,
        analysis: Any = None,
        **metrics: float,
    ) -> None:
        """Attach post-measurement facts to a case (default: the last).

        Args:
            events_fired: simulated events the case executed; also
                derives ``events_per_sec`` against the best wall time.
            causes: stall-cause histogram.
            analysis: a :class:`~repro.obs.analyze.CellAnalysis`-like
                object; its cause histogram, stall count, and transfer
                efficiency are folded in.
            metrics: any scalar worth tracking over time.
        """
        case = self._find(case_id)
        if events_fired is not None:
            case.events_fired = int(events_fired)
            if case.timing.best_s > 0:
                case.events_per_sec = events_fired / case.timing.best_s
        if sim_seconds is not None:
            case.sim_seconds = float(sim_seconds)
        if analysis is not None:
            case.causes = dict(getattr(analysis, "causes", {}) or {})
            stall_count = getattr(analysis, "stall_count", None)
            if stall_count is not None:
                case.metrics.setdefault(
                    "attributed_stalls", float(stall_count)
                )
            efficiency = getattr(
                analysis, "mean_transfer_efficiency", None
            )
            if efficiency is not None:
                case.metrics.setdefault(
                    "transfer_efficiency", float(efficiency)
                )
        if causes is not None:
            case.causes = dict(causes)
        for name, value in metrics.items():
            case.metrics[name] = float(value)

    def _find(self, case_id: str | None) -> BenchCase:
        if not self.cases:
            raise BenchError("no case measured yet")
        if case_id is None:
            return self.cases[-1]
        for case in self.cases:
            if case.case_id == case_id:
                return case
        raise BenchError(
            f"unknown case {case_id!r} in suite {self.suite!r}"
        )

    # -- human-readable output -----------------------------------------

    def emit(self, text: str, name: str | None = None) -> None:
        """Print a table and persist it under ``results/<name>.txt``.

        Exactly the contract the old per-script ``emit`` fixture had
        (stdout copy + durable file), except quick runs print only —
        a reduced-scale run must never overwrite a committed
        full-scale table.
        """
        print()
        print(text)
        if self.quick:
            return
        self.results_dir.mkdir(parents=True, exist_ok=True)
        target = self.results_dir / f"{name or self.suite}.txt"
        target.write_text(text + "\n")

    # -- the artifact --------------------------------------------------

    def artifact(self) -> dict:
        """The suite's artifact payload (schema-valid by construction)."""
        return build_artifact(
            self.suite, self.cases, quick=self.quick
        )

    def write(self, path: str | Path | None = None) -> Path:
        """Write ``BENCH_<suite>.json``; returns the path written."""
        target = Path(
            path
            if path is not None
            else self.results_dir / f"BENCH_{self.suite}.json"
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = self.artifact()
        validate_artifact(payload)
        write_json(payload, target)
        return target

    # -- conveniences for suites ---------------------------------------

    def paper_setup(self, quick: bool | None = None):
        """The paper's experiment config + encoded video, memoized.

        Quick mode mirrors the CLI's ``--quick`` convention (9 peers,
        one seed).  The video comes from the process-wide
        :mod:`repro.parallel.cache`, so seventeen suites in one
        process encode it once.
        """
        from ..experiments.config import ExperimentConfig
        from ..parallel.cache import cached_video
        from ..parallel.spec import VideoSpec

        quick = self.quick if quick is None else quick
        config = (
            ExperimentConfig(n_leechers=9, seeds=(7,))
            if quick
            else ExperimentConfig()
        )
        video = cached_video(VideoSpec(seed=config.video_seed))
        return config, video


def figure_metrics(result: Any) -> dict[str, float]:
    """Flatten a ``FigureResult`` to per-series key metrics.

    For every series the figure's own metric plus the two headline
    streaming metrics (stall count, startup time) are averaged over
    the bandwidth axis — the scalars future PRs get compared on.
    """
    metrics: dict[str, float] = {}
    for label, cells in result.series.items():
        names = {result.metric, "stall_count", "startup_time"}
        for name in sorted(names):
            values = [float(getattr(cell, name)) for cell in cells]
            if values:
                metrics[f"{label}.mean_{name}"] = statistics.fmean(
                    values
                )
    return metrics


def _profile_delta(before: dict, after: dict) -> dict:
    counts = {
        category: after["counts"][category]
        - before["counts"].get(category, 0)
        for category in after["counts"]
        if after["counts"][category]
        - before["counts"].get(category, 0)
    }
    wall = {
        category: after["wall_seconds"][category]
        - before["wall_seconds"].get(category, 0.0)
        for category in after["wall_seconds"]
        if category in counts
    }
    return {"counts": counts, "wall_seconds": wall}


# -- artifact build / validate / load ---------------------------------


def build_artifact(
    suite: str, cases: Iterable[BenchCase], quick: bool = False
) -> dict:
    """Assemble the versioned artifact payload for ``cases``."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "quick": bool(quick),
        "created": _manifest.utc_timestamp(),
        "manifest": _manifest.build_manifest(),
        "cases": [case.to_dict() for case in cases],
    }


def _fail(path: str, message: str) -> None:
    raise ArtifactError(f"invalid artifact: {path}: {message}")


def _expect_number(
    value: Any, path: str, minimum: float | None = None
) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value!r}")


def _expect_scalar_map(value: Any, path: str) -> None:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {value!r}")
    for key, item in value.items():
        if not isinstance(key, str):
            _fail(path, f"non-string key {key!r}")
        _expect_number(item, f"{path}[{key!r}]")


def _validate_timing(timing: Any, path: str) -> None:
    if not isinstance(timing, dict):
        _fail(path, "timing must be an object")
    for name in ("rounds", "warmup"):
        value = timing.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(f"{path}.{name}", f"expected an integer, got {value!r}")
    if timing["rounds"] < 1:
        _fail(f"{path}.rounds", "must be >= 1")
    if timing["warmup"] < 0:
        _fail(f"{path}.warmup", "must be >= 0")
    for name in ("best_s", "mean_s", "stdev_s"):
        _expect_number(timing.get(name), f"{path}.{name}", minimum=0.0)
    if timing["best_s"] > timing["mean_s"] * (1 + 1e-9):
        _fail(path, "best_s exceeds mean_s")


def _validate_case(case: Any, index: int, seen: set[str]) -> None:
    path = f"cases[{index}]"
    if not isinstance(case, dict):
        _fail(path, "case must be an object")
    case_id = case.get("id")
    if not isinstance(case_id, str) or not case_id:
        _fail(f"{path}.id", f"expected a non-empty string, got {case_id!r}")
    if case_id in seen:
        _fail(f"{path}.id", f"duplicate case id {case_id!r}")
    seen.add(case_id)
    _validate_timing(case.get("timing"), f"{path}.timing")
    if not isinstance(case.get("params"), dict):
        _fail(f"{path}.params", "expected an object")
    digest = case.get("digest")
    if digest is not None and not isinstance(digest, str):
        _fail(f"{path}.digest", f"expected a string or null, got {digest!r}")
    events = case.get("events_fired")
    if events is not None:
        if not isinstance(events, int) or isinstance(events, bool):
            _fail(f"{path}.events_fired", f"expected an integer, got {events!r}")
        if events < 0:
            _fail(f"{path}.events_fired", "must be >= 0")
    for name in ("events_per_sec", "sim_seconds"):
        value = case.get(name)
        if value is not None:
            _expect_number(value, f"{path}.{name}", minimum=0.0)
    _expect_scalar_map(case.get("metrics"), f"{path}.metrics")
    causes = case.get("causes")
    if causes is not None:
        if not isinstance(causes, dict):
            _fail(f"{path}.causes", "expected an object or null")
        for cause, count in causes.items():
            if (
                not isinstance(cause, str)
                or not isinstance(count, int)
                or isinstance(count, bool)
                or count < 0
            ):
                _fail(
                    f"{path}.causes",
                    f"bad entry {cause!r}: {count!r}",
                )
    profile = case.get("profile")
    if profile is not None:
        if not isinstance(profile, dict):
            _fail(f"{path}.profile", "expected an object or null")
        _expect_scalar_map(
            profile.get("counts"), f"{path}.profile.counts"
        )
        _expect_scalar_map(
            profile.get("wall_seconds"), f"{path}.profile.wall_seconds"
        )


def validate_artifact(payload: Any, what: str = "artifact") -> None:
    """Check an artifact against schema ``repro.bench/1``.

    Args:
        what: how error messages name the document (loaders add the
            file path).

    Raises:
        ArtifactError: naming the first offending field.
    """
    check_schema(payload, SCHEMA, ArtifactError, what)
    suite = payload.get("suite")
    if not isinstance(suite, str) or not suite:
        _fail("suite", f"expected a non-empty string, got {suite!r}")
    if not isinstance(payload.get("quick"), bool):
        _fail("quick", "expected a boolean")
    if not isinstance(payload.get("created"), str):
        _fail("created", "expected a string timestamp")
    manifest = payload.get("manifest")
    if not isinstance(manifest, dict):
        _fail("manifest", "expected an object")
    env = manifest.get("env")
    if not isinstance(env, dict):
        _fail("manifest.env", "expected an object")
    for name in ("python", "platform"):
        if not isinstance(env.get(name), str):
            _fail(f"manifest.env.{name}", "expected a string")
    git = manifest.get("git")
    if git is not None:
        if not isinstance(git, dict):
            _fail("manifest.git", "expected an object or null")
        if not isinstance(git.get("sha"), str):
            _fail("manifest.git.sha", "expected a string")
        if not isinstance(git.get("dirty"), bool):
            _fail("manifest.git.dirty", "expected a boolean")
    cases = payload.get("cases")
    if not isinstance(cases, list):
        _fail("cases", "expected a list")
    seen: set[str] = set()
    for index, case in enumerate(cases):
        _validate_case(case, index, seen)


def load_artifact(path: str | Path) -> dict:
    """Read and validate one ``BENCH_*.json`` artifact.

    Raises:
        ArtifactError: unreadable file, bad JSON, or schema violation.
    """
    payload = read_json(path, ArtifactError, "artifact")
    validate_artifact(payload, f"artifact {path}")
    return payload


# -- suite discovery (for ``repro bench``) ----------------------------


def discover_suites(bench_dir: str | Path) -> dict[str, Path]:
    """Map suite name -> script path for ``bench_*.py`` files."""
    base = Path(bench_dir)
    return {
        script.stem.removeprefix("bench_"): script
        for script in sorted(base.glob("bench_*.py"))
    }


def load_suite(name: str, script: str | Path):
    """Import a benchmark script by path; returns its module.

    The module must expose ``run_suite(harness, quick=False)``.
    """
    import importlib.util
    import sys

    script = Path(script)
    spec = importlib.util.spec_from_file_location(
        f"repro_bench.{name}", script
    )
    if spec is None or spec.loader is None:
        raise BenchError(f"cannot import benchmark script {script}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise BenchError(
            f"benchmark script {script} failed to import: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not callable(getattr(module, "run_suite", None)):
        raise BenchError(
            f"benchmark script {script} does not define "
            "run_suite(harness, quick=False)"
        )
    return module
