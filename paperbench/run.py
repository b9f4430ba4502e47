"""Benchmark the paper's figure grid end to end, or layer by layer.

Run from the repository root::

    python3 paperbench/run.py --workload scarce --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one untraced and one traced pass of the same inputs
and reports per-layer metrics (see ``paperbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when an
output check failed and 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Scratch space for stores and probes, removed when the run ends.
WORK_DIR = ROOT / ".paperbench-work"
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Merge passes per side of a traced merge run (one pass is ~20 ms).
TRACE_MERGE_PASSES = 100
#: What :func:`_pace_kernel` takes on an unloaded benchmark host (a 2-core
#: Xeon VM, CPython 3.11.7).  Timed units are rescaled to this speed.
REFERENCE_PACE_S = 0.0033
#: Seconds between two measurements of the host's pace.
PACE_INTERVAL_S = 0.5
#: Fewest timed passes a run makes, however long they take.
MIN_PASSES = 3
#: Accepted range of ``trace.coverage``.
COVERAGE_TOLERANCE = 0.05
WORKLOAD_NAMES = ("scarce", "ample", "merge")
#: Seed reserved for confirming a gain: never used while a change is
#: tuned, and every gain claim must also hold on it.
HELD_OUT_SEED = 20150


def _import_program():
    """Put ``src`` on the path and import the benchmark's modules."""
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import workloads

    return layers, workloads


# -- provenance --------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    """Which code and which host produced a result."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "platform": platform.platform(),
    }


# -- set-up ------------------------------------------------------------


def setup_probe(workload: str, seed: int, directory: Path) -> None:
    """One cold set-up: imports, encode, splice (merge: plan, shards)."""
    _, workloads = _import_program()
    if workload == "merge":
        workloads.merge_setup(directory, seed)
    else:
        workloads.prime_simulation(
            workloads.simulation_cells(workload, seed)
        )


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Time :data:`SETUP_PROBES` cold set-ups, each in a fresh process."""
    times = []
    for probe in range(SETUP_PROBES):
        directory = work / f"probe{probe}"
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            str(directory),
            "--workload",
            workload,
            "--seed",
            str(seed),
        ]
        started = perf_counter()
        done = subprocess.run(command, capture_output=True, timeout=150)
        times.append(perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(
                "set-up probe failed: "
                + done.stderr.decode(errors="replace")
            )
    return times


# -- runs --------------------------------------------------------------


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self, scale: float) -> float:
        return self.key * scale + self.value


def _pace_kernel() -> float:
    """Seconds a fixed pure-Python kernel takes on the host right now.

    The kernel uses only the standard library (objects with slots,
    method calls, a heap, a dict), the operations the simulator spends
    its time on, so its speed follows the shared host's slow and fast
    spells but never the program's code.
    """
    heap: list = []
    table: dict[int, float] = {}
    started = perf_counter()
    for i in range(4000):
        item = _Item((i * 7919) % 1009 / 1009.0, i)
        heapq.heappush(heap, (item.weight(0.5), i, item))
        table[i % 251] = table.get(i % 251, 0.0) + item.key
        if len(heap) > 256:
            heapq.heappop(heap)
    return perf_counter() - started


class HostPace:
    """The host's current pace: the kernel's median of three runs.

    Re-measured at most every :data:`PACE_INTERVAL_S`: running the
    kernel before every short merge pass slowed the passes themselves
    (its allocations disturb the allocator and caches they reuse).
    """

    def __init__(self) -> None:
        self._value = 0.0
        self._measured_at = float("-inf")

    def __call__(self) -> float:
        if perf_counter() - self._measured_at >= PACE_INTERVAL_S:
            self._value = statistics.median(
                _pace_kernel() for _ in range(3)
            )
            self._measured_at = perf_counter()
        return self._value


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """One benchmark invocation: a workload, a seed and a run length."""

    def __init__(
        self, workload: str, seed: int, seconds: float, work: Path
    ) -> None:
        self.layers, self.workloads = _import_program()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cells = None
        self.inputs = None
        self.reference = None

    # -- inputs --------------------------------------------------------

    def setup(self) -> None:
        """Set-up in this process (untimed; probes measure set-up)."""
        wl = self.workloads
        if self.workload == "merge":
            stores = self.work / "stores"
            if (self.work / "probe0").is_dir():
                (self.work / "probe0").rename(stores)
                self.inputs = wl.merge_inputs(stores, self.seed)
            else:
                self.inputs = wl.merge_setup(stores, self.seed)
        else:
            self.cells = wl.simulation_cells(self.workload, self.seed)
            wl.prime_simulation(self.cells)

    def one_pass(self, obs=None, pace=None):
        """One pass of the workload, with its output checks applied."""
        wl = self.workloads
        if self.workload == "merge":
            target = self.work / "target"
            result = wl.merge_pass(
                self.inputs, self.reference, target, pace=pace
            )
            wl.empty_targets(self.inputs, target)
        else:
            result = wl.simulation_pass(self.cells, obs=obs, pace=pace)
        self.attempted += result.runs
        if result.problems:
            self.failed += result.runs if not result.cells else 0
            self.problems.extend(result.problems)
        return result

    # -- end to end ----------------------------------------------------

    def end_to_end(self) -> dict:
        """Untraced passes for ``seconds``; the end-to-end metrics."""
        setup_times = measure_setup(self.workload, self.seed, self.work)
        self.setup()
        if self.workload == "merge":
            self.reference = self.workloads.direct_sweep(self.inputs)
            self.one_pass()  # warm-up: lazy imports, page cache
            self.attempted = 0
        # Write set-up's files back now, so the timed passes do not
        # share the disk with that writeback.
        os.sync()
        pace = HostPace()
        results = []
        started = perf_counter()
        while (
            len(results) < MIN_PASSES
            or perf_counter() - started < self.seconds
        ):
            result = self.one_pass(pace=pace)
            # Keep no outputs across passes: a merge run makes hundreds.
            result.cells = []
            results.append(result)
        digests = {result.digest for result in results}
        if len(digests) != 1:
            self.problems.append(
                f"{len(digests)} different outputs from identical passes"
            )
        print(
            f"{len(results)} passes, wall seconds: "
            + " ".join(f"{r.wall_s:.4f}" for r in results)
        )
        # Each timed unit's median over the passes, summed over the
        # pass: a slow spell on the shared host spoils a few samples
        # of each unit rather than a whole pass.  Each sample is first
        # rescaled by how fast the host ran the pace kernel just
        # before it, relative to REFERENCE_PACE_S.
        walls = zip(*(r.unit_walls for r in results))
        paces = zip(*(r.unit_paces for r in results))
        wall = sum(
            statistics.median(
                w * REFERENCE_PACE_S / p for w, p in zip(unit, pace)
            )
            for unit, pace in zip(walls, paces)
        )
        host_wall = sum(
            statistics.median(unit)
            for unit in zip(*(r.unit_walls for r in results))
        )
        print(f"host seconds per pass (not rescaled): {host_wall:.4f}")
        return {
            "wall_s": _metric(wall, "s"),
            "runs_per_s": _metric(_ratio(results[0].runs, wall), "1/s"),
            "events_per_s": _metric(_ratio(results[0].events, wall), "1/s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }

    # -- per layer -----------------------------------------------------

    def _passes(self, count: int, obs=None) -> list:
        return [self.one_pass(obs=obs) for _ in range(count)]

    def per_layer(self) -> dict:
        """A traced set-up, then one untraced and one traced pass."""
        from repro.obs.context import Observability
        from repro.parallel.cache import clear_caches, memo_counts

        trace = self.layers.LayerTrace()
        clear_caches()
        with trace:
            trace.reset()
            self.setup()
            trace.flush()
        setup_self = dict(trace.self_s)

        count = TRACE_MERGE_PASSES if self.workload == "merge" else 1
        if self.workload == "merge":
            self.reference = self.workloads.direct_sweep(self.inputs)
            self.one_pass()  # warm-up, as in the untraced run
        untraced = self._passes(count)
        obs = None if self.workload == "merge" else (
            Observability.metrics_only()
        )
        memo_before = memo_counts()
        with trace:
            trace.reset()
            traced = self._passes(count, obs=obs)
            trace.flush()
        memo_after = memo_counts()

        untraced_digests = {r.digest for r in untraced}
        traced_digests = {r.digest for r in traced}
        if untraced_digests != traced_digests or len(traced_digests) != 1:
            self.problems.append(
                "sim.result_digest differs between traced and untraced "
                "passes: the wrappers changed behaviour"
            )
        metrics = self._layer_metrics(trace, setup_self, traced, count)
        registry = obs.registry.counters() if obs is not None else {}
        metrics.update(self._program_counters(registry, count))
        memo = [b - a for a, b in zip(memo_before, memo_after)]
        metrics["parallel.cache.hits"] = _metric(
            (memo[0] + memo[2]) / count, "count"
        )
        metrics["parallel.cache.misses"] = _metric(
            (memo[1] + memo[3]) / count, "count"
        )

        traced_wall = sum(r.wall_s for r in traced) / count
        untraced_wall = sum(r.wall_s for r in untraced) / count
        covered = sum(
            seconds
            for layer, seconds in trace.self_s.items()
            if layer != self.layers.OUTSIDE
        )
        coverage = covered / sum(r.wall_s for r in traced)
        if coverage < 1.0 - COVERAGE_TOLERANCE:
            self.problems.append(
                f"trace.coverage {coverage:.3f} below "
                f"{1.0 - COVERAGE_TOLERANCE}"
            )
        metrics["trace.coverage"] = _metric(coverage, "ratio")
        metrics["trace.wall_s"] = _metric(traced_wall, "s")
        metrics["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
        metrics["trace.overhead_s"] = _metric(
            traced_wall - untraced_wall, "s"
        )
        metrics["trace.missing_hooks"] = _metric(
            len(trace.missing), "count"
        )
        if trace.missing:
            print("missing trace hooks: " + ", ".join(trace.missing))
        return metrics

    def _layer_metrics(self, trace, setup_self, traced, count) -> dict:
        lay = self.layers
        setup_layers = ("video.encode", "core.splice")
        metrics = {}
        busy = sum(
            seconds
            for layer, seconds in trace.self_s.items()
            if layer != lay.OUTSIDE
        )
        for layer in lay.LAYERS:
            if layer in setup_layers:
                metrics[f"{layer}.self_s"] = _metric(
                    setup_self.get(layer, 0.0), "s"
                )
                continue
            seconds = trace.self_s.get(layer, 0.0)
            metrics[f"{layer}.self_s"] = _metric(seconds / count, "s")
            metrics[f"{layer}.share"] = _metric(
                seconds / busy if busy else 0.0, "ratio"
            )
        metrics["setup.parallel.store.put.self_s"] = _metric(
            setup_self.get("parallel.store.put", 0.0), "s"
        )
        counts = trace.counts
        for name in sorted({c for c, _ in lay.CALL_COUNTERS.values()}):
            metrics[name] = _metric(counts.get(name, 0) / count, "count")
        schedules = counts.get("net.engine.schedules", 0)
        metrics["net.engine.cancel_ratio"] = _metric(
            _ratio(counts.get("net.engine.cancels", 0), schedules), "ratio"
        )
        hits = sum(r.store_hits for r in traced)
        misses = sum(r.store_misses for r in traced)
        metrics["parallel.store.hits"] = _metric(hits / count, "count")
        metrics["parallel.store.misses"] = _metric(misses / count, "count")
        metrics["parallel.store.hit_ratio"] = _metric(
            _ratio(hits, hits + misses), "ratio"
        )
        simulated = self.workload != "merge"
        events = sum(r.events for r in traced) / count
        cells = [cell for r in traced for cell in r.cells]
        metrics["net.engine.events"] = _metric(
            events if simulated else 0, "count"
        )
        metrics["sim.events"] = _metric(events, "count")
        metrics["sim.finished_fraction"] = _metric(
            statistics.fmean(c.finished_fraction for c in cells), "ratio"
        )
        metrics["sim.stall_count"] = _metric(
            statistics.fmean(c.stall_count for c in cells), "count"
        )
        metrics["sim.result_digest"] = _metric(
            int(traced[0].digest[:12] or "0", 16), "digest"
        )
        return metrics

    @staticmethod
    def _program_counters(counters: dict, count: int) -> dict:
        def value(name: str) -> float:
            counter = counters.get(name)
            return counter.value / count if counter is not None else 0.0

        updates = value("net.flownet.updates")
        resolves = value("net.flownet.resolves")
        requests = value("p2p.requests_sent")
        retries = value("p2p.requests_retried")
        return {
            "net.flownet.updates": _metric(updates, "count"),
            "net.flownet.resolves": _metric(resolves, "count"),
            "net.flownet.resolves_per_update": _metric(
                _ratio(resolves, updates), "ratio"
            ),
            "p2p.leecher.requests": _metric(requests, "count"),
            "p2p.leecher.retries": _metric(retries, "count"),
            "p2p.leecher.retry_ratio": _metric(
                _ratio(retries, requests), "ratio"
            ),
            "p2p.peer.uploads": _metric(
                value("tcp.transfers_started"), "count"
            ),
            "player.stalls": _metric(value("player.stalls"), "count"),
        }


# -- command line ------------------------------------------------------


def _seed(text: str) -> int:
    return HELD_OUT_SEED if text == "held-out" else int(text)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument(
        "--seed",
        type=_seed,
        required=True,
        help="workload seed, or 'held-out' for the reserved seed",
    )
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        metavar="PATH",
        help="also write the result and its provenance to PATH "
        "(refused unless the git tree is clean)",
    )
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0
    info = provenance()
    if args.record and not (info["git_sha"] and info["git_dirty"] is False):
        print(
            "refusing to record a baseline: the tree is dirty or not a "
            "git checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise ImportError("no repro package")
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, args.seconds, work)
        metrics = runner.per_layer() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print("provenance " + json.dumps(info, sort_keys=True))
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if args.record:
        record = {
            "provenance": info,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
        }
        Path(args.record).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
