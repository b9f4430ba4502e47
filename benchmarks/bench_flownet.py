"""Incremental vs global flow-solver throughput.

Drives identical TCP workloads through the incremental
:class:`~repro.net.flownet.FlowNetwork` and the pre-incremental
:class:`~tests.net.reference.ReferenceFlowNetwork`, and reports
simulated events per wall-clock second for each.

Two topologies, shaped like the paper's streaming experiments:

* **star** — one seed serves every leecher over a shared uplink.
  Segment fetches start at synchronized segment boundaries and all
  transfers share one RTT, so bursts of same-timestamp updates are the
  norm: this stresses update coalescing.
* **multibottleneck** — leechers are partitioned into groups, each
  with its own backbone link, and fetch only from group neighbours.
  The flow graph stays split into one part per group: this stresses
  a water-fill over many bottleneck links.

Usage::

    python benchmarks/bench_flownet.py             # full run, writes artifacts
    python benchmarks/bench_flownet.py --quick     # small sizes, quick artifact
    python benchmarks/bench_flownet.py --quick --check
        # CI gate: re-measure the quick rows and fail if the
        # incremental solver's events/sec fell more than 30% below the
        # committed artifact's baseline for the same topology and size.

Every cell is timed in samples that repeat the workload until the
sample lasts at least ``_MIN_SAMPLE_S``, until ``_BUDGET_S`` is spent;
the table and the gate use the median sample.  A quick cell lasts a
few milliseconds, so a single timing of it is mostly scheduler noise.
Each sample is rescaled by the host's pace, measured just before it
with paperbench's pace kernel, to paperbench's reference pace: wall
times and events/s are those of the reference host, so the gate
follows the solver rather than a shared host's slow and fast spells.

Both solvers must agree on the simulation itself — same transfer
completions, same final simulated time — or the run aborts: a speedup
over a solver computing something else would be meaningless.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import re
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# The reference solver lives in the test suite (``tests.net``).
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.link import Link
from repro.net.tcp import TcpParams, start_tcp_transfer
from repro.obs.tracer import NULL_TRACER, EventTracer
from tests.net.reference import ReferenceFlowNetwork

_spec = importlib.util.spec_from_file_location(
    "paperbench_run", _ROOT / "paperbench" / "run.py"
)
_paperbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_paperbench)

ARTIFACT = Path(__file__).resolve().parent / "results" / "flownet_solver.txt"

#: CI gate: fail when incremental events/sec drops below this fraction
#: of the committed baseline.
REGRESSION_FLOOR = 0.70

_FULL_SIZES = (20, 100, 500)
_QUICK_SIZES = (20,)
_ROUNDS = 5
_SEGMENT_INTERVAL = 2.0
_SEGMENT_BYTES = 40_000.0
_SEED = 20150629  # ICDCS'15 submission-year flavoured, but arbitrary
_MIN_SAMPLE_S = 0.2
_BUDGET_S = 1.5

_SOLVERS = {
    "incremental": FlowNetwork,
    "reference": ReferenceFlowNetwork,
}


def _build_star(network, n_peers, rng):
    """Seed-to-all star; returns per-round fetch thunks."""
    seed_up = Link("seed_up", 25_000.0 * n_peers, latency=0.02)
    downs = [
        Link(f"down{i}", 100_000.0, latency=0.02) for i in range(n_peers)
    ]
    # Every leecher fetches the *same* segment of the video each round,
    # so the size varies per round, not per peer.
    sizes = [
        _SEGMENT_BYTES * rng.uniform(0.8, 1.2) for _ in range(_ROUNDS)
    ]

    def fetches(round_index):
        return [
            ((seed_up, downs[i]), sizes[round_index])
            for i in range(n_peers)
        ]

    return fetches


def _build_multibottleneck(network, n_peers, rng, group_size=10):
    """Disjoint neighbour groups, each behind its own backbone link."""
    n_groups = max(1, n_peers // group_size)
    backbones = [
        Link(f"bb{g}", 150_000.0, latency=0.01) for g in range(n_groups)
    ]
    ups = [Link(f"up{i}", 50_000.0, latency=0.01) for i in range(n_peers)]
    downs = [
        Link(f"down{i}", 100_000.0, latency=0.01) for i in range(n_peers)
    ]
    plan = []
    for _ in range(_ROUNDS):
        size = _SEGMENT_BYTES * rng.uniform(0.8, 1.2)
        row = []
        for i in range(n_peers):
            group = min(i // group_size, n_groups - 1)
            low = group * group_size
            high = min(low + group_size, n_peers)
            source = rng.randrange(low, high)
            if source == i:
                source = low if i != low else high - 1
            row.append(
                ((ups[source], backbones[group], downs[i]), size)
            )
        plan.append(row)

    def fetches(round_index):
        return plan[round_index]

    return fetches


_TOPOLOGIES = {
    "star": _build_star,
    "multibottleneck": _build_multibottleneck,
}


def run_workload(solver, topology, n_peers, tracer=NULL_TRACER):
    """Run one workload; return (events, wall_s, completions, end_time)."""
    sim = Simulator()
    network = _SOLVERS[solver](sim)
    rng = random.Random(_SEED + n_peers)
    fetches = _TOPOLOGIES[topology](network, n_peers, rng)
    params = TcpParams()
    completed = []

    def start_round(round_index):
        for route, size in fetches(round_index):
            start_tcp_transfer(
                sim,
                network,
                route,
                size,
                params=params,
                on_complete=completed.append,
                tracer=tracer,
            )

    for round_index in range(_ROUNDS):
        sim.schedule_at(
            round_index * _SEGMENT_INTERVAL, start_round, round_index
        )
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.events_fired, wall, len(completed), sim.now


def _measure(solver, topology, n_peers, tracer=NULL_TRACER):
    """Time one cell in samples of at least ``_MIN_SAMPLE_S``.

    Samples are taken until ``_BUDGET_S`` is spent (at least one).
    Returns ``((events, completions, end_time), walls)`` with one wall
    time per run for each sample, rescaled to the reference pace.
    """
    pace = _paperbench.HostPace()
    walls = []
    spent = 0.0
    while spent < _BUDGET_S:
        scale = _paperbench.REFERENCE_PACE_S / pace()
        runs = 0
        sample = 0.0
        while sample < _MIN_SAMPLE_S:
            events, wall, done, end = run_workload(
                solver, topology, n_peers, tracer
            )
            runs += 1
            sample += wall
        walls.append(sample / runs * scale)
        spent += sample
    return (events, done, end), walls


def run_suite(harness, quick=False):
    """Measure every topology x size x solver cell through ``harness``.

    Returns rows of ``(topology, n, solver, events, wall_s, evps)``,
    verifying the two solvers simulated the same thing.
    """
    sizes = _QUICK_SIZES if quick else _FULL_SIZES
    rows = []
    for topology in _TOPOLOGIES:
        for n_peers in sizes:
            outcomes = {}
            for solver in _SOLVERS:
                outcome, walls = _measure(solver, topology, n_peers)
                samples = iter(walls)
                # The harness records the samples already taken.
                events, done, end = harness.case(
                    f"{topology}/{n_peers}/{solver}",
                    lambda: (outcome, next(samples)),
                    self_timed=True,
                    rounds=len(walls),
                    params={
                        "topology": topology,
                        "n_peers": n_peers,
                        "solver": solver,
                        "rounds": _ROUNDS,
                    },
                    digest_of=(
                        "flownet",
                        topology,
                        n_peers,
                        solver,
                        _SEED,
                        _ROUNDS,
                        _SEGMENT_BYTES,
                    ),
                )
                wall = statistics.median(walls)
                harness.annotate(events_fired=events, sim_seconds=end)
                outcomes[solver] = (done, end)
                rows.append(
                    (topology, n_peers, solver, events, wall, events / wall)
                )
            inc_done, inc_end = outcomes["incremental"]
            ref_done, ref_end = outcomes["reference"]
            if inc_done != ref_done or abs(inc_end - ref_end) > 1e-6 * (
                1.0 + ref_end
            ):
                raise SystemExit(
                    f"solver mismatch on {topology}/{n_peers}: "
                    f"incremental finished {inc_done} transfers at "
                    f"t={inc_end}, reference {ref_done} at t={ref_end}"
                )
            inc_evps = rows[-2][5]
            ref_evps = rows[-1][5]
            harness.annotate(
                f"{topology}/{n_peers}/incremental",
                speedup_vs_reference=inc_evps / ref_evps,
            )
    harness.emit(render(rows), name="flownet_solver")
    return rows


def render(rows):
    """Human-readable report with machine-parsable data lines."""
    lines = [
        "flow solver throughput: incremental vs global re-solve",
        f"({_ROUNDS} synchronized segment rounds, "
        f"{_SEGMENT_BYTES:.0f} B nominal segments, seed {_SEED})",
        "",
        f"{'topology':<16} {'peers':>5} {'solver':<12} "
        f"{'events':>8} {'wall_s':>8} {'events/s':>10}",
    ]
    by_cell = {}
    for topology, n_peers, solver, events, wall, evps in rows:
        by_cell[(topology, n_peers, solver)] = evps
        lines.append(
            f"{topology:<16} {n_peers:>5} {solver:<12} "
            f"{events:>8} {wall:>8.3f} {evps:>10.0f}"
        )
    lines.append("")
    for (topology, n_peers), _ in {
        (t, n): None for t, n, *_ in rows
    }.items():
        ratio = by_cell[(topology, n_peers, "incremental")] / by_cell[
            (topology, n_peers, "reference")
        ]
        lines.append(f"speedup {topology:<16} n={n_peers:<4} {ratio:6.2f}x")
    return "\n".join(lines)


_ROW_RE = re.compile(
    r"^(?P<topology>\w+)\s+(?P<n>\d+)\s+(?P<solver>\w+)\s+"
    r"(?P<events>\d+)\s+(?P<wall>[\d.]+)\s+(?P<evps>\d+)\s*$"
)


def parse_artifact(text):
    """Extract ``(topology, n, solver) -> events/s`` from a report."""
    baseline = {}
    for line in text.splitlines():
        match = _ROW_RE.match(line)
        if match:
            baseline[
                (
                    match["topology"],
                    int(match["n"]),
                    match["solver"],
                )
            ] = float(match["evps"])
    return baseline


def check_regression(rows, baseline):
    """Compare measured incremental events/s against the artifact."""
    failures = []
    compared = 0
    for topology, n_peers, solver, _, _, evps in rows:
        if solver != "incremental":
            continue
        key = (topology, n_peers, solver)
        if key not in baseline:
            continue
        compared += 1
        floor = baseline[key] * REGRESSION_FLOOR
        status = "ok" if evps >= floor else "REGRESSION"
        print(
            f"check {topology}/{n_peers}: measured {evps:.0f} ev/s, "
            f"baseline {baseline[key]:.0f}, floor {floor:.0f} -> {status}"
        )
        if evps < floor:
            failures.append(key)
    if compared == 0:
        raise SystemExit(
            "no measured cell matches the artifact baseline "
            f"({ARTIFACT}); re-record it with a full run"
        )
    if failures:
        raise SystemExit(
            f"events/sec regressed >{(1 - REGRESSION_FLOOR):.0%} on: "
            + ", ".join(f"{t}/{n}" for t, n, _ in failures)
        )


def check_null_tracer_overhead(baseline, n_peers):
    """Guard the untraced (NullTracer) hot path against regression.

    Every ``tracer.emit`` site in the TCP layer is gated on one
    attribute check, so a run with :data:`NULL_TRACER` must stay as
    fast as the committed baseline — if instrumentation starts paying
    even with tracing disabled, this trips before users notice slower
    sweeps.  The traced variant is measured alongside purely for the
    printed overhead figure; only the untraced path is gated.
    """
    key = ("star", n_peers, "incremental")
    if key not in baseline:
        raise SystemExit(
            f"no baseline for {key} in {ARTIFACT}; "
            "re-record it with a full run"
        )
    (events, _, _), walls = _measure("incremental", "star", n_peers)
    null_evps = events / statistics.median(walls)

    tracer = EventTracer(capacity=100_000)
    (events, _, _), walls = _measure(
        "incremental", "star", n_peers, tracer
    )
    traced_evps = events / statistics.median(walls)

    floor = baseline[key] * REGRESSION_FLOOR
    overhead = 1.0 - traced_evps / null_evps
    status = "ok" if null_evps >= floor else "REGRESSION"
    print(
        f"nulltracer star/{n_peers}: untraced {null_evps:.0f} ev/s, "
        f"traced {traced_evps:.0f} ev/s "
        f"({overhead:+.1%} tracing overhead), floor {floor:.0f} "
        f"-> {status}"
    )
    if null_evps < floor:
        raise SystemExit(
            "untraced (NullTracer) path regressed "
            f">{(1 - REGRESSION_FLOOR):.0%} below baseline on star/"
            f"{n_peers}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"only swarm sizes {_QUICK_SIZES}; do not overwrite the "
        "committed table",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare measured incremental events/sec against the "
        "committed artifact and fail on a >30%% regression",
    )
    args = parser.parse_args(argv)

    from repro.obs.bench import BenchHarness

    harness = BenchHarness(
        "flownet", results_dir=ARTIFACT.parent, quick=args.quick
    )
    rows = run_suite(harness, quick=args.quick)

    if args.check:
        if not ARTIFACT.exists():
            raise SystemExit(f"missing baseline artifact: {ARTIFACT}")
        baseline = parse_artifact(ARTIFACT.read_text())
        check_regression(rows, baseline)
        check_null_tracer_overhead(baseline, _QUICK_SIZES[0])
    else:
        target = harness.write()
        print(f"\nwrote {target}")


def test_flownet_solver_quick(harness):
    """Pytest entry point: quick sizes, no table overwrite."""
    harness.quick = True
    rows = run_suite(harness, quick=True)
    by_cell = {
        (topology, n, solver): evps
        for topology, n, solver, _, _, evps in rows
    }
    for topology in _TOPOLOGIES:
        for n_peers in _QUICK_SIZES:
            assert (
                by_cell[(topology, n_peers, "incremental")]
                > by_cell[(topology, n_peers, "reference")]
            )


if __name__ == "__main__":
    main()
