"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart`` — splice + stream at one bandwidth, print metrics;
* ``fig2`` / ``fig3`` / ``fig4`` / ``fig5`` — regenerate a paper
  figure (``--quick`` runs a reduced sweep for a fast look);
* ``overhead`` — the splicing byte-overhead table (ablation A3);
* ``rspec`` — print the experiment's request RSpec XML (Fig. 1);
* ``timeline`` — run one traced swarm and render its per-peer
  session timelines, stalls marked by cause;
* ``trace`` — summarize a JSONL trace written by ``reproduce --trace``;
* ``analyze`` — diagnose a JSONL trace: per-peer timelines, stall
  root-cause attribution, and an optional cause-marked Gantt chart;
* ``bench`` — run a benchmark suite through the shared harness and
  write its versioned ``BENCH_<suite>.json`` artifact;
* ``compare`` — diff two benchmark artifacts and exit non-zero on
  regression (the CI perf gate);
* ``lint`` — determinism & sim-safety static analysis over the
  source tree; exits 1 on findings or stale suppressions (the CI
  lint gate);
* ``sweep`` — shard a figure sweep across machines: ``plan``
  partitions runs by content digest, ``run`` executes one shard into
  a result store, ``merge`` unions shard stores into the final
  figure (byte-identical to a single-machine run), and ``status``
  aggregates shard heartbeats into a live fleet view (progress bars,
  straggler flagging, dead-shard detection);
* ``ops`` — render a ``repro.ops/1`` wall-clock span log as an
  indented tree with a critical-path summary.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from .core.splicer import DurationSplicer, GopSplicer
from .errors import ConfigurationError, SpliceError, TraceError
from .experiments import fig2, fig3, fig4, fig5
from .experiments.ablations import run_overhead
from .experiments.config import ExperimentConfig, make_swarm_config
from .experiments.report import format_figure
from .obs import (
    Observability,
    analyze_events,
    attribute_stalls,
    build_timelines,
    dump_jsonl,
    event_counts,
    load_jsonl,
    peer_summaries,
    render_analysis,
    render_gantt,
    render_trace_summary,
)
from .obs.events import TraceEvent
from .p2p.swarm import Swarm, SwarmConfig
from .testbed.rspec import star_rspec
from .units import kB_per_s
from .video.encoder import encode_paper_video

_FIGURES = {
    "fig2": (fig2, 1),
    "fig3": (fig3, 1),
    "fig4": (fig4, 2),
    "fig5": (fig5, 1),
}

#: Segment duration of the representative run ``--trace`` records.
_TRACE_SEGMENT_DURATION = 4.0


class _VersionAction(argparse.Action):
    """``--version``: the version line plus the environment block.

    The first line stays ``repro <version>`` (scripts parse it); the
    following lines are the same python/platform/git facts every
    benchmark artifact embeds, so pasted reports are self-describing.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        from .lint import CATALOG_VERSION, LINT_SCHEMA, rule_ids
        from .obs.manifest import render_environment

        print(f"repro {__version__}")
        print(render_environment())
        ids = rule_ids()
        print(
            f"lint {LINT_SCHEMA} catalog v{CATALOG_VERSION} "
            f"({len(ids)} rules: {' '.join(ids)})"
        )
        parser.exit()


def _bench_dir() -> Path | None:
    """Locate ``benchmarks/``: the cwd first, then the checkout.

    ``repro bench`` is usually run from the repository root, but the
    fallback keeps it working from anywhere inside a source checkout
    (the suites are not installed with the package).
    """
    for candidate in (
        Path("benchmarks"),
        Path(__file__).resolve().parent.parent.parent / "benchmarks",
    ):
        if candidate.is_dir():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Video Splicing Techniques for P2P "
            "Video Streaming' (ICDCS 2015)"
        ),
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        nargs=0,
        help=(
            "print the version plus the environment block "
            "(python, platform, cpus, git revision)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser(
        "quickstart", help="splice + stream at one bandwidth"
    )
    quickstart.add_argument(
        "--bandwidth", type=float, default=256.0, help="peer kB/s"
    )
    quickstart.add_argument("--seed", type=int, default=7)

    for name in _FIGURES:
        figure = sub.add_parser(name, help=f"regenerate {name}")
        figure.add_argument(
            "--quick",
            action="store_true",
            help="reduced sweep (1 seed, 2 bandwidths)",
        )

    sub.add_parser("overhead", help="splicing byte-overhead table")

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every figure in one run"
    )
    reproduce.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (9 peers, 1 seed), figures only",
    )
    reproduce.add_argument(
        "--output", default=None, help="also write the report here"
    )
    reproduce.add_argument(
        "--figure",
        choices=("2", "3", "4", "5"),
        default=None,
        help="regenerate only this figure",
    )
    reproduce.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the sweep (default: auto-detect "
            "from the available cores / REPRO_JOBS; 1 = serial "
            "in-process)"
        ),
    )
    reproduce.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "also run one fully-traced representative swarm and write "
            "its JSONL trace here (inspect with 'repro trace PATH'); "
            "the traced run always executes in-process regardless of "
            "--jobs so its trace stays on a single simulated clock"
        ),
    )
    reproduce.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "trace + diagnose every run and print a stall-cause "
            "breakdown next to the figure table (requires --figure)"
        ),
    )
    reproduce.add_argument(
        "--progress",
        nargs="?",
        const="live",
        choices=("live", "plain"),
        default=None,
        help=(
            "sweep progress on stderr: 'live' (the default when the "
            "flag is given bare) rewrites one status line and is "
            "automatically disabled when stderr is not a TTY; "
            "'plain' appends one rate-limited line per completed "
            "cell, for CI logs and redirected output"
        ),
    )
    reproduce.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help=(
            "also write a JSON run manifest here (schema "
            "repro.manifest/1): command, environment block, git "
            "revision, and sweep totals"
        ),
    )
    reproduce.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "cache per-run results in a content-addressed store "
            "(default directory: $REPRO_STORE or .repro-store); "
            "re-running an unchanged sweep recomputes nothing, and "
            "completed runs are committed as they finish, so an "
            "interrupted sweep resumes from the store"
        ),
    )
    reproduce.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result store even if --cache/--resume is given",
    )
    reproduce.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep from the result store "
            "(implies --cache; prints how many runs were restored)"
        ),
    )

    rspec = sub.add_parser("rspec", help="print the slice RSpec XML")
    rspec.add_argument("--peers", type=int, default=19)
    rspec.add_argument(
        "--capacity", type=int, default=8192, help="kbit/s per link"
    )

    timeline = sub.add_parser(
        "timeline", help="per-peer session timelines for one run"
    )
    timeline.add_argument("--bandwidth", type=float, default=256.0)
    timeline.add_argument("--duration", type=float, default=4.0)
    timeline.add_argument("--peers", type=int, default=9)
    timeline.add_argument("--seed", type=int, default=7)

    trace = sub.add_parser(
        "trace", help="summarize a JSONL trace file"
    )
    trace.add_argument("path", help="trace written by reproduce --trace")

    analyze = sub.add_parser(
        "analyze",
        help=(
            "diagnose a JSONL trace: timelines + stall root causes"
        ),
    )
    analyze.add_argument(
        "path", help="trace written by reproduce --trace"
    )
    analyze.add_argument(
        "--gantt",
        action="store_true",
        help="also render the cause-marked per-peer Gantt chart",
    )
    analyze.add_argument(
        "--width",
        type=int,
        default=72,
        help="Gantt time-axis width in columns",
    )

    bench = sub.add_parser(
        "bench",
        help=(
            "run a benchmark suite and write its JSON artifact"
        ),
    )
    bench.add_argument(
        "suite",
        help=(
            "suite name (benchmarks/bench_<suite>.py), or 'list' to "
            "enumerate the available suites"
        ),
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help=(
            "reduced-scale run: the artifact is flagged quick and "
            "the committed human-readable tables are left untouched"
        ),
    )
    bench.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "artifact path (default: "
            "benchmarks/results/BENCH_<suite>.json)"
        ),
    )

    lint = sub.add_parser(
        "lint",
        help=(
            "determinism & sim-safety static analysis; exit 1 on "
            "findings or stale suppressions"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "files or directories to lint (default: the src/repro "
            "tree of the enclosing checkout)"
        ),
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "text (default): path:line:col findings with fix hints; "
            "json: one repro.lint/1 document on stdout"
        ),
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help=(
            "enable only these rule ids (repeatable, comma lists "
            "accepted); overrides [tool.repro.lint] select"
        ),
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help=(
            "disable these rule ids (repeatable, comma lists "
            "accepted); overrides [tool.repro.lint] ignore"
        ),
    )
    lint.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding/suppression counts",
    )

    compare = sub.add_parser(
        "compare",
        help=(
            "diff two benchmark artifacts; exit 1 on regression"
        ),
    )
    compare.add_argument(
        "baseline", help="reference BENCH_*.json (usually committed)"
    )
    compare.add_argument(
        "candidate", help="freshly measured BENCH_*.json"
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help=(
            "minimum percentage change that counts (default 10; "
            "widened per case by 3 relative standard deviations of "
            "the noisier artifact)"
        ),
    )
    compare.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "metric to score (repeatable): a timing name (best_s, "
            "mean_s), a case field (events_per_sec), or "
            "metrics.<name>; default: best_s and events_per_sec"
        ),
    )

    ops_cmd = sub.add_parser(
        "ops",
        help=(
            "render a repro.ops/1 wall-clock span log (written next "
            "to a result store by 'sweep run'/'sweep merge') as an "
            "indented tree plus a critical-path summary"
        ),
    )
    ops_cmd.add_argument(
        "path", help="ops JSONL log, e.g. STORE/repro.ops/*.ops.jsonl"
    )
    ops_cmd.add_argument(
        "--depth",
        type=int,
        default=8,
        metavar="N",
        help="maximum tree depth to render (default 8)",
    )

    sweep = sub.add_parser(
        "sweep",
        help=(
            "shard a figure sweep across machines: plan partitions "
            "runs by content digest, run executes one shard into a "
            "result store, merge unions shard stores into the final "
            "figure, status aggregates shard heartbeats into a "
            "fleet view"
        ),
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    plan = sweep_sub.add_parser(
        "plan", help="expand a figure sweep and partition it into shards"
    )
    plan.add_argument(
        "--figure", choices=("2", "3", "4", "5"), required=True
    )
    plan.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (9 peers, 1 seed, 2 bandwidths)",
    )
    plan.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="partition the runs into K digest-addressed shards",
    )
    plan.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="plan path (default: sweep-fig<N>.plan.json)",
    )
    plan.add_argument(
        "--no-ops",
        action="store_true",
        help="skip the wall-clock ops log (<plan>.ops.jsonl)",
    )

    shard_run = sweep_sub.add_parser(
        "run", help="execute one shard of a plan into a result store"
    )
    shard_run.add_argument("plan", help="plan written by 'sweep plan'")
    shard_run.add_argument(
        "--shard", type=int, required=True, metavar="I"
    )
    shard_run.add_argument(
        "--store", required=True, metavar="DIR",
        help="result-store directory the shard commits into",
    )
    shard_run.add_argument(
        "--jobs", type=int, default=None, metavar="N"
    )
    shard_run.add_argument(
        "--progress",
        nargs="?",
        const="live",
        choices=("live", "plain"),
        default=None,
    )
    shard_run.add_argument(
        "--no-ops",
        action="store_true",
        help=(
            "skip wall-clock telemetry (the span log and heartbeat "
            "under STORE/repro.ops/)"
        ),
    )

    merge = sweep_sub.add_parser(
        "merge",
        help=(
            "union shard stores and produce the final figure "
            "(byte-identical to a single-machine run; missing "
            "entries are computed, so merge doubles as resume)"
        ),
    )
    merge.add_argument("plan", help="plan written by 'sweep plan'")
    merge.add_argument(
        "--store", required=True, metavar="DIR",
        help="target store (absorbs every --from store)",
    )
    merge.add_argument(
        "--from",
        dest="sources",
        action="append",
        default=[],
        metavar="DIR",
        help="shard store to absorb (repeatable)",
    )
    merge.add_argument(
        "--jobs", type=int, default=None, metavar="N"
    )
    merge.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the figure table here",
    )
    merge.add_argument(
        "--no-ops",
        action="store_true",
        help=(
            "skip the wall-clock span log "
            "(STORE/repro.ops/merge.ops.jsonl)"
        ),
    )

    status = sweep_sub.add_parser(
        "status",
        help=(
            "aggregate shard heartbeats + ops logs into a fleet "
            "view: per-shard progress bars, straggler flagging "
            "(rate below a fraction of the fleet median), and "
            "dead-shard detection (stale heartbeat)"
        ),
    )
    status.add_argument("plan", help="plan written by 'sweep plan'")
    status.add_argument(
        "--store",
        dest="stores",
        action="append",
        required=True,
        metavar="DIR",
        help=(
            "shard store directory to scan for heartbeats "
            "(repeatable; telemetry lives under DIR/repro.ops/)"
        ),
    )
    status.add_argument(
        "--watch",
        action="store_true",
        help=(
            "keep re-rendering until every shard reaches a "
            "terminal state"
        ),
    )
    status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="--watch refresh period in seconds (default 2)",
    )
    status.add_argument(
        "--stale",
        type=float,
        default=30.0,
        metavar="S",
        help=(
            "a running shard whose heartbeat is older than this is "
            "reported dead (default 30)"
        ),
    )
    status.add_argument(
        "--straggler",
        type=float,
        default=0.5,
        metavar="FRAC",
        help=(
            "flag a running shard whose run rate is below FRAC of "
            "the fleet median (default 0.5)"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "quickstart":
        return _cmd_quickstart(args)
    if args.command in _FIGURES:
        return _cmd_figure(args)
    if args.command == "overhead":
        return _cmd_overhead()
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "rspec":
        return _cmd_rspec(args)
    if args.command == "timeline":
        return _cmd_timeline(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "ops":
        return _cmd_ops(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    # repro: lint-ok[E1] unreachable parser-dispatch guard
    raise AssertionError(f"unhandled command {args.command!r}")


def _swarm_config(
    args: argparse.Namespace, n_leechers: int
) -> SwarmConfig | None:
    """The swarm ``--bandwidth``/``--seed`` describe, or ``None``
    after printing why those settings are invalid."""
    try:
        return SwarmConfig(
            bandwidth=kB_per_s(args.bandwidth),
            seeder_bandwidth=kB_per_s(8 * args.bandwidth),
            n_leechers=n_leechers,
            seed=args.seed,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_quickstart(args: argparse.Namespace) -> int:
    config = _swarm_config(args, n_leechers=19)
    if config is None:
        return 2
    video = encode_paper_video(seed=1)
    for splicer in (GopSplicer(), DurationSplicer(4.0)):
        splice = splicer.splice(video)
        result = Swarm(splice, config).run()
        print(
            f"{splice.technique:12s} stalls={result.mean_stall_count():6.1f} "
            f"stall-time={result.mean_stall_duration():7.1f}s "
            f"startup={result.mean_startup_time():5.2f}s"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    module, precision = _FIGURES[args.command]
    if args.quick:
        config = ExperimentConfig(n_leechers=9, seeds=(7,))
        bandwidths = (128, 512)
        result = module.run(config, bandwidths_kb=bandwidths)
    else:
        result = module.run()
    print(format_figure(result, precision=precision))
    return 0


def _cmd_overhead() -> int:
    print(
        f"{'technique':12s} {'segments':>8s} {'total MB':>9s} "
        f"{'overhead':>9s}"
    )
    for row in run_overhead():
        print(
            f"{row.technique:12s} {row.segments:8d} "
            f"{row.total_bytes / 1e6:9.2f} "
            f"{row.overhead_percent:8.1f}%"
        )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.reproduce import reproduce_all
    from .parallel import SweepExecutor, SweepProgress

    config = (
        ExperimentConfig(n_leechers=9, seeds=(7,))
        if args.quick
        else ExperimentConfig()
    )
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    if args.analyze and args.figure is None:
        print(
            "error: --analyze requires --figure "
            "(cause breakdowns are per-figure tables)",
            file=sys.stderr,
        )
        return 2
    progress = (
        SweepProgress(mode=args.progress) if args.progress else None
    )
    store = None
    if not args.no_cache and (args.cache is not None or args.resume):
        from .parallel import ResultStore, default_store_root

        root = Path(args.cache) if args.cache else default_store_root()
        store = ResultStore(root)
    executor = SweepExecutor(
        jobs=args.jobs, progress=progress, store=store
    )
    if args.trace is not None:
        # Fail on an unwritable path now, not after the whole sweep.
        try:
            with open(args.trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write trace '{args.trace}': {exc}",
                  file=sys.stderr)
            return 2
    sweep_started = time.monotonic()
    if args.figure is not None:
        module, precision = _FIGURES[f"fig{args.figure}"]
        if args.quick:
            result = module.run(
                config,
                bandwidths_kb=(128, 512),
                executor=executor,
                analyze=args.analyze,
            )
        else:
            result = module.run(
                config, executor=executor, analyze=args.analyze
            )
        text = format_figure(result, precision=precision)
        if args.analyze:
            from .experiments.report import format_figure_analysis

            text += "\n\n" + format_figure_analysis(result)
    else:
        report = reproduce_all(
            config,
            include_ablations=not args.quick,
            executor=executor,
        )
        text = report.render()
    sweep_elapsed = time.monotonic() - sweep_started
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    if store is not None:
        stats = executor.stats
        verb = "resumed" if args.resume else "cached"
        print(
            f"result store {store.root}: {stats.runs_cached} of "
            f"{stats.runs} runs {verb}, "
            f"{stats.runs - stats.runs_cached - stats.failures} "
            f"computed ({len(store)} entries on disk)",
            file=sys.stderr,
        )
    if args.trace is not None:
        _write_representative_trace(args, config)
    if args.manifest is not None:
        return _write_run_manifest(
            args, executor, store, wall_seconds=sweep_elapsed
        )
    return 0


def _write_run_manifest(
    args: argparse.Namespace,
    executor,
    store=None,
    wall_seconds: float = 0.0,
) -> int:
    """Record one ``reproduce`` invocation as a JSON manifest."""
    from .jsonio import write_json
    from .obs import run_manifest

    command = "reproduce"
    if args.quick:
        command += " --quick"
    if args.figure is not None:
        command += f" --figure {args.figure}"
    if args.resume:
        command += " --resume"
    elif store is not None:
        command += " --cache"
    stats = executor.stats
    if store is not None:
        cache = {
            "enabled": True,
            "root": str(store.root),
            "schema": store.schema,
            "hits": store.stats.hits,
            "misses": store.stats.misses,
            "stores": store.stats.stores,
            "invalidations": store.stats.invalidations,
            "runs_cached": stats.runs_cached,
        }
    else:
        cache = {"enabled": False}
    payload = run_manifest(
        command,
        quick=args.quick,
        figure=args.figure,
        jobs=executor.jobs,
        sweep={
            "runs": stats.runs,
            "failures": stats.failures,
            "runs_cached": stats.runs_cached,
            "events_fired": stats.events_fired,
            "sim_seconds": stats.sim_seconds,
            "cells_computed": stats.cells_computed,
            "cells_cached": stats.cells_cached,
            "wall_seconds": wall_seconds,
            "cells_per_sec": (
                (stats.cells_cached + stats.cells_computed)
                / wall_seconds
                if wall_seconds > 0
                else None
            ),
        },
        cache=cache,
    )
    try:
        write_json(payload, args.manifest)
    except OSError as exc:
        print(
            f"error: cannot write manifest '{args.manifest}': {exc}",
            file=sys.stderr,
        )
        return 2
    print(f"run manifest -> {args.manifest}")
    return 0


def _write_representative_trace(
    args: argparse.Namespace, config: ExperimentConfig
) -> int:
    """Run one fully-traced swarm and dump its JSONL trace.

    One run, not the whole sweep: a multi-run trace would interleave
    restarting sim clocks, and the point of ``--trace`` is a file whose
    ``repro trace`` summary matches one run's :class:`SwarmResult`
    exactly.  The run uses the target figure's first bandwidth, the
    first configured seed, and 4-second duration splicing (the paper's
    middle technique).
    """
    if args.figure == "4":
        from .experiments.config import FIG4_BANDWIDTHS_KB

        bandwidth_kb = FIG4_BANDWIDTHS_KB[0]
    else:
        from .experiments.config import PAPER_BANDWIDTHS_KB

        bandwidth_kb = PAPER_BANDWIDTHS_KB[0]
    video = encode_paper_video(seed=config.video_seed)
    splice = DurationSplicer(_TRACE_SEGMENT_DURATION).splice(video)
    obs = Observability.tracing()
    swarm_config = make_swarm_config(
        bandwidth_kb, config.seeds[0], config
    )
    Swarm(splice, swarm_config, obs=obs).run()
    dump_jsonl(obs.events(), args.trace)
    print(
        f"traced representative run ({splice.technique}, "
        f"{bandwidth_kb} kB/s, seed {config.seeds[0]}): "
        f"{len(obs.events())} events -> {args.trace}"
    )
    return 0


def _load_trace(path: str) -> list[TraceEvent] | None:
    """Shared trace loader for ``trace`` and ``analyze``.

    Prints the error and returns ``None`` on a malformed or missing
    file; both commands turn that into exit code 2.
    """
    try:
        return load_jsonl(path)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _print_event_counts(events: list[TraceEvent]) -> None:
    """Event counts per category and per severity."""
    print("Events by category:")
    for category, names in sorted(event_counts(events).items()):
        total = sum(names.values())
        detail = ", ".join(
            f"{name} x{count}" for name, count in sorted(names.items())
        )
        print(f"  {category} ({total}): {detail}")
    print("Events by severity:")
    severities: dict[str, int] = {}
    for event in events:
        severities[event.severity] = (
            severities.get(event.severity, 0) + 1
        )
    for severity, count in sorted(severities.items()):
        print(f"  {severity}: {count}")


def _cmd_trace(args: argparse.Namespace) -> int:
    events = _load_trace(args.path)
    if events is None:
        return 2
    timelines = build_timelines(events)
    for violation in timelines.violations:
        if violation.rule == "stall-end-unmatched":
            print(
                f"error: {violation.peer}: {violation.detail}",
                file=sys.stderr,
            )
            return 2
    print(render_trace_summary(peer_summaries(timelines)))
    print()
    _print_event_counts(events)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    events = _load_trace(args.path)
    if events is None:
        return 2
    analysis = analyze_events(events)
    print(render_analysis(analysis), end="")
    if args.gantt:
        timelines = build_timelines(events)
        print()
        print("## Timeline")
        print()
        print(
            render_gantt(
                timelines,
                attribute_stalls(timelines),
                width=max(16, args.width),
            )
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .errors import ArtifactError, BenchError
    from .obs.bench import BenchHarness, discover_suites, load_suite

    bench_dir = _bench_dir()
    if bench_dir is None:
        print(
            "error: no benchmarks/ directory found (run from the "
            "repository root)",
            file=sys.stderr,
        )
        return 2
    suites = discover_suites(bench_dir)
    if args.suite == "list":
        for name in sorted(suites):
            print(name)
        return 0
    script = suites.get(args.suite)
    if script is None:
        print(
            f"error: unknown suite {args.suite!r} "
            f"(try 'repro bench list')",
            file=sys.stderr,
        )
        return 2
    harness = BenchHarness(
        args.suite,
        results_dir=bench_dir / "results",
        quick=args.quick,
    )
    try:
        module = load_suite(args.suite, script)
        module.run_suite(harness, quick=args.quick)
        target = harness.write(args.output)
    except (ArtifactError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return 2
    print(
        f"suite {args.suite}: {len(harness.cases)} case(s) -> {target}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .errors import ArtifactError
    from .obs.bench import load_artifact
    from .obs.compare import (
        DEFAULT_METRICS,
        compare_artifacts,
        render_comparison,
    )

    metrics = (
        tuple(args.metric) if args.metric else DEFAULT_METRICS
    )
    try:
        baseline = load_artifact(args.baseline)
        candidate = load_artifact(args.candidate)
        comparison = compare_artifacts(
            baseline,
            candidate,
            threshold_pct=args.threshold,
            metrics=metrics,
        )
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _default_lint_paths() -> list[str] | None:
    """Locate ``src/repro``: the cwd's checkout, then the package.

    Mirrors :func:`_bench_dir`: ``repro lint`` is usually run from
    the repository root, but falls back to linting the installed
    package sources so it works from anywhere inside a checkout.
    """
    for candidate in (
        Path("src") / "repro",
        Path(__file__).resolve().parent,
    ):
        if candidate.is_dir():
            return [str(candidate)]
    return None


def _lint_rule_list(raw: list[str] | None) -> tuple[str, ...] | None:
    """Flatten repeatable/comma-separated rule-id flags."""
    if raw is None:
        return None
    rules: list[str] = []
    for chunk in raw:
        rules.extend(
            part.strip() for part in chunk.split(",") if part.strip()
        )
    return tuple(rules)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .errors import LintError
    from .lint import (
        build_payload,
        lint_paths,
        load_config,
        render_text,
    )

    paths = args.paths or _default_lint_paths()
    if not paths:
        print(
            "error: no paths given and no src/repro tree found",
            file=sys.stderr,
        )
        return 2
    try:
        result = lint_paths(
            paths,
            config=load_config(),
            select=_lint_rule_list(args.select),
            ignore=_lint_rule_list(args.ignore),
        )
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        payload = build_payload(
            result,
            paths=[str(path) for path in paths],
            select=_lint_rule_list(args.select) or (),
            ignore=_lint_rule_list(args.ignore) or (),
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            render_text(
                result.findings,
                result.unused_suppressions,
                statistics=(
                    result.statistics() if args.statistics else None
                ),
            )
        )
    return 0 if result.clean else 1


def _cmd_ops(args: argparse.Namespace) -> int:
    """Render a ``repro.ops/1`` span log: tree + critical path."""
    from .errors import OpsError
    from .obs.ops import load_ops
    from .obs.span import render_critical_path, render_span_tree

    try:
        spans = load_ops(args.path)
    except OpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_span_tree(spans, max_depth=max(1, args.depth)))
    print()
    print(render_critical_path(spans))
    return 0


def _cmd_sweep_status(args: argparse.Namespace, plan: dict) -> int:
    """The ``repro sweep status [--watch]`` fleet view."""
    from .obs.ops import find_heartbeats, fleet_status, render_fleet

    first = True
    while True:
        statuses = fleet_status(
            plan,
            find_heartbeats(args.stores),
            now=time.time(),
            stale_after=args.stale,
            straggler_below=args.straggler,
        )
        if not first:
            print()
        print(render_fleet(plan, statuses))
        first = False
        terminal = all(
            status.state in ("done", "failed")
            for status in statuses
        )
        if not args.watch or terminal:
            return 0
        time.sleep(max(0.1, args.interval))


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The ``repro sweep plan|run|merge|status`` sharded-sweep protocol.

    Exit codes follow the repo convention: 0 on success, 1 when any
    of a shard's runs failed, 2 on a malformed/stale plan or store
    (or unreadable telemetry for ``status``).
    """
    from .errors import OpsError, StoreError, SweepError
    from .experiments import sweep_service
    from .jsonio import write_json
    from .parallel import ResultStore, SweepProgress

    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}",
              file=sys.stderr)
        return 2
    ops = not getattr(args, "no_ops", False)
    try:
        if args.sweep_command == "plan":
            from .obs.ops import NULL_OPS, OpsLog

            target = (
                args.output
                or f"sweep-fig{args.figure}.plan.json"
            )
            ops_log = (
                OpsLog(f"{target}.ops.jsonl") if ops else NULL_OPS
            )
            with ops_log:
                with ops_log.span(
                    "plan",
                    figure=args.figure,
                    shards=args.shards,
                ) as span:
                    plan = sweep_service.build_plan(
                        args.figure,
                        quick=args.quick,
                        shards=args.shards,
                    )
                    write_json(plan, target)
                    span.attrs["runs"] = plan["total_runs"]
            per_shard = ", ".join(
                str(sum(1 for run in plan["runs"]
                        if run["shard"] == shard))
                for shard in range(plan["shards"])
            )
            print(
                f"sweep plan -> {target}: figure {args.figure}, "
                f"{plan['total_runs']} runs over {plan['shards']} "
                f"shard(s) [{per_shard}]"
            )
            return 0
        plan = sweep_service.load_plan(args.plan)
        if args.sweep_command == "status":
            return _cmd_sweep_status(args, plan)
        progress = (
            SweepProgress(mode=args.progress)
            if getattr(args, "progress", None)
            else None
        )
        if args.sweep_command == "run":
            report = sweep_service.run_shard(
                plan,
                args.shard,
                ResultStore(args.store),
                jobs=jobs,
                progress=progress,
                ops=ops,
            )
            print(
                f"shard {report.shard}/{report.shards}: "
                f"{report.runs} runs, {report.computed} computed, "
                f"{report.cached} already in {args.store}"
            )
            return 0
        if args.sweep_command == "merge":
            report = sweep_service.merge_plan(
                plan,
                ResultStore(args.store),
                sources=args.sources,
                jobs=jobs,
                progress=progress,
                ops=ops,
            )
            text = format_figure(
                report.result, precision=report.precision
            )
            print(text)
            if args.output:
                with open(
                    args.output, "w", encoding="utf-8"
                ) as handle:
                    handle.write(text)
            print(
                f"merged {len(args.sources)} shard store(s) "
                f"({report.absorbed} entries absorbed) into "
                f"{args.store}: {report.cached} of {report.runs} "
                f"runs cached, {report.computed} computed",
                file=sys.stderr,
            )
            return 0
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # repro: lint-ok[E1] unreachable parser-dispatch guard
    raise AssertionError(
        f"unhandled sweep command {args.sweep_command!r}"
    )


def _cmd_rspec(args: argparse.Namespace) -> int:
    document = star_rspec(
        n_peers=args.peers, capacity_kbps=args.capacity
    )
    print(document.to_xml())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    config = _swarm_config(args, n_leechers=args.peers)
    if config is None:
        return 2
    try:
        splicer = DurationSplicer(args.duration)
    except SpliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    splice = splicer.splice(encode_paper_video(seed=1))
    obs = Observability.tracing()
    Swarm(splice, config, obs=obs).run()
    timelines = build_timelines(obs.events())
    print(render_gantt(timelines, attribute_stalls(timelines), width=80))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
