"""Figure 2 — total number of stalls for different bandwidths.

Regenerates the paper's stall-count series (GOP vs 2/4/8-second
duration splicing, 128-768 kB/s, 19 peers, 3 seeded runs averaged) and
asserts the paper's qualitative orderings.  A second, single-bandwidth
case re-runs the scarce end with the PR-5 analyzer attached so the
artifact carries a stall-cause histogram.
"""

from __future__ import annotations

from repro.experiments import fig2
from repro.experiments.report import format_figure
from repro.obs import Observability, render_run_report
from repro.obs.bench import figure_metrics
from repro.parallel import SweepExecutor


def _by_bw(cells):
    return {cell.bandwidth_kb: cell for cell in cells}


def run_suite(harness, quick=False):
    config, video = harness.paper_setup(quick)
    executor = SweepExecutor(jobs=1)
    obs = Observability.metrics_only()
    kwargs = {
        "config": config,
        "video": video,
        "obs": obs,
        "executor": executor,
    }
    if quick:
        kwargs["bandwidths_kb"] = (128, 512)
    result = harness.case(
        "fig2/sweep",
        fig2.run,
        kwargs=kwargs,
        params={
            "quick": quick,
            "n_leechers": config.n_leechers,
            "seeds": len(config.seeds),
        },
        digest_of=("fig2", config, kwargs.get("bandwidths_kb")),
    )
    stats = executor.stats
    harness.annotate(
        events_fired=stats.events_fired,
        sim_seconds=stats.sim_seconds,
        **figure_metrics(result),
    )
    harness.emit(
        format_figure(result) + "\n\n" + render_run_report(obs),
        name="fig2_stall_counts",
    )

    # Stall-cause histogram: one analyzed cell at the scarce end, on
    # a throwaway obs whose report is never rendered.
    analyzer_executor = SweepExecutor(jobs=1)
    analyzer_obs = Observability.metrics_only()
    analyzed = harness.case(
        "fig2/analyzed@128",
        fig2.run,
        kwargs={
            "config": config,
            "video": video,
            "obs": analyzer_obs,
            "bandwidths_kb": (128,),
            "executor": analyzer_executor,
            "analyze": True,
        },
        params={"quick": quick, "bandwidth_kb": 128, "analyze": True},
        digest_of=("fig2-analyzed", config, 128),
    )
    harness.annotate(
        events_fired=analyzer_executor.stats.events_fired,
        sim_seconds=analyzer_executor.stats.sim_seconds,
        analysis=analyzed.series["duration-4s"][0].analysis,
    )

    if not quick:
        _check(result)
    return result


def _check(result):
    gop = _by_bw(result.series["gop"])
    two = _by_bw(result.series["duration-2s"])
    four = _by_bw(result.series["duration-4s"])
    eight = _by_bw(result.series["duration-8s"])

    # GOP-based splicing causes more stalls than duration-based
    # splicing (the headline claim) at every bandwidth above the
    # saturated low end.
    for bw in (256, 512, 768):
        assert gop[bw].stall_count > four[bw].stall_count

    # 2-second segments stall more than 4-second segments when
    # bandwidth is small...
    assert two[128].stall_count > four[128].stall_count
    assert two[256].stall_count > four[256].stall_count

    # ...and 8-second segments stall more than 4-second at the low end.
    assert eight[128].stall_count > four[128].stall_count

    # Every series decreases as bandwidth grows.
    for series in (gop, two, four, eight):
        assert series[768].stall_count <= series[128].stall_count


def test_fig2_stall_counts(harness):
    run_suite(harness)
