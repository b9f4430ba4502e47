"""Ablation A8 — swarm scaling: P2P sheds load from the origin.

The paper motivates P2P with scalability; growing the swarm should
shift traffic from the seeder to the peers without degrading playback.
The sweep grows the swarm from 5 to 38 peers.
"""

from __future__ import annotations

from repro.experiments.ablations import run_swarm_scaling
from repro.experiments.report import format_figure
from repro.obs.bench import figure_metrics
from repro.parallel import SweepExecutor

SIZES = (5, 10, 19, 38)
_QUICK_SIZES = (5, 10)


def _origin_shares(result):
    shares = {}
    for label, cells in result.series.items():
        cell = cells[0]
        shares[label] = cell.seeder_bytes / max(
            1.0, cell.seeder_bytes + cell.peer_bytes
        )
    return shares


def run_suite(harness, quick=False):
    config, video = harness.paper_setup(quick)
    sizes = _QUICK_SIZES if quick else SIZES
    executor = SweepExecutor(jobs=1)
    result = harness.case(
        "scaling@256",
        run_swarm_scaling,
        kwargs={
            "config": config,
            "video": video,
            "bandwidth_kb": 256,
            "swarm_sizes": sizes,
            "executor": executor,
        },
        params={
            "quick": quick,
            "bandwidth_kb": 256,
            "swarm_sizes": list(sizes),
        },
        digest_of=("swarm_scaling", config, 256, sizes),
    )
    lines = [format_figure(result), "", "origin share of served bytes:"]
    shares = _origin_shares(result)
    for label, share in shares.items():
        lines.append(f"  {label:>9s}: {100 * share:5.1f}%")
    harness.annotate(
        events_fired=executor.stats.events_fired,
        sim_seconds=executor.stats.sim_seconds,
        **{
            f"{label}.origin_share": share
            for label, share in shares.items()
        },
        **figure_metrics(result),
    )
    harness.emit("\n".join(lines), name="ablation_swarm_scaling")
    # The origin's share of the bytes shrinks as the swarm grows (this
    # holds at quick scale too — it is the point of P2P).
    assert shares[f"{sizes[-1]} peers"] < shares[f"{sizes[0]} peers"]
    if not quick:
        for label, cells in result.series.items():
            assert cells[0].finished_fraction == 1.0
            assert cells[0].stall_count < 15.0
    return result


def test_ablation_swarm_scaling(harness):
    run_suite(harness)
