"""Self-tests of workload generation and output checks."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import workloads
from repro.experiments.runner import CellResult
from repro.experiments.sweep_service import expand_runs
from repro.parallel.digest import content_digest
from repro.parallel.store import run_identity


def _identities(workload: str, seed: int) -> list[str]:
    cells = workloads.simulation_cells(workload, seed)
    return [run_identity(spec) for spec in expand_runs(cells)]


@pytest.mark.parametrize("workload", ["scarce", "ample"])
def test_simulation_inputs_are_deterministic_per_seed(workload):
    assert _identities(workload, 3) == _identities(workload, 3)
    assert _identities(workload, 3) != _identities(workload, 4)


def test_simulation_cells_follow_the_paper_grid():
    cells = workloads.simulation_cells("scarce", 1)
    assert [cell.splicer.technique for cell in cells] == [
        "gop",
        "duration-2s",
        "duration-4s",
        "duration-8s",
    ]
    assert {cell.bandwidth_kb for cell in cells} == {128}
    config = cells[0].config
    assert config.n_leechers == 19
    assert config.max_time == 3600.0
    assert len(config.seeds) == workloads.SEEDS_PER_TECHNIQUE
    ample = workloads.simulation_cells("ample", 1)
    assert {cell.bandwidth_kb for cell in ample} == {768}


def test_workloads_draw_distinct_swarm_seeds():
    assert workloads.swarm_seeds("scarce", 1) != workloads.swarm_seeds(
        "ample", 1
    )


def test_merge_order_is_a_deterministic_permutation():
    order = workloads.merge_order(5)
    assert order == workloads.merge_order(5)
    assert sorted(figure for figure, _ in order) == list(
        workloads.MERGE_FIGURES
    )
    for _, shards in order:
        assert sorted(shards) == list(range(workloads.MERGE_SHARDS))
    orders = {content_digest(workloads.merge_order(s)) for s in range(8)}
    assert len(orders) > 1


def test_merge_workload_runs_no_simulation_cells():
    with pytest.raises(ValueError):
        workloads.simulation_cells("merge", 1)


def _cell(**changes) -> CellResult:
    cell = CellResult(
        bandwidth_kb=128,
        stall_count=1.0,
        stall_duration=2.0,
        startup_time=3.0,
        seeder_bytes=4.0,
        peer_bytes=5.0,
        finished_fraction=0.5,
    )
    return replace(cell, **changes)


def test_cell_checks_flag_non_finite_values_and_bad_fractions():
    assert workloads.check_cells([_cell()]) == []
    assert workloads.check_cells([_cell(stall_count=math.nan)])
    assert workloads.check_cells([_cell(peer_bytes=math.inf)])
    assert workloads.check_cells([_cell(finished_fraction=1.5)])
    assert workloads.check_cells([_cell(finished_fraction=-0.1)])
