"""Pin the quick-scale figure tables byte for byte.

``repro reproduce --quick --figure N`` prints these tables (9 leechers,
seed 7, 128 and 512 kB/s).  Each is hashed and compared with a pinned
digest, so a pure refactor must leave every digit of every table
unchanged.  A change that is *meant* to move a figure re-pins its
digest here, with the evidence in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import fig2, fig3, fig4, fig5
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_figure

#: figure -> (module, table precision, sha256 of the rendered table).
PINNED = {
    "fig2": (
        fig2,
        1,
        "a67eea0500a1ed2a9c0bd394f72a4c99657c951d7000d25343338d1a66c30788",
    ),
    "fig3": (
        fig3,
        1,
        "dce9c00ffadfaff34caad0f15d735f1cab06ea1bff539d7e9ebc1b69e013063e",
    ),
    "fig4": (
        fig4,
        2,
        "0916e4b6a275db17c7e8890af90f415ba56a546765a0cfd49eceb2348345912b",
    ),
    "fig5": (
        fig5,
        1,
        "91b7d1d8c45e77e228324eb5028eaa0cd61c3ee6b48fe40c63f0bb68121604c4",
    ),
}


@pytest.mark.parametrize("figure", sorted(PINNED))
def test_quick_table_matches_pinned_digest(figure):
    module, precision, expected = PINNED[figure]
    config = ExperimentConfig(n_leechers=9, seeds=(7,))
    table = format_figure(
        module.run(config, bandwidths_kb=(128, 512)), precision=precision
    )
    digest = hashlib.sha256(table.encode("utf-8")).hexdigest()
    assert digest == expected, f"{figure} table changed:\n{table}"
