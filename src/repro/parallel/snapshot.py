"""Metrics snapshots: ship a worker's registry back to the parent.

A worker process records its run into a private
:class:`~repro.obs.metrics.MetricsRegistry`; at run end the registry
is flattened into a plain-data :class:`MetricsSnapshot` (cheap to
pickle) and the parent reduces snapshots back into its own registry in
deterministic (cell, seed) order.  The reduction mirrors what sharing
one registry across serial runs produces:

* counters add;
* histograms merge their finalized value->seconds weights;
* gauges take the last written value (merge order makes "last" the
  final (cell, seed) run, as in a serial sweep);
* timeseries append samples in merge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """A registry flattened to picklable plain data.

    Attributes:
        counters: counter name -> total.
        gauges: gauge name -> last value.
        histograms: histogram name -> (value -> seconds held).
        timeseries: series name -> ``(sim_time, value)`` samples.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[float, float]] = field(
        default_factory=dict
    )
    timeseries: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return (
            len(self.counters)
            + len(self.gauges)
            + len(self.histograms)
            + len(self.timeseries)
        )


def snapshot_registry(registry: MetricsRegistry) -> MetricsSnapshot:
    """Flatten ``registry`` into a snapshot.

    Histograms should be finalized first (``Swarm.run`` does this);
    only closed weights travel — open per-key intervals do not.
    """
    return MetricsSnapshot(
        counters={
            name: counter.value
            for name, counter in registry.counters().items()
        },
        gauges={
            name: gauge.value
            for name, gauge in registry.gauges().items()
        },
        histograms={
            name: histogram.weights()
            for name, histogram in registry.histograms().items()
        },
        timeseries={
            name: list(series.samples)
            for name, series in registry.all_timeseries().items()
        },
    )


def merge_snapshot(
    registry: MetricsRegistry, snapshot: MetricsSnapshot
) -> None:
    """Reduce one worker snapshot into ``registry`` (see module doc)."""
    for name, value in snapshot.counters.items():
        registry.counter(name).inc(value)
    for name, value in snapshot.gauges.items():
        registry.gauge(name).set(value)
    for name, weights in snapshot.histograms.items():
        histogram = registry.histogram(name)
        for value, seconds in weights.items():
            histogram.add_weight(value, seconds)
    for name, samples in snapshot.timeseries.items():
        series = registry.timeseries(name)
        for time, value in samples:
            series.sample(time, value)
