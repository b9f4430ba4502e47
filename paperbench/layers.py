"""Outside-in per-layer timing: wrappers installed around the program.

The benchmark does not edit the program to time it.  Instead
:class:`LayerTrace` replaces, for the duration of a traced run, the
public functions and methods of the modules in :data:`MODULE_LAYERS`,
plus the private methods other layers call back
(:data:`PRIVATE_ENTRY_POINTS`), with a thin wrapper that switches a
*current layer* on entry and back on exit.
Time between two switches is credited to whichever layer was current,
so each layer receives its *exclusive* (self) time: a flow solve
triggered inside a leecher handler counts as ``net.flownet``, not as
``p2p.leecher``.  Calls that stay inside one layer skip the switch;
private helpers are left unwrapped because only their own layer calls
them, which keeps the wrappers' overhead off the hot inner loops.

Event callbacks the engine fires are ordinary bound methods looked up
on the class when they were scheduled, so installing before a swarm is
built routes them through the wrappers too.  :meth:`LayerTrace.remove`
puts back the exact objects it replaced.

Some wrappers also count calls (:data:`CALL_COUNTERS`).  A counter or
private entry point whose function no longer exists is reported in
:attr:`LayerTrace.missing` rather than failing the run, so a later
refactor of a private helper degrades one number, not the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

#: Layer credited with time spent outside every wrapped function (the
#: benchmark's own loop).
OUTSIDE = "outside"

#: Module -> layer for every function and method the module defines.
MODULE_LAYERS: dict[str, str] = {
    "repro.net.engine": "net.engine",
    "repro.net.flownet": "net.flownet",
    "repro.net.tcp": "net.tcp",
    "repro.p2p.messages": "p2p.control",
    "repro.p2p.wire": "p2p.control",
    "repro.p2p.peer": "p2p.peer",
    "repro.p2p.seeder": "p2p.peer",
    "repro.p2p.tracker": "p2p.peer",
    "repro.p2p.leecher": "p2p.leecher",
    "repro.p2p.selection": "p2p.leecher",
    "repro.p2p.swarm": "p2p.swarm",
    "repro.p2p.churn": "p2p.swarm",
    "repro.player.player": "player",
    "repro.player.buffer": "player",
    "repro.player.metrics": "player",
    "repro.video.encoder": "video.encode",
    "repro.video.frames": "video.encode",
    "repro.video.gop": "video.encode",
    "repro.video.scene": "video.encode",
    "repro.video.bitstream": "video.encode",
    "repro.video.container": "video.encode",
    "repro.core.splicer": "core.splice",
    "repro.core.segments": "core.splice",
    "repro.core.segment_size": "core.splice",
    "repro.parallel.executor": "parallel.executor",
    "repro.parallel.worker": "parallel.executor",
    "repro.parallel.snapshot": "parallel.executor",
    "repro.parallel.progress": "parallel.executor",
    "repro.parallel.cache": "parallel.executor",
    "repro.experiments.sweep_service": "experiments",
    "repro.experiments.fig2": "experiments",
    "repro.experiments.fig3": "experiments",
    "repro.experiments.fig4": "experiments",
    "repro.experiments.fig5": "experiments",
    "repro.experiments.runner": "experiments",
    "repro.experiments.report": "experiments",
    "repro.experiments.config": "experiments",
    "repro.obs.ops": "obs.ops",
    "repro.obs.span": "obs.ops",
    "repro.obs.metrics": "obs.metrics",
}

#: ``(module, qualified name)`` -> layer, taking precedence over
#: :data:`MODULE_LAYERS`.  A class name claims all its methods; the
#: store module is wrapped only at these three public entry points,
#: so its private helpers count toward the entry point that ran them.
LAYER_OVERRIDES: dict[tuple[str, str], str] = {
    ("repro.p2p.peer", "ControlPlane"): "p2p.control",
    ("repro.p2p.peer", "PeerBase.receive_control"): "p2p.control",
    ("repro.parallel.store", "ResultStore.get"): "parallel.store.get",
    ("repro.parallel.store", "ResultStore.put"): "parallel.store.put",
    ("repro.parallel.store", "ResultStore.absorb"): (
        "parallel.store.absorb"
    ),
}

#: Private methods called from another layer: engine event callbacks,
#: the flow solver's end-of-timestamp barrier, and completion hooks.
PRIVATE_ENTRY_POINTS: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro.net.flownet", "FlowNetwork._on_barrier"),
        ("repro.net.flownet", "FlowNetwork._on_completion_due"),
        ("repro.net.flownet", "FlowNetwork._flush"),
        ("repro.net.tcp", "TcpTransfer._begin_data"),
        ("repro.net.tcp", "TcpTransfer._grow_window"),
        ("repro.net.tcp", "TcpTransfer._on_flow_complete"),
        ("repro.p2p.peer", "ControlPlane._deliver"),
        ("repro.p2p.peer", "PeerBase._on_upload_complete"),
        ("repro.p2p.leecher", "Leecher._request_manifest"),
        ("repro.p2p.leecher", "Leecher._on_request_timeout"),
        ("repro.p2p.leecher", "Leecher._on_player_state"),
        ("repro.p2p.swarm", "Swarm._depart"),
        ("repro.player.player", "Player._on_segment_end"),
        ("repro.obs.ops", "OpsLog._write"),
        ("repro.obs.ops", "ShardHeartbeat._write"),
    }
)

#: Every layer a trace reports, in report order.
LAYERS: tuple[str, ...] = (
    "net.engine",
    "net.flownet",
    "net.tcp",
    "p2p.control",
    "p2p.leecher",
    "p2p.peer",
    "p2p.swarm",
    "player",
    "video.encode",
    "core.splice",
    "parallel.executor",
    "parallel.store.get",
    "parallel.store.put",
    "parallel.store.absorb",
    "experiments",
    "obs.ops",
    "obs.metrics",
)


def _byte_count(args: tuple, kwargs: dict) -> int:
    raw = kwargs["raw"] if "raw" in kwargs else args[2]
    return len(raw)


#: ``(module, qualified name)`` -> (counter, amount per call).  An
#: amount of ``None`` counts calls.
CALL_COUNTERS: dict[
    tuple[str, str], tuple[str, Callable[[tuple, dict], int] | None]
] = {
    ("repro.net.engine", "Simulator.schedule_at"): (
        "net.engine.schedules",
        None,
    ),
    ("repro.net.engine", "EventHandle.cancel"): (
        "net.engine.cancels",
        None,
    ),
    ("repro.net.flownet", "FlowNetwork.start_flow"): (
        "net.flownet.flows",
        None,
    ),
    ("repro.net.flownet", "FlowNetwork.cancel_flow"): (
        "net.flownet.cancels",
        None,
    ),
    ("repro.net.flownet", "FlowNetwork._on_barrier"): (
        "net.flownet.solves",
        None,
    ),
    ("repro.net.flownet", "FlowNetwork._on_completion_due"): (
        "net.flownet.completions",
        None,
    ),
    ("repro.net.tcp", "TcpTransfer.__init__"): ("net.tcp.transfers", None),
    ("repro.net.tcp", "TcpTransfer._grow_window"): (
        "net.tcp.window_steps",
        None,
    ),
    ("repro.p2p.peer", "ControlPlane.send"): (
        "p2p.control.messages",
        None,
    ),
    ("repro.p2p.peer", "PeerBase.receive_control"): (
        "p2p.control.bytes",
        _byte_count,
    ),
    ("repro.player.player", "Player.segment_available"): (
        "player.segments",
        None,
    ),
}


class LayerTrace:
    """Exclusive time and call counts per layer.

    Args:
        clock: monotonic seconds source (tests inject a fake one).
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._layer = OUTSIDE
        self._stack: list[str] = []
        self._mark = clock()
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------

    def reset(self) -> None:
        """Zero every total and restart the clock (between phases)."""
        if self._stack:
            raise RuntimeError("reset inside a traced call")
        self.self_s.clear()
        self.counts.clear()
        self._mark = self.clock()

    def flush(self) -> None:
        """Credit the time since the last switch to the current layer."""
        now = self.clock()
        self.self_s[self._layer] += now - self._mark
        self._mark = now

    def wrap(
        self,
        fn: Callable,
        layer: str,
        counter: str | None = None,
        amount: Callable[[tuple, dict], int] | None = None,
    ) -> Callable:
        """``fn`` with its time credited to ``layer``.

        On a layer switch the time since the previous switch goes to
        the layer being left; on return the callee's remaining time
        goes to ``layer`` and the caller's layer resumes.  The
        bookkeeping is inlined: it runs on every cross-layer call.
        """
        trace = self
        clock = self.clock
        self_s = self.self_s
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += (
                    1 if amount is None else amount(args, kwargs)
                )
            caller = trace._layer
            if caller == layer:
                return fn(*args, **kwargs)
            now = clock()
            self_s[caller] += now - trace._mark
            stack.append(caller)
            trace._layer = layer
            trace._mark = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[layer] += now - trace._mark
                trace._layer = stack.pop()
                trace._mark = now

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every mapped function in every mapped module."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        modules = {name: importlib.import_module(name) for name in _targets()}
        wanted = set(CALL_COUNTERS) | PRIVATE_ENTRY_POINTS
        for module_name, module in modules.items():
            default = MODULE_LAYERS.get(module_name)
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or getattr(obj, "__module__", None) != module_name
                ):
                    continue
                if inspect.isclass(obj):
                    self._install_class(module_name, obj, default, wanted)
                elif _wrappable(obj):
                    layer = LAYER_OVERRIDES.get((module_name, name), default)
                    if layer is not None:
                        wanted.discard((module_name, name))
                        self._install_function(module_name, name, obj, layer)
        self.missing = sorted(f"{m}:{q}" for m, q in wanted)

    def _install_class(
        self, module_name: str, cls: type, default: str | None, wanted: set
    ) -> None:
        class_layer = LAYER_OVERRIDES.get(
            (module_name, cls.__qualname__), default
        )
        for attr, raw in list(vars(cls).items()):
            qualname = f"{cls.__qualname__}.{attr}"
            key = (module_name, qualname)
            counter, amount = CALL_COUNTERS.get(key, (None, None))
            if (
                attr.startswith("_")
                and counter is None
                and key not in PRIVATE_ENTRY_POINTS
            ):
                continue
            layer = LAYER_OVERRIDES.get(key, class_layer)
            if layer is None or not _wrappable(raw):
                continue
            wanted.discard(key)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, self.wrap(raw, layer, counter, amount))

    def _install_function(
        self, module_name: str, name: str, fn: Callable, layer: str
    ) -> None:
        counter, amount = CALL_COUNTERS.get((module_name, name), (None, None))
        patched = self.wrap(fn, layer, counter, amount)
        # Rebind the name in the defining module and in every repro
        # module that imported it by name (``from .tcp import ...``).
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if (
                namespace is not None
                and getattr(other, "__name__", "").startswith("repro")
                and namespace.get(name) is fn
            ):
                self._patches.append((other, name, fn))
                setattr(other, name, patched)

    def remove(self) -> None:
        """Put back every replaced object, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def _targets() -> list[str]:
    return sorted(
        set(MODULE_LAYERS) | {module for module, _ in LAYER_OVERRIDES}
    )


def _wrappable(obj: object) -> bool:
    """Plain functions whose body runs at call time."""
    return (
        inspect.isfunction(obj)
        and not inspect.isgeneratorfunction(obj)
        and not inspect.iscoroutinefunction(obj)
    )
