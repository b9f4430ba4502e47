"""Self-tests of the outside-in layer trace."""

from __future__ import annotations

import importlib
import sys

import pytest

import layers
from layers import OUTSIDE, LayerTrace


def _snapshot() -> dict:
    """Identity of every attribute of every loaded repro module/class."""
    for name in layers._targets():
        importlib.import_module(name)
    state = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            state[(module_name, attr)] = id(value)
            if isinstance(value, type):
                for member, raw in list(vars(value).items()):
                    state[(module_name, attr, member)] = id(raw)
    return state


def test_install_and_remove_leave_every_attribute_identical():
    before = _snapshot()
    trace = LayerTrace()
    trace.install()
    try:
        during = _snapshot()
        changed = [key for key in before if during.get(key) != before[key]]
        assert len(changed) > 50
    finally:
        trace.remove()
    assert _snapshot() == before


def test_every_counter_and_private_entry_point_is_found():
    with LayerTrace() as trace:
        pass
    assert trace.missing == []


def test_install_twice_is_refused():
    with LayerTrace() as trace:
        with pytest.raises(RuntimeError):
            trace.install()


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_exclusive_time_is_exact_for_a_nested_call():
    clock = _Clock()
    trace = LayerTrace(clock=clock)

    def inner():
        clock.now += 3.0

    inner = trace.wrap(inner, "B", counter="b.calls")

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()

    outer = trace.wrap(outer, "A")
    trace.reset()
    clock.now += 0.5
    outer()
    clock.now += 0.25
    trace.flush()
    assert trace.self_s["A"] == 3.0
    assert trace.self_s["B"] == 6.0
    assert trace.self_s[OUTSIDE] == 0.75
    assert trace.counts["b.calls"] == 2


def test_same_layer_call_and_exception_keep_the_accounting_exact():
    clock = _Clock()
    trace = LayerTrace(clock=clock)

    def helper():
        clock.now += 1.0

    helper = trace.wrap(helper, "A")

    def failing():
        clock.now += 4.0
        raise ValueError("boom")

    failing = trace.wrap(failing, "B")

    def outer():
        clock.now += 1.0
        helper()
        try:
            failing()
        except ValueError:
            clock.now += 2.0

    outer = trace.wrap(outer, "A")
    trace.reset()
    outer()
    trace.flush()
    assert trace.self_s["A"] == 4.0
    assert trace.self_s["B"] == 4.0
    assert trace.self_s[OUTSIDE] == 0.0
    assert trace._layer == OUTSIDE and not trace._stack
