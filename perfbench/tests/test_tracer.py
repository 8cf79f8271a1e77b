"""Span recording, self-time arithmetic and installation on the package."""

import pytest

import tracer as tracing


def test_self_time_on_synthetic_nested_spans():
    t = tracing.Tracer()
    root = t.record("a.root", 0.0, 10.0, run_id=1)
    child = t.record("b.child", 1.0, 4.0, parent=root, run_id=1)
    t.record("c.leaf", 2.0, 3.0, parent=child, run_id=1)
    again = t.record("b.child", 5.0, 9.0, parent=root, run_id=1)
    t.record("b.child", 6.0, 7.5, parent=again, run_id=1)  # recursion
    t.record("a.root", 20.0, 21.0, run_id=2)  # another run
    totals = tracing.span_totals(t, 1)
    assert totals["a.root"] == pytest.approx((1, 10.0, 10.0 - 3.0 - 4.0))
    # inclusive time counts the outer of two nested b.child spans only
    calls, incl, own = totals["b.child"]
    assert calls == 3
    assert incl == pytest.approx(3.0 + 4.0)
    assert own == pytest.approx((3.0 - 1.0) + (4.0 - 1.5) + 1.5)
    assert totals["c.leaf"] == pytest.approx((1, 1.0, 1.0))
    assert tracing.span_totals(t, 2)["a.root"] == pytest.approx((1, 1.0, 1.0))


def test_wrapped_calls_record_parent_and_run():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(x) * 2)
    t.run_id = 3
    assert outer(1) == 4
    assert list(t.parent) == [-1, 0]
    assert list(t.run) == [3, 3]
    assert [t.names[i] for i in t.name_id] == ["m.outer", "m.inner"]
    totals = tracing.span_totals(t, 3)
    assert totals["m.outer"] == (1, 3.0, 2.0)
    assert totals["m.inner"] == (1, 1.0, 1.0)


def test_install_counts_package_calls_and_uninstall_restores():
    import numpy as np

    from liebundles import connections, groups

    original_exp = groups.GroupDescriptor.exp
    original_transport = connections.transport_group
    t = tracing.Tracer()
    t.install()
    try:
        t.run_id = 1
        so3 = groups.so3_descriptor()
        so3.exp(so3.algebra(np.array([0.1, 0.2, 0.3])))
    finally:
        t.uninstall()
    totals = tracing.span_totals(t, 1)
    assert totals["groups.exp"][0] == 1
    assert totals["groups.exp_hook"][0] == 1
    assert groups.GroupDescriptor.exp is original_exp
    assert connections.transport_group is original_transport


def test_every_target_resolves():
    import importlib

    for _, module, path in tracing.TARGETS:
        owner = importlib.import_module(f"liebundles.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
