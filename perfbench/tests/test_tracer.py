"""Self-time arithmetic, leaf attribution and patching of the tracer."""

import sys
import types

import pytest

from tracer import TraceError, Tracer, by_layer, percentile_ms


class FakeClock:
    """Returns the next scripted instant on every read."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def total_self(tracer):
    """Every instant of the root is some frame's self time."""
    return sum(rec[2] for rec in tracer.ledger.values())


def test_self_time_is_duration_minus_children():
    # job [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    tracer = Tracer(FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    job = tracer.enter("job")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(job)
    assert tracer.ledger[("", "job")] == [1, 10, 10 - 3 - 1]
    assert tracer.ledger[("job", "a")] == [1, 3, 3 - 1]
    assert tracer.ledger[("a", "b")] == [1, 1, 1]
    assert tracer.ledger[("job", "c")] == [1, 1, 1]
    assert total_self(tracer) == pytest.approx(10)
    assert [s[1] for s in tracer.spans] == ["b", "a", "c", "job"]
    ids = {s[1]: s[0] for s in tracer.spans}
    parents = {s[1]: s[4] for s in tracer.spans}
    assert parents == {"b": ids["a"], "a": ids["job"], "c": ids["job"],
                       "job": -1}


def test_leaf_time_moves_out_of_the_calling_frame():
    # job [0, 10] calls a [1, 6]; a makes two leaf calls of 1 s and
    # 0.5 s; job makes one leaf call of 2 s itself.
    clock = FakeClock(0, 1, 2, 3, 4, 4.5, 6, 7, 9, 10)
    tracer = Tracer(clock)
    leaf = tracer.wrap_leaf(lambda: None)
    job = tracer.enter("job")
    a = tracer.enter("a")
    leaf()
    leaf()
    tracer.exit(a)
    leaf()
    tracer.exit(job)
    assert tracer.ledger[("job", "a")] == [1, 5, pytest.approx(5 - 1.5)]
    assert tracer.ledger[("a", "pmem")] == [2, 1.5, 1.5]
    assert tracer.ledger[("job", "pmem")] == [1, 2, 2]
    assert tracer.ledger[("", "job")][2] == pytest.approx(10 - 5 - 2)
    layers = by_layer(tracer.ledger)
    assert layers["pmem"] == {"calls": 3, "total_s": 3.5, "self_s": 3.5}
    assert total_self(tracer) == pytest.approx(10)


def test_wrapper_closes_its_frame_when_the_call_raises():
    tracer = Tracer(FakeClock(0, 1, 2, 3))

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    job = tracer.enter("job")
    with pytest.raises(ValueError):
        traced()
    tracer.exit(job)
    tracer.check_balanced()
    assert tracer.ledger[("job", "boom")][0] == 1


def test_after_hook_counts_inside_the_frame():
    tracer = Tracer(FakeClock(0, 1, 2, 3, 4, 5))
    depths = []

    def after(tr, args, kwargs, result):
        depths.append(len(tr._stack))
        tr.count("items", len(result))

    traced = tracer.wrap("gen", lambda n: [0] * n, after=after)
    assert traced(3) == [0, 0, 0]
    job = tracer.enter("job")
    traced(2)
    tracer.exit(job)
    assert tracer.counters == {"items": 5}
    assert depths == [1, 2]


def test_unbalanced_frames_are_reported():
    tracer = Tracer(FakeClock(0, 1, 2, 3))
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(TraceError):
        tracer.exit(outer)
    with pytest.raises(TraceError):
        tracer.check_balanced()


def test_patch_and_unpatch_restore_every_copy():
    def original():
        return "original"

    home = types.ModuleType("repro_perfbench_home")
    home.fn = original
    copy = types.ModuleType("repro_perfbench_copy")
    copy.fn = original
    sys.modules[home.__name__] = home
    sys.modules[copy.__name__] = copy
    try:
        tracer = Tracer()
        tracer.patch_function(home.__name__, "fn",
                              lambda fn: lambda: "wrapped")
        assert home.fn() == copy.fn() == "wrapped"
        tracer.unpatch()
        assert home.fn is original and copy.fn is original
    finally:
        del sys.modules[home.__name__], sys.modules[copy.__name__]


def test_percentiles():
    assert percentile_ms([], 50) == 0.0
    assert percentile_ms([0.002], 99) == pytest.approx(2.0)
    values = [i / 1000 for i in range(1, 102)]  # 1..101 ms
    assert percentile_ms(values, 50) == pytest.approx(51.0)
    assert percentile_ms(values, 99) == pytest.approx(100.0)
