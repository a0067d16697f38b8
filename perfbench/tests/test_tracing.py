"""Self-time arithmetic, and traced counts that repeat exactly."""

from perfbench import run
from perfbench.tracing import Calibration, SpanRecorder
from perfbench.workloads import WORKLOADS


def test_self_times_on_a_hand_built_span_tree():
    # a() opens at 0 and closes at 100; inside it b() runs 10..30 and 40..45
    ticks = iter([0, 10, 30, 40, 45, 100])
    rec = SpanRecorder(clock=lambda: next(ticks))

    def b():
        return "b"

    def a():
        wrapped_b()
        wrapped_b()
        return "a"

    wrapped_b = rec.wrap("layer.b", b)
    assert rec.wrap("layer.a", a)() == "a"

    cal = Calibration(outer_ns=2, inner_ns=1)
    own = rec.self_times(cal)
    # a: 100 long, 25 covered by 2 children, each child's outer cost 2, own inner 1
    assert own["layer.a"] == (1, 100 - 25 - 2 * 2 - 1)
    assert own["layer.b"] == (2, 20 + 5 - 2 * 1)
    wall = 120
    loop = rec.loop_self(wall, cal)
    assert loop == 120 - 100 - 1 * 2
    # loop, layer self times and tracing cost add up to the wall time
    assert loop + sum(t for _, t in own.values()) + rec.opened * cal.span_ns == wall
    # spans are kept with their parent and the request they served
    kept = [tuple(rec.kept[i:i + 6]) for i in range(0, len(rec.kept), 6)]
    assert [(s, p, t0, t1) for s, p, _, _, t0, t1 in kept] == [
        (1, 0, 10, 30), (2, 0, 40, 45), (0, -1, 0, 100)]


def test_scaled_calibration_keeps_the_split():
    cal = Calibration(outer_ns=30, inner_ns=10).scaled(200)
    assert (cal.outer_ns, cal.inner_ns) == (150, 50)


def test_traced_counts_repeat_exactly():
    wl = WORKLOADS["book-spill"]
    first, sum1 = run.count_pass(wl, 4, 8_000)
    second, sum2 = run.count_pass(wl, 4, 8_000)
    assert sum1 == sum2
    assert run.vars_of(first) == run.vars_of(second)
    assert first.preemptions > 0 and first.restructures > 0
    assert first.nodes_allocated > 0
