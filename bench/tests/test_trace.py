"""Span arithmetic, and shims that leave no trace of themselves."""

import json
import threading

from bench.trace import (
    LAYERS,
    Target,
    Tracer,
    chrome_events,
    inner_share,
    self_times,
    stack_targets,
)


def test_self_time_on_a_synthetic_tree():
    # (target, start, end, id, parent, thread): a root with two children,
    # one of which has a child of its own, and a root on another thread.
    spans = [
        (2, 20, 30, 3, 2, 1),
        (1, 10, 40, 2, 1, 1),
        (1, 50, 70, 4, 1, 1),
        (0, 0, 100, 1, 0, 1),
        (0, 5, 25, 5, 0, 2),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 10, 4: 20, 5: 20}
    assert sum(self_times(spans).values()) == 100 + 20  # the two roots


class _Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i * 2


def _toy_targets():
    return [
        Target("top", "Toy.outer", ((_Toy, "outer"),)),
        Target("leaf", "Toy.inner", ((_Toy, "inner"),), probe=lambda self, i: i),
    ]


def test_tracer_totals_children_and_probe():
    tracer = Tracer(_toy_targets())
    with tracer:
        assert _Toy().outer(5) == 20
        worker = threading.Thread(target=_Toy().outer, args=(3,))
        worker.start()
        worker.join()
    totals = tracer.snapshot()
    assert totals.calls("Toy.outer") == 2 and totals.calls("Toy.inner") == 8
    assert totals.spans() == 10
    calls, self_s, children = totals.layer("top")
    assert (calls, children) == (2, 8) and self_s >= 0
    assert totals.layer("leaf")[2] == 0
    assert totals.own_top[0] == 1  # this thread's one parentless span
    assert totals.peaks == {"Toy.inner": 4}
    # inclusive time of the parents covers their children's
    assert totals.by_layer["top"][1] >= totals.by_layer["leaf"][1]
    assert totals.by_layer["top"][2] == totals.by_layer["top"][1] - totals.by_layer["leaf"][1]
    # the online totals and the offline span arithmetic agree on structure
    own = self_times(tracer.spans)
    assert len(own) == 10 and all(v >= 0 for v in own.values())
    delta = tracer.snapshot().minus(totals)
    assert delta.spans() == 0 and delta.own_top == (0, 0)


def test_chrome_trace_file_loads(tmp_path):
    tracer = Tracer(_toy_targets())
    with tracer:
        _Toy().outer(2)
    path = tmp_path / "trace.json"
    assert tracer.write_chrome_trace(path) == 3
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} == {"Toy.outer", "Toy.inner"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0 for e in events)
    root = next(e for e in events if e["name"] == "Toy.outer")
    assert {e["args"]["parent"] for e in events if e is not root} == {root["args"]["id"]}
    assert root["args"]["self_us"] <= root["dur"]
    assert chrome_events([], [], []) == []


def test_shims_leave_every_patched_attribute_identical():
    from repro.engine import resolve_backend

    targets = stack_targets(resolve_backend("auto"))
    before = [(owner, attr, vars(owner)[attr]) for t in targets for owner, attr in t.sites]
    tracer = Tracer(targets)
    with tracer:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    assert _Toy.outer.__name__ == "outer"
    # every layer has at least one entry point, and no target invents one
    assert {t.layer for t in targets} == set(LAYERS)


def test_inner_share_is_a_share():
    assert 0.0 < inner_share(calls=200) <= 1.0
