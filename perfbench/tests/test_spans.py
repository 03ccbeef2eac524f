import pytest

from layers import is_exact, pass_metrics
from spans import SpanRecorder, covered_length, has_ancestor, self_times


def span(name, start, end, parent=-1, op="0.cmd1", attrs=None):
    return [name, start, end, parent, op, attrs]


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3), (5, 5), (4, 6)]) == 5.0
    assert covered_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 3.5, 6.0, parent=0),  # overlaps b by 0.5
        span("e", 9.0, 12.0, parent=0),  # ends after its parent: clipped to 1.0
    ]
    # a: 10 - |[1, 6] u [9, 10]| = 10 - 6; grandchildren do not count against a
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])
    assert has_ancestor(spans, 2, "a") and not has_ancestor(spans, 0, "a")


def test_recorder_nests_spans_and_stores_attrs():
    ticks = iter(range(100))
    recorder = SpanRecorder("7.cmd2", clock=lambda: float(next(ticks)))

    leaf = recorder.wrap(lambda x: x * 2, "leaf", attrs=lambda a, k, r: {"count": r})
    outer = recorder.wrap(lambda: leaf(1) + leaf(2), "outer")
    assert outer() == 6
    names = [(s[0], s[3], s[4], s[5]) for s in recorder.spans]
    assert names == [("outer", -1, "7.cmd2", None), ("leaf", 0, "7.cmd2", {"count": 2}),
                     ("leaf", 0, "7.cmd2", {"count": 4})]
    assert self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_recorder_closes_span_when_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        recorder.wrap(boom, "boom")()
    after = recorder.wrap(lambda: None, "after")
    after()
    assert recorder.spans[1][3] == -1


def test_pass_metrics_counts_evals_and_cold_calls():
    xy, opt = "povm_so3.cos_omega_xy", "povm_so3.optimize_eccentricity"
    spans = [
        span(xy, 0.0, 2.0, attrs={"n": 5, "nodes": 10}),  # cold for n = 5
        span(opt, 2.0, 5.0),
        span(xy, 2.0, 3.0, parent=1, attrs={"n": 5, "nodes": 10}),
        span(xy, 3.0, 4.5, parent=1, attrs={"n": 5, "nodes": 10}),
        span(xy, 5.0, 9.0, attrs={"n": 6, "nodes": 20}),  # cold for n = 6
    ]
    caches = {"povm_so3.d_stack": {"hits": 3, "misses": 2}, "angmom.jy_eig": None}
    metrics = pass_metrics([{"import_s": 0.25, "caches": caches, "spans": spans}])
    assert metrics["povm_so3.cos_omega_xy.calls"] == 4
    assert metrics["povm_so3.optimize_eccentricity.evals"] == 2
    assert metrics["povm_so3.optimize_eccentricity.self_s"] == pytest.approx(0.5)
    assert metrics["povm_so3.cos_omega_xy.cold_s"] == pytest.approx(6.0)
    assert metrics["povm_so3.cos_omega_xy.warm_ms"] == pytest.approx(1250.0)
    assert metrics["povm_so3.quadrature_nodes"] == 50
    assert metrics["povm_so3.d_stack.misses"] == 2 and metrics["angmom.jy_eig.misses"] == 0
    assert metrics["cli.import_s"] == 0.25
    assert is_exact("povm_so3.quadrature_nodes") and not is_exact("cli.import_s")
