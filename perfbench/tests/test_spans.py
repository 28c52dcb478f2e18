"""The percentile rule and self-time accounting on hand-built spans."""

import pytest

from spans import Tracer, layer_totals, owners, self_times, tail_percentile, union_length


@pytest.mark.parametrize(
    "n, pct",
    [
        (10_000, "99.9"),  # rank 9990: exactly ten samples beyond it
        (9_999, "99"),     # rank 9990 again, only nine beyond
        (1_000, "99"),
        (999, "90"),
        (100, "90"),
        (20, "50"),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    got, value, count = tail_percentile(samples)
    assert (got, count) == (pct, n)
    assert sum(1 for s in samples if s > value) >= 10


def test_too_few_samples_report_no_percentile():
    assert tail_percentile(list(range(19))) == (None, None, 19)


def test_percentile_value_is_nearest_rank():
    _, value, _ = tail_percentile([float(i) for i in range(1, 1001)])
    assert value == 990.0


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_with_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 6.0, 0),
        span("grandchild", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [5.0, 4.0, 1.0]


def test_self_time_with_back_to_back_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 4.0, 0),
        span("b", 4.0, 7.0, 0),  # starts where a ends
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)  # covered 1..10, clipped


def test_union_length():
    assert union_length([(0, 1), (0.5, 2), (3, 4), (4, 5)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_layer_self_times_partition_the_root():
    spans = [
        span("fuzzer.iteration", 0.0, 10.0),
        span("sti", 0.0, 4.0, 0),
        span("prefix.prime", 1.0, 2.0, 1),
        span("mti", 4.0, 9.0, 0),
        span("outside", 11.0, 12.0),
    ]
    totals = layer_totals(spans)
    inside = owners(spans, "fuzzer.iteration")
    assert inside == [0, 0, 0, 0, -1]
    selfs = self_times(spans)
    assert sum(selfs[i] for i in range(len(spans)) if inside[i] >= 0) == pytest.approx(10.0)
    assert totals["fuzzer.iteration"]["self"] == pytest.approx(1.0)
    assert totals["prefix.prime"] == {"count": 1, "total": 1.0, "self": 1.0}


def test_tracer_records_parent_and_ident():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner(), ident=lambda: (7, 0, 0))
    assert outer() == 2
    names = [row[0] for row in tracer.spans]
    parents = [row[3] for row in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    assert tracer.spans[0][4] == (7, 0, 0)
    assert self_times(tracer.spans)[0] == pytest.approx(3.0)


def test_tracer_closes_span_on_exception():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[1][3] == -1  # the failed span was popped
