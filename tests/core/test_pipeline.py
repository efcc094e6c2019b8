"""Unit and property tests for span records, the race rules, and the
per-path stage accounting.

Controllers describe each served miss as span records ``(name,
start_ns, latency_ns, critical, wasted, slack_ns)``.  TMCC's
speculative access combines two branches with
:func:`repro.core.tmcc.race`;
:class:`ServiceTimeline` rebuilds a miss's stage placement from its
records; :class:`StageAccounting` aggregates them per access path.
"""

import math
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from repro.core.pipeline import (
    STAGE_CTE_FETCH,
    STAGE_DATA_FETCH,
    ServiceTimeline,
    StageAccounting,
)
from repro.core.tmcc import race

#: Non-negative stage latencies with fp values a DRAM model would emit.
latencies = st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)


def leaf(name, latency, start=0.0, wasted=False):
    """A one-stage race branch: ``(span records, duration)``."""
    return ((name, start, latency, True, wasted, 0.0),), latency


def branches(values, start=0.0):
    return [leaf(f"s{i}", v, start) for i, v in enumerate(values)]


def race_all(values, start=0.0):
    """Race one leaf per value, folding left: race(race(a, b), c)..."""
    return reduce(race, branches(values, start))


def timeline_of(spans, total, start=0.0):
    return ServiceTimeline.from_spans(start, total, spans)


# ----------------------------------------------------------------------
# Race properties
# ----------------------------------------------------------------------


@given(st.lists(latencies, min_size=1, max_size=8))
def test_parallel_takes_max(values):
    _, duration = race_all(values)
    assert duration == max(values)


@given(st.lists(latencies, min_size=2, max_size=8), st.randoms())
def test_parallel_commutative(values, rng):
    """Branch order never changes a race's duration."""
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert race_all(values)[1] == race_all(shuffled)[1]


@given(st.lists(latencies, min_size=1, max_size=5),
       st.lists(latencies, min_size=1, max_size=5))
def test_nesting_preserves_total(inner_values, outer_values):
    """A race run as one branch of another totals the max of all legs,
    and the critical spans still account for the whole duration."""
    spans, duration = race(race_all(inner_values), race_all(outer_values))
    assert duration == max(inner_values + outer_values)
    critical = sum(span[2] for span in spans if span[3])
    assert math.isclose(critical, duration, rel_tol=1e-12, abs_tol=1e-9)


@given(st.lists(latencies, min_size=1, max_size=8), latencies)
def test_critical_spans_sum_to_total(values, start):
    """Critical-path spans of a race account for the total."""
    spans, duration = race_all(values, start)
    timeline = timeline_of(spans, duration, start)
    critical = [s for s in timeline.spans if s.critical]
    assert math.isclose(sum(s.latency_ns for s in critical),
                        timeline.total_ns, rel_tol=1e-12, abs_tol=1e-9)
    assert timeline.start_ns == start
    assert timeline.end_ns == start + timeline.total_ns


def test_parallel_marks_losers_with_slack():
    spans, duration = race(leaf("slow", 30.0), leaf("fast", 10.0))
    timeline = timeline_of(spans, duration)
    slow, fast = timeline.span("slow"), timeline.span("fast")
    assert slow.critical and not fast.critical
    assert fast.slack_ns == 20.0
    assert timeline.total_ns == 30.0


def test_ties_go_to_the_first_branch():
    spans, _ = race(leaf("first", 10.0), leaf("second", 10.0))
    assert [(span[0], span[3], span[5]) for span in spans] == [
        ("first", True, 0.0), ("second", False, 0.0)]


def test_slack_lands_on_a_losing_branch_last_span():
    chain = ((("a", 0.0, 4.0, True, False, 0.0),
              ("b", 4.0, 6.0, True, False, 0.0)), 10.0)
    spans, duration = race(leaf("long", 25.0), chain)
    assert duration == 25.0
    assert [(span[0], span[3], span[5]) for span in spans] == [
        ("long", True, 0.0), ("a", False, 0.0), ("b", False, 15.0)]


def test_wasted_stage_attribution():
    spans, duration = race(leaf("spec", 40.0, wasted=True),
                           leaf("verify", 25.0))
    timeline = timeline_of(spans, duration)
    assert timeline.wasted_ns() == 40.0
    assert timeline.span("spec").wasted


# ----------------------------------------------------------------------
# Timelines from span records
# ----------------------------------------------------------------------


def test_spans_record_start_end():
    timeline = timeline_of((("a", 100.0, 10.0, True, False, 0.0),
                            ("b", 110.0, 5.0, True, False, 0.0)), 15.0, 100.0)
    a, b = timeline.spans
    assert (a.start_ns, a.end_ns) == (100.0, 110.0)
    assert (b.start_ns, b.end_ns) == (110.0, 115.0)
    assert timeline.span("b") is b
    assert timeline.span("missing") is None
    assert timeline.stage_names() == ["a", "b"]


def test_validation():
    """A span record carries all six fields."""
    with pytest.raises(ValueError):
        ServiceTimeline.from_spans(0.0, 1.0, [("a", 0.0, 1.0)])


# ----------------------------------------------------------------------
# StageAccounting
# ----------------------------------------------------------------------


def test_accounting_shares_sum_to_one():
    acct = StageAccounting()
    acct.record("serial", ((STAGE_CTE_FETCH, 0.0, 20.0, True, False, 0.0),
                           (STAGE_DATA_FETCH, 20.0, 30.0, True, False, 0.0)),
                50.0)
    acct.record("hit", ((STAGE_DATA_FETCH, 0.0, 50.0, True, False, 0.0),),
                50.0)
    rows = acct.breakdown()
    assert math.isclose(sum(row["share"] for row in rows), 1.0)
    assert acct.grand_total_ns() == 100.0
    assert acct.path_count("serial") == 1
    metrics = acct()
    assert metrics["serial.cte_fetch.mean_ns"] == 20.0
    assert metrics["hit.count"] == 1
    acct.reset()
    assert acct.breakdown() == []
    assert acct() == {}
