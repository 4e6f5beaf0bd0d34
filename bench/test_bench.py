"""Tests of the benchmark itself: its checks, its ranking and its tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import math

import pytest

import calibration
import checks
import run
import workloads
import worker
from ramsys.counting import count_rsc, parse_ramification
from tracing import Tracer

S5_ALL_ONES = [("5^1", 1), ("1^1 4^1", 1), ("2^1 3^1", 1), ("1^2 3^1", 1),
               ("1^1 2^2", 1), ("1^3 2^1", 1), ("1^5", 1)]

S5_TABLE = """\
class    r  gamma  factor
5^1      1  5      5
1^1 4^1  1  4      4
2^1 3^1  1  6      6
1^2 3^1  1  6      6
1^1 2^2  1  4      4
1^3 2^1  1  4      4
1^5      1  2      2
count = {count}
"""

S3_REPS = """\
# n = 3, ramification: 3^1:1;1^1 2^1:1;1^3:1
# classes: 3^1 (gamma=3, u0=(1 2 3)); 1^1 2^1 (gamma=2, u0=(2 3)); 1^3 (gamma=2, u0=())
# count = 12
(1,0,0) (1,0) (1,0)
(1,0,0) (1,0) (0,1)
(1,0,0) (0,1) (1,0)
"""
S3_ENTRIES = [("3^1", 1), ("1^1 2^1", 1), ("1^3", 1)]


def test_count_check_accepts_the_right_count():
    out = S5_TABLE.format(count=23040)
    assert checks.check_count(S5_ALL_ONES, 23040, "table", 0, out, "") == checks.Outcome(checks.OK, 7)


def test_count_check_flags_a_wrong_count():
    out = S5_TABLE.format(count=23041)
    assert checks.check_count(S5_ALL_ONES, 23040, "table", 0, out, "").status == checks.WRONG


def test_reps_check_accepts_descending_vectors():
    outcome = checks.check_reps(S3_ENTRIES, 12, 3, 0, S3_REPS, "")
    assert outcome == checks.Outcome(checks.OK, 3)


def test_reps_check_flags_a_vector_out_of_order():
    lines = S3_REPS.splitlines()
    lines[4], lines[5] = lines[5], lines[4]
    outcome = checks.check_reps(S3_ENTRIES, 12, 3, 0, "\n".join(lines), "")
    assert outcome.status == checks.WRONG


def test_reps_check_flags_a_short_stream():
    outcome = checks.check_reps(S3_ENTRIES, 12, 4, 0, S3_REPS, "")
    assert outcome.status == checks.WRONG


def test_classes_check_flags_a_wrong_gamma():
    out = "type     size  centralizer  gamma  factors\n3^1      2     3            3      3\n" \
          "1^1 2^1  3     2            3      2\n1^3      1     6            2      2\n"
    assert checks.check_classes(3, 0, out, "").status == checks.WRONG


def test_digit_limit_failure_is_a_known_defect_only_past_the_limit():
    err = "error: Exceeds the limit (4300 digits) for integer string conversion"
    assert checks.check_count([], 10**4300, "table", 2, "", err).status == checks.KNOWN_DEFECT
    assert checks.check_count([], 10**4299, "table", 2, "", err).status == checks.ERROR
    assert checks.check_count([], 10**4300, "table", 2, "", "error: other").status == checks.ERROR


def test_big_int_reads_past_the_digit_limit():
    assert checks.big_int("1" + "0" * 9000) == 10**9000


def _pass(latencies: list[float], failed: set[int] = frozenset()) -> dict:
    # a reference-loop time equal to REFERENCE_NS leaves times unscaled
    return {"records": [
        {"id": i, "latency_ns": ns, "first_ns": ns, "loop_ns": calibration.REFERENCE_NS,
         "items": 1, "status": checks.KNOWN_DEFECT if i in failed else checks.OK}
        for i, ns in enumerate(latencies)
    ]}


def test_failures_rank_last():
    # the two fastest of 20 requests fail
    latency = run.ranked([_pass([10.0 * (i + 1) for i in range(20)], failed={0, 1})], "latency_ns")
    assert sorted(latency)[-2:] == [math.inf, math.inf]
    assert run.percentile(latency, 0.5) == 120.0   # 100.0 had they succeeded
    assert run.percentile(latency, 0.9) == 200.0   # still finite at a tenth failed


def test_percentile_falls_on_a_failure_when_too_many_fail():
    passes = [_pass([float(i + 1) for i in range(10)], failed={0, 1})]
    with pytest.raises(run.BenchError):
        run.end_to_end(passes, [1.0])


def test_count_sweep_keeps_the_digit_limit_failures_under_a_tenth():
    reqs = [r for r in workloads.build("count-sweep", 0, 0) if r.kind == "count"]
    over = [r for r in reqs if checks.exceeds_digit_limit(count_rsc(parse_ramification(r.spec, r.n)))]
    total = len(workloads.build("count-sweep", 0, 0))
    assert 0 < len(over) < total / 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_are_seeded_and_distinct(workload):
    reqs = workloads.build(workload, 7, 1)
    assert reqs == workloads.build(workload, 7, 1)
    keys = {(r.kind, r.n, r.spec, r.fmt, r.limit, r.r) for r in reqs}
    assert len(keys) == len(reqs)
    warm = {(r.kind, r.n, r.spec, r.fmt, r.limit, r.r) for r in workloads.warmup(workload)}
    assert not keys & warm


@pytest.mark.parametrize("req, items", [
    (workloads.Request(0, "classes", 5), 7),
    (workloads.Request(0, "count", 5, "all:1", "json"), 7),
    (workloads.Request(0, "reps", 4, "2^2:4;1^4:2", limit=6), 6),
    (workloads.Request(0, "oracle", 3, "1^1 2^1", r=2), 12),
])
def test_worker_runs_and_checks_requests(req, items):
    [record] = worker.Pass().run_all([req])
    assert record["status"] == checks.OK
    assert record["items"] == items
    assert 0 < record["first_ns"] <= record["latency_ns"]


def test_tracer_records_spans_per_module():
    runner = worker.Pass()
    runner.tracer = Tracer()
    runner.tracer.install()
    runner.traced = True
    [record] = runner.run_all([workloads.Request(0, "reps", 5, "all:1", limit=10)])
    runner.traced = False
    assert record["status"] == checks.OK
    spans = runner.tracer.snapshot()
    assert spans["cli.main"]["calls"] == 1
    assert spans["counting.enumerate_types"]["calls"] == 1
    assert spans["counting.enumerate_types"]["items"] >= 10
    assert spans["counting.type_vector_str"]["calls"] == 10
    assert spans["perm.enumerate_cycle_types"]["items"] == 7
    assert all(s["self_ms"] >= 0 for s in spans.values())
    assert runner.cache_hits["centralizer.gamma"][0] > 0
