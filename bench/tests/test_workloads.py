"""Tests for the benchmark's input generator and output checker.

    python3 -m pytest bench/tests -q
"""

import collections
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import QUERY_MIX, WORKLOADS, make_inputs  # noqa: E402


def _bytes(workload, seed):
    return json.dumps(make_inputs(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)


def test_other_seed_gives_other_inputs_with_the_same_mix():
    a = make_inputs("closure_queries", 1)["queries"]
    b = make_inputs("closure_queries", 2)["queries"]
    assert a != b
    for queries in (a, b):
        assert collections.Counter(q["kind"] for q in queries) == \
            collections.Counter(QUERY_MIX)


def test_growth_weights_cover_both_sides_of_the_int64_guard():
    weights = [q["weight"] for seed in range(5)
               for q in make_inputs("closure_queries", seed)["queries"]
               if q.get("family") == "rank3"]
    assert min(weights) < 16 <= max(weights)


def test_case_lists_count_missing_renamed_and_extra_cases():
    want = [["s", "a", "pass"], ["s", "b", "pass"], ["s", "c", "pass"]]
    assert checks.compare_cases(want, want) == (3, 0)
    got = [["s", "a", "pass"], ["s", "b", "fail"], ["s", "c2", "pass"]]
    # b has the wrong status, c is missing, c2 is not in the list
    assert checks.compare_cases(want, got) == (4, 3)


def test_a_wrong_expected_value_counts_as_a_failure():
    queries = [{"kind": "order", "preset": "h3_coxeter", "order": 120},
               {"kind": "center", "preset": "g24_334", "order": 336,
                "center": 2},
               {"kind": "word", "preset": "gppn:3:3", "rank": 3,
                "word": [1, 2, 3, 2]},
               {"kind": "growth", "family": "atilde", "preset": "atilde:3",
                "cap": 500}]
    inputs = {"workload": "closure_queries", "queries": queries}
    out = run.Spawner(120)(inputs)
    honest = run.Checker(inputs)
    honest.add(out["ops"])
    assert (honest.attempted, honest.failed, honest.wrong) == (4, 0, 0)

    for i, key, wrong_value in [(0, "order", 121), (1, "center", 3),
                                (2, "word", [1, 2, 3])]:
        bad = json.loads(json.dumps(inputs))
        bad["queries"][i][key] = wrong_value
        checker = run.Checker(bad)
        checker.add(out["ops"])
        assert checker.failed == 1 and checker.wrong == 1
        assert checker.failed_frac == 0.25


def test_a_wrong_case_list_counts_as_a_failure():
    inputs = make_inputs("verify_full", 0)
    cases = checks.load_expected("verify_full.json")
    ops = [{"label": "verify", "elapsed_s": 1.0, "error": None,
            "output": {"exit_code": 0, "cases": cases}}]
    checker = run.Checker(inputs)
    checker.add(ops)
    assert (checker.attempted, checker.failed) == (len(cases), 0)
    flipped = run.Checker(inputs)
    suite_id, case_id, _ = flipped.expected[0]
    flipped.expected[0] = [suite_id, case_id, "fail"]
    flipped.add(ops)
    assert (flipped.attempted, flipped.failed, flipped.wrong) == \
        (len(cases), 1, 1)


def test_an_exception_is_one_failed_operation_not_a_wrong_answer():
    inputs = {"workload": "closure_queries", "queries": [
        {"kind": "order", "preset": "no_such_preset", "order": 1},
        {"kind": "order", "preset": "cor9_a3", "order": 24}]}
    checker = run.Checker(inputs)
    checker.add(run.Spawner(120)(inputs)["ops"])
    assert (checker.attempted, checker.failed, checker.wrong) == (2, 1, 0)


def test_benchmark_json_names_every_metric_the_runs_emit():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = set(tracer.Tracer().metrics()) | {"trace.overhead_ratio"} | {
        "%s.%s.cache_hit_ratio" % c for c in tracer.CACHES}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for names in run.DRIVEN.values():
        assert set(names) <= layer
