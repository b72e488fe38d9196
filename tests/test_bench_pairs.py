"""The pair summary of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(side, seed, run_s, rss=60.0, workload="protocol", trace=0, correct=True):
    result = {
        "correct": correct, "attempted": 100, "failed": 0 if correct else 1,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "line": json.dumps(result)}


def test_summary_counts_pairs_and_spreads():
    runs = [
        _run("parent", 1, 0.20, 60.0), _run("change", 1, 0.18, 60.5),
        _run("change", 2, 0.17, 60.5), _run("parent", 2, 0.21, 60.0),
        _run("parent", 3, 0.19, 60.0), _run("change", 3, 0.20, 59.0),
        _run("parent", 4, 0.22, 61.0), _run("change", 4, 0.16, 61.0),
        _run("parent", 5, 0.30, 61.0, workload="score"),
        _run("change", 5, 0.25, 61.0, workload="score"),
    ]
    summary = bench_pairs.summarize(runs)
    run_s = summary["protocol"]["run_s"]
    assert run_s["change_lower_in_pairs"] == "3/4"
    assert run_s["parent"] == pytest.approx({"median": 0.205, "q1": 0.1975, "q3": 0.2125, "n": 4})
    assert run_s["change"]["median"] == pytest.approx(0.175)
    assert run_s["change_median_over_parent_median"] == pytest.approx(0.175 / 0.205)
    # equal values are not lower
    assert summary["protocol"]["peak_rss_mb"]["change_lower_in_pairs"] == "1/4"
    assert summary["protocol"]["runs"] == 8
    assert summary["protocol"]["every_run_correct_with_0_failed"]
    assert summary["score"]["run_s"]["change_lower_in_pairs"] == "1/1"
    assert summary["score"]["run_s"]["parent"] == {"median": 0.30, "q1": None, "q3": None, "n": 1}


def test_summary_keeps_failed_and_traced_runs_apart():
    broken = {"side": "change", "workload": "protocol", "seed": 2, "trace": 0,
              "line": "Traceback (most recent call last):"}
    runs = [
        _run("parent", 1, 0.20), _run("change", 1, 0.18, correct=False),
        _run("parent", 2, 0.20), broken,
        _run("parent", 3, 0.20, trace=1), _run("change", 3, 0.10, trace=1),
    ]
    summary = bench_pairs.summarize(runs)
    plain = summary["protocol"]
    # the failed run still pairs; the run without a result line joins no pair
    assert plain["run_s"]["change_lower_in_pairs"] == "1/1"
    assert plain["runs"] == 4
    assert not plain["every_run_correct_with_0_failed"]
    assert summary["protocol, traced"]["run_s"]["change_lower_in_pairs"] == "1/1"
    assert summary["protocol, traced"]["every_run_correct_with_0_failed"]
