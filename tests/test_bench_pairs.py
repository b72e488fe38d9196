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


def _pairs(parent, change, metric="peak_rss_mb"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", seed, 0.2, p), _run("change", seed, 0.2, c)]
    return bench_pairs.summarize(runs, {metric: "lower", "run_s": "lower"})["protocol"][metric]


_PARENT = [74.0, 74.1, 74.2, 74.0, 74.1, 74.2, 74.0, 74.1, 74.2, 74.1]  # q3 - q1 = 74.175 - 74.025


def test_gain_holds_for_nine_wins_in_ten_with_a_large_gap():
    change = [69.6] * 9 + [74.5]
    got = _pairs(_PARENT, change)["gain"]
    assert got["change_better_in_pairs"] == "9/10"
    assert got["parent_better_in_pairs"] == "1/10"
    assert got["median_gap"] == pytest.approx(74.1 - 69.6)
    assert got["parent_iqr"] == pytest.approx(0.15)
    assert got["holds"]


def test_gain_fails_for_eight_wins_in_ten():
    got = _pairs(_PARENT, [69.6] * 8 + [74.5, 74.5])["gain"]
    assert got["change_better_in_pairs"] == "8/10"
    assert not got["holds"]


def test_gain_counts_a_tie_for_neither_side():
    tied = _pairs(_PARENT, [69.6] * 9 + [_PARENT[9]])["gain"]
    assert (tied["change_better_in_pairs"], tied["parent_better_in_pairs"]) == ("9/10", "0/10")
    assert tied["holds"]
    two_ties = _pairs(_PARENT, [69.6] * 8 + _PARENT[8:])["gain"]
    assert (two_ties["change_better_in_pairs"], two_ties["parent_better_in_pairs"]) == ("8/10", "0/10")
    assert not two_ties["holds"]


def test_gain_fails_when_the_median_gap_is_within_the_parent_spread():
    got = _pairs(_PARENT, [p - 0.05 for p in _PARENT])["gain"]
    assert got["change_better_in_pairs"] == "10/10"
    assert got["median_gap"] < got["parent_iqr"]
    assert not got["holds"]


def test_gain_reads_the_better_direction_and_needs_ten_pairs():
    runs = []
    for seed in range(10):
        runs += [_run("parent", seed, 0.20 + seed * 1e-3), _run("change", seed, 0.10)]
    summary = bench_pairs.summarize(runs, {"run_s": "higher"})["protocol"]
    assert summary["run_s"]["gain"]["change_better_in_pairs"] == "0/10"
    assert not summary["run_s"]["gain"]["holds"]
    assert "gain" not in summary["peak_rss_mb"]  # no direction given
    assert bench_pairs.summarize(runs[:18], {"run_s": "lower"})["protocol"]["run_s"]["gain"]["holds"] is False
    assert bench_pairs.summarize(runs, {"run_s": "lower"})["protocol"]["run_s"]["gain"]["holds"]


def _gain(runs):
    return bench_pairs.summarize(runs, {"peak_rss_mb": "lower"})["protocol"]["peak_rss_mb"]["gain"]


def test_gain_counts_every_seed_run():
    runs = []
    for seed, (p, c) in enumerate(zip(_PARENT + [74.1], [69.6] * 9 + [74.5, 69.6])):
        runs += [_run("parent", seed, 0.2, p), _run("change", seed, 0.2, c)]
    runs[-2] = {**runs[-2], "line": "Traceback (most recent call last):"}
    got = _gain(runs)  # 9 wins in the 10 pairs, but 11 seeds were run
    assert got["change_better_in_pairs"] == "9/11"
    assert got["failed_runs"] == {"parent": 1, "change": 0}
    assert not got["holds"]


def test_gain_fails_when_the_change_fails_more_runs():
    runs = []
    for seed, p in enumerate(_PARENT):
        runs += [_run("parent", seed, 0.2, p), _run("change", seed, 0.2, 69.6)]
    runs[1] = _run("change", 0, 0.2, 69.6, correct=False)
    got = _gain(runs)
    assert got["change_better_in_pairs"] == "10/10"
    assert got["failed_runs"] == {"parent": 0, "change": 1}
    assert not got["holds"]
    runs[0] = _run("parent", 0, 0.2, _PARENT[0], correct=False)  # one failure on each side
    assert _gain(runs)["holds"]
