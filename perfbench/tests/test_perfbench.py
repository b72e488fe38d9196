"""The benchmark's own checks: seeded inputs, the output checker, the spans.

Run with ``python3 -m pytest perfbench/tests``.  Every group runs at its
small size here, so the whole file takes a few seconds.
"""

import json
import os

import pytest

import attrmeaning.cli as cli
import spans
import workloads
from run import Runner


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("bench"))
    return {c.metric: c for c in workloads.build("score", 7, workdir, big=())}


def _run(cmd):
    assert cli.main(list(cmd.argv)) == 0
    assert cmd.check() == []


def _input_bytes(workdir):
    indir = os.path.join(workdir, "in")
    out = {}
    for name in sorted(os.listdir(indir)):
        with open(os.path.join(indir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first, second, other = (str(tmp_path / d) for d in ("a", "b", "c"))
    workloads.build("protocol", 3, first, big=())
    workloads.build("protocol", 3, second, big=())
    workloads.build("protocol", 4, other, big=())
    assert _input_bytes(first) == _input_bytes(second)
    assert _input_bytes(first) != _input_bytes(other)


def test_checker_flags_one_flipped_code_bit(built):
    cmd = built["discover_lsh"]
    _run(cmd)
    codes_path = cmd.outputs[1]
    with open(codes_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = lines[0].split(",")
    first[0] = "-1" if first[0] == "1" else "1"
    lines[0] = ",".join(first)
    with open(codes_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = cmd.check()
    assert len(problems) == 1 and "1 code bits differ" in problems[0]


@pytest.mark.parametrize("mode, factor", [("plain", 1 + 1e-7), ("cvx", 1 + 1e-4)])
def test_checker_flags_one_perturbed_residual(built, mode, factor):
    cmd = built[f"distance_{mode}"]
    _run(cmd)
    with open(cmd.outputs[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["per_attribute_residuals"][3] *= factor
    with open(cmd.outputs[0], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert any("residual" in p for p in cmd.check())


def test_checker_accepts_a_more_accurate_cvx_solve(built):
    cmd = built["distance_cvx"]
    _run(cmd)
    with open(cmd.outputs[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    # the reference optimum is a valid answer too
    expected = cmd.check.args[-1]
    doc["per_attribute_residuals"] = expected.tolist()
    doc["mean_distance"] = float(expected.mean())
    doc["normalized_distance"] = float(expected.mean()) / doc["n_instances"]
    with open(cmd.outputs[0], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert cmd.check() == []


def test_span_self_times_add_up_to_each_command(tmp_path):
    commands = workloads.build("score", 9, str(tmp_path), big=())
    recorder = spans.SpanRecorder()
    runner = Runner(cli, commands, recorder)
    runner.run_pass()
    verdicts = dict(runner.verdicts)
    traced, first = runner.run_pass(traced=True)
    assert runner.failed == 0
    # traced outputs are byte-identical to untraced ones, so no new verdicts
    assert runner.verdicts == verdicts
    assert not hasattr(cli.main, "__wrapped__")  # originals are back

    own = recorder.self_times()
    roots = [i for i, s in enumerate(recorder.spans) if s["name"] == "cli.main"]
    assert len(roots) == len(commands)
    for cmd, root in zip(commands, roots):
        trace = recorder.spans[root]["trace"]
        total_self = sum(t for s, t in zip(recorder.spans, own) if s["trace"] == trace)
        root_span = recorder.spans[root]
        assert total_self == pytest.approx(root_span["end"] - root_span["start"], rel=1e-9, abs=1e-9)
        # the command's wall time beyond its spans is the root wrapper's own
        # entry and exit, and the runner's stdout redirection
        assert 0.0 <= traced[cmd.metric] - total_self < 5e-3
    metrics = spans.layer_metrics(recorder.spans[first:], own[first:])
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_s"}


def test_layers_never_entered_are_missing_not_zero(tmp_path):
    commands = workloads.build("score", 9, str(tmp_path), big=())
    recorder = spans.SpanRecorder()
    runner = Runner(cli, [c for c in commands if c.metric == "distance_plain"], recorder)
    runner.run_pass(traced=True)
    metrics = spans.layer_metrics(recorder.spans, recorder.self_times())
    assert metrics["subspace.columns"] == workloads.SIZES["distance"]["small"]["k"]
    assert "subspace.cvx_s" not in metrics
    assert "keywords.evaluate_s" not in metrics
    assert "bench.useful_column_ratio" not in metrics


def test_useful_column_ratio_counts_repeated_solves(tmp_path):
    commands = workloads.build("protocol", 5, str(tmp_path), big=())
    recorder = spans.SpanRecorder()
    noise = [c for c in commands if c.metric == "noise_curve"]
    Runner(cli, noise, recorder).run_pass(traced=True)
    size = workloads.SIZES["protocol"]["small"]
    counts = range(size["step"], size["max_noise"] + 1, size["step"])
    calls = 1 + size["trials"] * len(counts)
    submitted = size["noise_cols"] * calls + size["trials"] * sum(counts)
    distinct = size["noise_cols"] + size["trials"] * sum(counts)
    metrics = spans.layer_metrics(recorder.spans, recorder.self_times())
    assert metrics["bench.useful_column_ratio"] == distinct / submitted


def test_runner_counts_wrong_outputs_and_errors_as_failed(tmp_path):
    plain = {c.metric: c for c in workloads.build("score", 9, str(tmp_path), big=())}["distance_plain"]
    bank = plain.argv[plain.argv.index("--meaningful") + 1]
    wrong = workloads.Command(plain.metric, [bank if a.endswith("discovered.csv") else a for a in plain.argv],
                              plain.outputs, plain.check)
    missing = workloads.Command(plain.metric, [a.replace("bank.csv", "absent.csv") for a in plain.argv],
                                plain.outputs, plain.check)
    runner = Runner(cli, [plain, wrong, missing])
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (3, 2)
    assert "exit 3" in runner.problems[-1]
