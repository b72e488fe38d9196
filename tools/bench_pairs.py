"""Run the benchmark in pairs on two checkouts and summarise every pair.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload protocol \
        --seeds 2001 2002 2003 --seconds 35 --out BENCH_name.json

For each seed, ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout, one run at a time, and the side
that goes first alternates from seed to seed.  Every run's raw last stdout
line (the benchmark's JSON result) is kept, unfiltered, together with its
provenance line and exit code.  Runs already in ``--out`` are kept too, so
several invocations (one per workload, say) fill one file; its summary is
recomputed from all of its runs, and any other key in it is left alone.

The summary gives, per workload and per metric of the result lines, each
side's median and quartiles (``statistics.quantiles(n=4,
method="inclusive")``).  For a metric whose better direction
``BENCHMARK.json`` (in the change checkout) gives, ``gain`` counts the
pairs each side won and says whether a gain may be claimed: of at least
ten seeds run, the change is better in at least nine tenths (a tie, or a
seed where either side printed no result, is a win for neither side), the
medians differ in the better direction by more than the parent's quartile
spread (q3 - q1), and the change has no more failed runs than the parent.
For any other metric, ``change_lower_in_pairs`` counts the pairs in which
the change read lower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in ``checkout``: its exit code, provenance and last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    provenance = next((ln[len("provenance "):] for ln in lines if ln.startswith("provenance ")), None)
    return {
        "returncode": proc.returncode,
        "provenance": provenance,
        "line": lines[-1] if lines else "",
        "stderr_tail": proc.stderr.splitlines()[-5:],
    }


def _result(run):
    # the parsed result line, or None for a run that printed none
    try:
        result = json.loads(run["line"])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _spread(values):
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def gain(parent, change, better, seeds, failed):
    """The gain rule on paired values (one per seed, same order) of a group
    in which ``seeds`` seeds ran and ``failed`` gives each side's failed
    runs: a claim holds when the change is better in >= 9/10 of the seeds
    run, at least ten, ties and unpaired seeds counting for neither side,
    its median beats the parent's by more than the parent's q3 - q1, and
    the change has no more failed runs than the parent."""
    sign = {"lower": 1, "higher": -1}[better]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    spread = _spread(parent)
    gap = sign * (spread["median"] - statistics.median(change)) if change else None
    iqr = None if spread["q1"] is None else spread["q3"] - spread["q1"]
    holds = (seeds >= 10 and 10 * wins >= 9 * seeds and gap > iqr
             and failed["change"] <= failed["parent"])
    return {"better": better, "change_better_in_pairs": f"{wins}/{seeds}",
            "parent_better_in_pairs": f"{losses}/{seeds}",
            "median_gap": gap, "parent_iqr": iqr, "failed_runs": failed, "holds": holds}


def summarize(runs, better=None):
    """Per group (workload, plus ", traced" for --trace 1 runs) and metric:
    each side's spread and, for a metric named in ``better`` (metric ->
    "lower" or "higher"), the gain rule over the paired runs, else the pairs
    in which the change read lower.

    A pair is the parent and change run of one seed; a run without a result
    line joins no pair.  A run fails when it printed no result line, is not
    correct or reports a failed operation.
    """
    better = better or {}
    groups = {}
    for run in runs:
        name = run["workload"] + (", traced" if run["trace"] else "")
        groups.setdefault(name, []).append(run)
    summary = {}
    for name, members in groups.items():
        results = [(run, _result(run)) for run in members]
        by_side = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        for run, result in results:
            if result is not None:
                by_side[run["side"]][run["seed"]] = result
            if result is None or result.get("correct") is not True or result.get("failed") != 0:
                failed[run["side"]] += 1
        seeds_run = len({run["seed"] for run in members})
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        metrics = sorted({m for side in by_side.values() for r in side.values() for m in r["metrics"]})
        entry = {}
        for metric in metrics:
            values = {
                side: {seed: r["metrics"][metric]["value"] for seed, r in got.items()
                       if metric in r["metrics"]}
                for side, got in by_side.items()
            }
            paired = [s for s in seeds if s in values["parent"] and s in values["change"]]
            parent, change = (_spread(list(values[side].values())) for side in ("parent", "change"))
            ratio = None
            if parent["median"] and change["median"] is not None:
                ratio = change["median"] / parent["median"]
            entry[metric] = {"parent": parent, "change": change}
            if metric in better:
                entry[metric]["gain"] = gain([values["parent"][s] for s in paired],
                                             [values["change"][s] for s in paired],
                                             better[metric], seeds_run, failed)
            else:
                lower = sum(values["change"][s] < values["parent"][s] for s in paired)
                entry[metric]["change_lower_in_pairs"] = f"{lower}/{len(paired)}"
            entry[metric]["change_median_over_parent_median"] = ratio
        entry["runs"] = len(members)
        entry["every_run_correct_with_0_failed"] = not any(failed.values())
        summary[name] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="BENCH_*.json to create or extend")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared.get("per_layer", [])}
    document = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            document = json.load(fh)
    runs = document.setdefault("runs", [])
    checkouts = {"parent": args.parent, "change": args.change}
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            run = {"side": side, "workload": args.workload, "seed": seed, "trace": args.trace,
                   "seconds": args.seconds,
                   **run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)}
            runs.append(run)
            print(f"{args.workload} seed {seed} {side}: {run['line']}", flush=True)
        # written after every pair, so an interrupted run keeps the pairs done
        document["summary"] = summarize(runs, better)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
