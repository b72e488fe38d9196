"""Span recorder: times calls into the program's layers from outside.

The recorder replaces public functions at the module bindings their callers
look up (``attrmeaning.cli.read_attribute_csv``, ``attrmeaning.bench.
distance_cvx``, ...) with a wrapper that records one span per call: name,
layer, start, end, parent span and the trace id of the command it ran in,
plus counts taken from the call's arguments or result.  Spans stay in
memory until the run writes them out.  ``uninstall`` puts every original
function back.

Layer times are self times: a span's duration minus its child spans, so
the self times of one command add up to its ``cli.main`` span.
"""

from __future__ import annotations

import hashlib
import json
import os
from statistics import quantiles
from time import perf_counter

import numpy as np

def _cells(args, kwargs, result):
    if isinstance(result, np.ndarray):
        return {"cells": int(result.size)}
    if hasattr(result, "judgments"):  # TruthTable
        return {"cells": 3 * len(result.judgments) + 2 * len(result.actions or {})}
    if hasattr(result, "vocabulary"):  # KeywordReport
        return {"cells": len(result.vocabulary) + sum(len(w) for w in result.items.values())}
    return {"cells": 2 * len(result.entries)}  # NamingTable


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _columns(args, kwargs, result):
    flags = result.converged or ()
    return {"columns": len(result.per_attribute_residuals), "unconverged": flags.count(False)}


def _solve_keys(args, kwargs, result):
    # identify each submitted (bank, column) pair, to count repeated solves
    bank = np.ascontiguousarray(np.asarray(args[0], dtype=np.int8))
    bank_key = hashlib.blake2b(bank.tobytes() + repr(bank.shape).encode(), digest_size=16).digest()
    cols = np.ascontiguousarray(np.asarray(args[1], dtype=np.int8).T)
    counts = _columns(args, kwargs, result)
    counts["keys"] = [bank_key + hashlib.blake2b(c.tobytes(), digest_size=16).digest() for c in cols]
    return counts


def _pairs(args, kwargs, result):
    return {"pairs": result.emitted}


# (module, function, layer, counter)
WRAPS = [
    ("cli", "main", "cli.self", None),
    *(("cli", f, "cli.parse", _cells) for f in (
        "read_feature_csv", "read_attribute_csv", "read_label_csv",
        "read_naming_csv", "read_truth_csv", "read_keywords_json")),
    *(("cli", f, "cli.write", _bytes) for f in ("write_json", "write_attribute_csv", "write_curve_csv")),
    ("cli", "distance_plain", "subspace.plain", _columns),
    ("cli", "distance_cvx", "subspace.cvx", _columns),
    ("bench", "distance_cvx", "subspace.cvx", _solve_keys),
    ("cli", "run_split_validation", "bench.self", None),
    ("cli", "run_noise_curve", "bench.self", None),
    *(("cli", f, "discovery.preprocess", None) for f in ("lift_features", "fit_pca", "apply_pca")),
    ("cli", "train_mmc", "discovery.train_mmc", None),
    ("cli", "train_sh", "discovery.train_sh", None),
    ("cli", "encode", "discovery.encode", None),
    ("cli", "merge_duplicates", "keywords.generate", None),
    ("cli", "generate_keywords", "keywords.generate", None),
    ("cli", "evaluate_hit_rate", "keywords.evaluate", _pairs),
    *((m, "as_attribute_matrix", "attributes.validate", None) for m in (
        "cli", "bench", "subspace", "keywords", "attributes")),
]

# per-layer metric -> unit; order as printed
PER_LAYER = {
    "cli.parse_s": "s",
    "cli.parse_cells": "count",
    "cli.parse_cells_per_s": "1/s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "cli.self_s": "s",
    "subspace.plain_s": "s",
    "subspace.plain_us_per_column": "us",
    "subspace.cvx_s": "s",
    "subspace.cvx_us_per_column": "us",
    "subspace.calls": "count",
    "subspace.columns": "count",
    "subspace.unconverged": "count",
    "bench.self_s": "s",
    "bench.useful_column_ratio": "ratio",
    "discovery.train_mmc_s": "s",
    "discovery.train_sh_s": "s",
    "discovery.preprocess_s": "s",
    "discovery.encode_s": "s",
    "keywords.generate_s": "s",
    "keywords.evaluate_s": "s",
    "keywords.pairs": "count",
    "keywords.evaluate_ns_per_pair": "ns",
    "attributes.validate_calls": "count",
    "attributes.validate_s": "s",
    "trace.overhead_s": "s",
}


class SpanRecorder:
    """Records spans for calls made while installed."""

    def __init__(self):
        self.spans = []  # dicts: name, layer, start, end, parent, trace, counts
        self.trace = None  # id of the command now running
        self._stack = []
        self._originals = []

    def install(self):
        import attrmeaning.attributes
        import attrmeaning.bench
        import attrmeaning.cli
        import attrmeaning.keywords
        import attrmeaning.subspace

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            attrmeaning.attributes, attrmeaning.bench, attrmeaning.cli,
            attrmeaning.keywords, attrmeaning.subspace)}
        for module_name, func, layer, counter in WRAPS:
            module = modules[module_name]
            original = getattr(module, func)
            self._originals.append((module, func, original))
            setattr(module, func, self._wrap(f"{module_name}.{func}", layer, original, counter))

    def uninstall(self):
        while self._originals:
            module, func, original = self._originals.pop()
            setattr(module, func, original)

    def _wrap(self, name, layer, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "parent": stack[-1] if stack else None,
                    "trace": self.trace, "counts": None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Self time of each recorded span: its duration minus its children's."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path, header):
        """Write ``header``, then one span per line (counts without solve keys)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                counts = {k: v for k, v in (s["counts"] or {}).items() if k != "keys"}
                fh.write(json.dumps({"id": i, **{k: s[k] for k in ("name", "layer", "parent", "trace", "start", "end")},
                                     "self": own, "counts": counts}) + "\n")


def layer_metrics(spans, own):
    """Per-layer metrics of one pass from its spans and their self times.

    Layers the pass never entered are absent, not zero.
    """
    self_s, counts = {}, {}
    calls = {}
    distinct = {}
    for s, t in zip(spans, own):
        layer = s["layer"]
        self_s[layer] = self_s.get(layer, 0.0) + t
        calls[layer] = calls.get(layer, 0) + 1
        for key, value in (s["counts"] or {}).items():
            if key == "keys":
                distinct.setdefault(s["trace"], set()).update(value)
            else:
                counts[(layer, key)] = counts.get((layer, key), 0) + value

    def count(layer, key):
        return counts.get((layer, key), 0)

    m = {}
    if "cli.parse" in self_s:
        m["cli.parse_s"] = self_s["cli.parse"]
        m["cli.parse_cells"] = count("cli.parse", "cells")
        m["cli.parse_cells_per_s"] = m["cli.parse_cells"] / m["cli.parse_s"]
    if "cli.write" in self_s:
        m["cli.write_s"] = self_s["cli.write"]
        m["cli.write_bytes"] = count("cli.write", "bytes")
    if "cli.self" in self_s:
        m["cli.self_s"] = self_s["cli.self"]
    solvers = [layer for layer in ("subspace.plain", "subspace.cvx") if layer in self_s]
    for layer in solvers:
        m[f"{layer}_s"] = self_s[layer]
        m[f"{layer}_us_per_column"] = 1e6 * self_s[layer] / count(layer, "columns")
    if solvers:
        m["subspace.calls"] = sum(calls[layer] for layer in solvers)
        m["subspace.columns"] = sum(count(layer, "columns") for layer in solvers)
        m["subspace.unconverged"] = sum(count(layer, "unconverged") for layer in solvers)
    if "bench.self" in self_s:
        m["bench.self_s"] = self_s["bench.self"]
    if distinct:
        submitted = sum(s["counts"]["columns"] for s in spans if s["name"] == "bench.distance_cvx")
        m["bench.useful_column_ratio"] = sum(len(keys) for keys in distinct.values()) / submitted
    for name in ("train_mmc", "train_sh", "preprocess", "encode", "generate", "evaluate"):
        layer = f"{'keywords' if name in ('generate', 'evaluate') else 'discovery'}.{name}"
        if layer in self_s:
            m[f"{layer}_s"] = self_s[layer]
    if "keywords.evaluate" in self_s:
        m["keywords.pairs"] = count("keywords.evaluate", "pairs")
        m["keywords.evaluate_ns_per_pair"] = 1e9 * self_s["keywords.evaluate"] / m["keywords.pairs"]
    if "attributes.validate" in self_s:
        m["attributes.validate_calls"] = calls["attributes.validate"]
        m["attributes.validate_s"] = self_s["attributes.validate"]
    return m


def lower_quartile(values):
    """The run's typical value of a per-pass sample: its lower quartile.

    On a shared 2-vCPU virtual machine a vCPU switched between two speeds
    (the same Python loop took 29 or 47 ms) every few seconds, and the
    share of slow phases varied from run to run.  A median
    sits near the boundary between the two and jumps with that share; the
    lower quartile stays with the faster speed while at least a quarter of
    the passes see it.
    """
    return quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def pass_metrics(per_pass):
    """``lower_quartile`` of each metric over the passes that report it."""
    names = {name for m in per_pass for name in m}
    return {name: lower_quartile([m[name] for m in per_pass if name in m]) for name in names}
