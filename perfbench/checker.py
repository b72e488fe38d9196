"""Judge the files one command wrote against the reference.

Each ``check_*`` returns a list of problems; an empty list means the outputs
are right.  Report documents are compared without their ``meta`` block
(it records the command line, which names this run's paths).

Tolerances, and why:

* plain residuals: 1e-9 relative, the bound any rewrite of the least-squares
  path must meet;
* convex residuals: at least the plain residual of the same column (the
  simplex only removes freedom) and at most the certified optimum plus
  ``CVX_RTOL`` relative, so a more accurate solver still passes while a
  solver that stops early by more than that fails;
* model numbers: ``MODEL_RTOL`` relative;
* codes: exact, except bits whose reference response is within ``TIE_RTOL``
  of zero (relative to the largest response), where the sign is a rounding
  accident.
"""

from __future__ import annotations

import json

import numpy as np

PLAIN_RTOL = 1e-9
CVX_RTOL = 1e-6
MODEL_RTOL = 1e-7
TIE_RTOL = 1e-9


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("meta", None)
    return doc


def _read_codes(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if line]
    try:
        return np.asarray([[{"1": 1, "-1": -1}[tok] for tok in row] for row in rows], dtype=np.int8)
    except (KeyError, ValueError):
        return None


def _close(got, want, rtol, floor=1.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), floor))
    )


def _same(name, got, want):
    return [] if got == want else [f"{name}: got {got!r}, expected {want!r}"]


def check_codes(path, codes, resp):
    """Codes CSV equals the reference codes, ties at zero response excepted."""
    got = _read_codes(path)
    if got is None or got.shape != codes.shape:
        return [f"{path}: not a {codes.shape[0]}x{codes.shape[1]} attribute CSV"]
    scale = max(float(np.max(np.abs(resp))), 1e-300)
    wrong = (got != codes) & (np.abs(resp) > TIE_RTOL * scale)
    if wrong.any():
        i, k = np.argwhere(wrong)[0]
        return [f"{path}: {int(wrong.sum())} code bits differ, first at row {i}, bit {k}"]
    return []


def _check_numbers(prefix, got, want):
    problems = []
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{prefix}: keys differ"]
        for key in want:
            problems += _check_numbers(f"{prefix}.{key}", got[key], want[key])
        return problems
    want = np.asarray(want)
    if want.dtype.kind in "iu":
        if not np.array_equal(np.asarray(got), want):
            problems.append(f"{prefix}: differs")
    elif not _close(got, want, MODEL_RTOL, floor=1e-9):
        problems.append(f"{prefix}: outside relative tolerance {MODEL_RTOL}")
    return problems


def check_discover(model_path, codes_path, header, payload, codes, resp):
    """Model JSON matches the frozen coder; the codes CSV matches its codes."""
    doc = _load_json(model_path)
    problems = []
    for key, value in header.items():
        problems += _same(f"{model_path}: {key}", doc.get(key), value)
    problems += _check_numbers(f"{model_path}: payload", doc.get("payload"), payload)
    return problems + check_codes(codes_path, codes, resp)


def canonical(document):
    """The text two equal documents share (sorted keys)."""
    return json.dumps(document, sort_keys=True)


def check_document(path, expected):
    """A report whose ``canonical`` text, ``meta`` left out, is ``expected``."""
    if canonical(_load_json(path)) != expected:
        return [f"{path}: differs from the reference document"]
    return []


def check_distance(path, mode, bank_shape, k, plain, cvx):
    """``distance`` report: residuals, their mean and the bookkeeping fields."""
    doc = _load_json(path)
    n, j = bank_shape
    problems = []
    for key, value in (("mode", mode), ("n_instances", n), ("subspace_columns", j),
                       ("discovered_columns", k)):
        problems += _same(f"{path}: {key}", doc.get(key), value)
    resid = np.asarray(doc.get("per_attribute_residuals"), dtype=np.float64)
    if resid.shape != (k,):
        return problems + [f"{path}: expected {k} residuals"]
    if mode == "plain":
        if not _close(resid, plain, PLAIN_RTOL):
            problems.append(f"{path}: plain residuals differ from lstsq by more than {PLAIN_RTOL} relative")
        problems += _same(f"{path}: converged", doc.get("converged"), None)
    else:
        if np.any(resid < plain - PLAIN_RTOL * np.maximum(plain, 1.0)):
            problems.append(f"{path}: a convex residual is below its plain residual")
        if np.any(resid > cvx + CVX_RTOL * np.maximum(cvx, 1.0)):
            problems.append(f"{path}: a convex residual exceeds the optimum by more than {CVX_RTOL} relative")
        flags = doc.get("converged")
        if not (isinstance(flags, list) and len(flags) == k and all(isinstance(f, bool) for f in flags)):
            problems.append(f"{path}: converged must list {k} booleans")
    mean = doc.get("mean_distance")
    if not _close(mean, resid.mean(), PLAIN_RTOL) or not _close(doc.get("normalized_distance"), resid.mean() / n, PLAIN_RTOL):
        problems.append(f"{path}: mean or normalized distance disagrees with the residuals")
    return problems


def check_split(path, expected):
    """``bench split-validate`` report against the reference protocol."""
    doc = _load_json(path)
    problems = []
    for key in ("seed", "left_fraction", "n_instances", "retained_columns", "held_out_columns"):
        problems += _same(f"{path}: {key}", doc.get(key), expected[key])
    rows = doc.get("rows") or []
    by_name = {row.get("name"): row for row in rows}
    if set(by_name) != set(expected["rows"]) or len(rows) != len(by_name):
        return problems + [f"{path}: rows {sorted(by_name)} expected {sorted(expected['rows'])}"]
    for name, want in expected["rows"].items():
        row = by_name[name]
        problems += _same(f"{path}: {name}.columns", row.get("columns"), want["columns"])
        for key in ("mean_distance", "normalized_distance"):
            if not _close(row.get(key), want[key], CVX_RTOL):
                problems.append(f"{path}: {name}.{key} {row.get(key)!r}, expected {want[key]!r}")
        if not isinstance(row.get("all_converged"), bool):
            problems.append(f"{path}: {name}.all_converged is not a boolean")
    means = [row.get("mean_distance") for row in rows]
    if means != sorted(means):
        problems.append(f"{path}: rows are not sorted by mean distance")
    return problems


def check_noise_curve(json_path, csv_path, expected):
    """``bench noise-curve`` report and CSV: same curve, within tolerance of the reference."""
    doc = _load_json(json_path)
    problems = []
    for key in ("counts", "trials", "seed"):
        problems += _same(f"{json_path}: {key}", doc.get(key), expected[key])
    if not _close(doc.get("distances"), expected["distances"], CVX_RTOL):
        problems.append(f"{json_path}: distances {doc.get('distances')!r}, expected {expected['distances']!r}")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    want = ["count,mean_distance"] + [
        f"{c},{d!r}" for c, d in zip(doc.get("counts") or [], doc.get("distances") or [])
    ]
    if lines != want:
        problems.append(f"{csv_path}: does not match the JSON curve")
    return problems
