"""Batch command-line surface and all file formats.

Subcommands: discover, distance, bench (split-validate | noise-curve),
keywords (generate | evaluate).  This is the only module that touches
files.  Formats:

* matrix CSV: UTF-8, comma-separated, no header, one row per instance;
  feature files hold decimal reals, attribute/code files hold only the
  tokens ``1`` and ``-1``; a label file holds one integer per line;
* naming CSV: header ``bit,positive_name`` (empty name = unnameable bit);
* truth CSV: header ``item_id,keyword,suitable`` with suitable in {0, 1};
  optional actions CSV ``item_id,action``;
* models and reports: JSON; reports carry a ``meta`` block (version,
  command line, seed) and never a timestamp, so identical invocations
  produce byte-identical files.

Exit codes: 0 success, 2 usage, 3 input/format, 4 numeric failure.
All randomness flows from ``--seed``.  A command's output files appear
together or not at all: each is staged next to its target and renamed into
place only after every write has succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .attributes import as_attribute_matrix
from .bench import SplitProtocol, run_noise_curve, run_split_validation
from .discovery import (
    LiftClampWarning,
    LshModel,
    MmcHyperparams,
    MmcModel,
    PcaModel,
    ShModel,
    encode,
    fit_pca,
    apply_pca,
    lift_features,
    train_lsh,
    train_mmc,
    train_sh,
)
from .keywords import (
    KeywordReport,
    NamingTable,
    TruthTable,
    evaluate_hit_rate,
    generate_keywords,
    merge_duplicates,
)
from .subspace import SolverConfig, distance_cvx, distance_plain

__all__ = ["main", "model_to_dict", "model_from_dict"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


class InputFormatError(Exception):
    """A file failed to parse; maps to exit code 3."""


# ---------------------------------------------------------------------------
# readers (line/field positions are 1-based and count blank lines, as in editors)


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc


def _read_text(path, data=None) -> str:
    # ``data``: the file's bytes if already read; line ends stay as written
    # (csv sees quoted newlines)
    try:
        return (_read_bytes(path) if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from None


def _put(target, fields, tokens) -> None:
    # numpy converts each string with Python's float()/int(); ``tokens``,
    # when given, is the whole set of values a field may hold once stripped
    if tokens is not None and not (
        tokens.issuperset(fields) or tokens.issuperset(map(str.strip, fields))
    ):
        raise ValueError("token outside the allowed set")
    target[:] = fields


def _load_canonical(data, dtype, charset, width, tokens):
    # one np.loadtxt call for a file spelled only in ``charset``; None unless
    # the result meets every rule of the line reader (within the attribute
    # charset, |v| == 1 holds exactly for the tokens 1 and -1)
    if data.translate(None, charset):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "no data" warning
            M = np.loadtxt(io.BytesIO(data), dtype, comments=None, delimiter=",", ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    valid = M.size and width in (None, M.shape[1]) and np.isfinite(M).all()
    return M if valid and (tokens is None or (np.abs(M) == 1).all()) else None


def _read_matrix(path, dtype, bad_token, charset, width=None, tokens=None) -> np.ndarray:
    """Headerless comma-separated matrix: one row per non-blank line.

    A file spelled only in ``charset``'s bytes (as the CLI writes codes and
    as ``str``/``repr`` spell numbers) is converted in one vectorised pass.
    Any other file, or one that pass rejects, is read by line: every row
    has ``width`` fields (default: as many as the first row) and is
    converted whole; only a row that fails is scanned field by field, under
    the same rule, to name the first bad field with ``bad_token``
    (formatted with ``line``, ``field`` and ``token``).  Float values must
    be finite.  Both ways give the same array or the same error.
    """
    data = _read_bytes(path)
    M = _load_canonical(data, dtype, charset, width, tokens)
    if M is not None:
        return M
    lines = _read_text(path, data).splitlines()
    numbers = [ln for ln, line in enumerate(lines, start=1) if line.strip()]
    if not numbers:
        raise InputFormatError(f"{path}: file is empty")
    width = width or lines[numbers[0] - 1].count(",") + 1
    M = np.empty((len(numbers), width), dtype=dtype)
    for row, ln in enumerate(numbers):
        fields = lines[ln - 1].split(",")
        if len(fields) != width:
            raise InputFormatError(
                f"{path}: line {ln} has {len(fields)} fields, expected {width}"
            )
        try:
            _put(M[row], fields, tokens)
        except ValueError:
            for col, tok in enumerate(fields):
                try:
                    _put(M[row, col : col + 1], [tok], tokens)
                except ValueError:
                    message = bad_token.format(line=ln, field=col + 1, token=tok.strip())
                    raise InputFormatError(f"{path}: {message}") from None
    if M.dtype.kind == "f" and not np.isfinite(M).all():
        row, col = np.argwhere(~np.isfinite(M))[0]
        raise InputFormatError(
            f"{path}: line {numbers[row]}, field {col + 1}: non-finite value"
        )
    return M


def read_feature_csv(path) -> np.ndarray:
    """Headerless CSV of decimal reals, one instance per row."""
    return _read_matrix(
        path, np.float64, "line {line}, field {field}: {token!r} is not a number",
        b"0123456789+-.eE,\n",
    )


_ATTRIBUTE_TOKENS = frozenset(("1", "-1"))


def read_attribute_csv(path) -> np.ndarray:
    """Headerless CSV whose only tokens are 1 and -1."""
    return _read_matrix(
        path,
        np.int8,
        "line {line}, field {field}: {token!r} is not an attribute token "
        "(expected 1 or -1)",
        b"1-,\n",
        tokens=_ATTRIBUTE_TOKENS,
    )


def read_label_csv(path) -> np.ndarray:
    """One integer class label per line."""
    return _read_matrix(
        path, np.int64, "line {line}: {token!r} is not an integer label",
        b"0123456789-,\n", width=1,
    ).reshape(-1)


def _read_table(path, header):
    """Yield ``(line, fields)`` for each data row of a CSV file with ``header``.

    Fields are stripped and blank rows skipped; ``line`` is the line on
    which the row ends, so a quoted newline inside a field counts.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    expected = list(header)
    has_header = False
    for row in reader:
        fields = [field.strip() for field in row]
        if not any(fields):
            continue
        if not has_header:
            if fields != expected:
                raise InputFormatError(
                    f"{path}: expected header {','.join(header)!r}, "
                    f"got {','.join(fields)!r}"
                )
            has_header = True
        elif len(fields) != len(header):
            raise InputFormatError(
                f"{path}: line {reader.line_num} has {len(fields)} fields, "
                f"expected {len(header)}"
            )
        else:
            yield reader.line_num, fields
    if not has_header:
        raise InputFormatError(f"{path}: file is empty")


def read_naming_csv(path) -> NamingTable:
    """``bit,positive_name`` table; empty names mark unnameable bits."""
    entries = {}
    seen = set()
    for ln, (bit_text, name) in _read_table(path, ("bit", "positive_name")):
        try:
            bit = int(bit_text)
        except ValueError:
            raise InputFormatError(
                f"{path}: line {ln}: {bit_text!r} is not a bit index"
            ) from None
        if bit in seen:
            raise InputFormatError(f"{path}: line {ln}: bit {bit} listed twice")
        seen.add(bit)
        if name:
            entries[bit] = name
    try:
        return NamingTable(entries)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def read_truth_csv(path, actions_path=None) -> TruthTable:
    """``item_id,keyword,suitable`` judgments, optionally with an action table."""
    judgments = {}
    for ln, (item, keyword, tok) in _read_table(
        path, ("item_id", "keyword", "suitable")
    ):
        if tok not in ("0", "1"):
            raise InputFormatError(
                f"{path}: line {ln}: suitable must be 0 or 1, got {tok!r}"
            )
        key = (item, keyword)
        if key in judgments:
            raise InputFormatError(
                f"{path}: line {ln}: duplicate judgment for ({item!r}, {keyword!r})"
            )
        judgments[key] = int(tok)

    actions = None
    if actions_path is not None:
        actions = {}
        for ln, (item, action) in _read_table(actions_path, ("item_id", "action")):
            if item in actions:
                raise InputFormatError(
                    f"{actions_path}: line {ln}: duplicate item {item!r}"
                )
            actions[item] = action
    return TruthTable(judgments=judgments, actions=actions)


def read_keywords_json(path) -> KeywordReport:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        vocabulary = tuple(str(w) for w in doc["vocabulary"])
        items = {
            str(item): tuple(str(w) for w in words)
            for item, words in doc["items"].items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputFormatError(
            f"{path}: expected JSON object with 'vocabulary' and 'items'"
        ) from exc
    vocab_set = set(vocabulary)
    for item, words in items.items():
        for word in words:
            if word not in vocab_set:
                raise InputFormatError(
                    f"{path}: item {item!r} emits {word!r}, which is not in "
                    f"the vocabulary"
                )
    return KeywordReport(items=items, vocabulary=vocabulary)


# ---------------------------------------------------------------------------
# writers


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sibling_temp(target) -> str:
    # an empty temp file in the target's directory, so publishing it is a
    # rename within one file system; errors name the target, not the temp
    directory = os.path.dirname(os.path.abspath(target))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".attrmeaning-", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from None
    os.close(fd)
    return tmp


@contextlib.contextmanager
def _staged_outputs(*targets):
    """Yield one temp path per target; publish them all if the block succeeds.

    On any failure every temp file and every target already published by
    this call is removed, so a failing command leaves no output behind.
    OS errors are re-raised naming the target path.
    """
    temps, published = [], []
    try:
        for target in targets:
            temps.append(_sibling_temp(target))
        yield temps
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
            published.append(target)
    except BaseException as exc:
        for path in temps + published:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if isinstance(exc, OSError) and exc.filename in temps:
            target = targets[temps.index(exc.filename)]
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise


def write_attribute_csv(path, Z) -> None:
    Z = as_attribute_matrix(Z)
    # one row's strings at a time: a whole-matrix tolist() holds a str per cell
    lines = [",".join(row.tolist()) for row in np.where(Z == 1, "1", "-1")]
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, document) -> None:
    _write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_curve_csv(path, curve) -> None:
    lines = ["count,mean_distance"]
    for count, dist in zip(curve.counts, curve.distances):
        lines.append(f"{count},{float(dist)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _meta(args, seed=None) -> dict:
    return {
        "version": __version__,
        "command": "attrmeaning " + " ".join(args._argv),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# model (de)serialization: {type, dims, bits, seed, payload}


def model_to_dict(model) -> dict:
    """Serialize a coder model to the JSON document schema."""
    if isinstance(model, LshModel):
        return {
            "type": "lsh",
            "dims": model.dims,
            "bits": model.bits,
            "seed": model.seed,
            "payload": {"hyperplanes": model.hyperplanes.tolist()},
        }
    if isinstance(model, ShModel):
        return {
            "type": "sh",
            "dims": model.dims,
            "bits": model.bits,
            "seed": None,
            "payload": {
                "pca": {
                    "mean": model.pca.mean.tolist(),
                    "basis": model.pca.basis.tolist(),
                    "explained_variance": model.pca.explained_variance.tolist(),
                },
                "ranges": model.ranges.tolist(),
                "modes": model.modes.tolist(),
                "eigenvalues": model.eigenvalues.tolist(),
            },
        }
    if isinstance(model, MmcModel):
        return {
            "type": "mmc",
            "dims": model.dims,
            "bits": model.bits,
            "seed": model.seed,
            "payload": {
                "hyperplanes": model.hyperplanes.tolist(),
                "classes": model.classes.tolist(),
                "hyperparams": {
                    "regularization": model.hyperparams.regularization,
                    "epochs": model.hyperparams.epochs,
                    "learning_rate": model.hyperparams.learning_rate,
                },
            },
        }
    raise TypeError(f"unknown coder model type: {type(model).__name__}")


def model_from_dict(doc: dict):
    """Rebuild a coder model from its JSON document.

    Raises InputFormatError when the document is not an object, names an
    unknown model type, lacks or mistypes a field, or holds an array whose
    shape does not fit its ``dims`` and ``bits``.
    """
    if not isinstance(doc, dict):
        raise InputFormatError(
            f"model document must be a JSON object, got {type(doc).__name__}"
        )
    kind = doc.get("type")
    if kind not in ("lsh", "sh", "mmc"):
        raise InputFormatError(f"unknown model type: {kind!r}")
    try:
        payload = doc["payload"]
        if kind == "lsh":
            model = LshModel(
                hyperplanes=np.asarray(payload["hyperplanes"], dtype=np.float64),
                dims=int(doc["dims"]),
                bits=int(doc["bits"]),
                seed=int(doc["seed"]),
            )
        elif kind == "sh":
            pca = payload["pca"]
            model = ShModel(
                pca=PcaModel(
                    mean=np.asarray(pca["mean"], dtype=np.float64),
                    basis=np.asarray(pca["basis"], dtype=np.float64),
                    explained_variance=np.asarray(
                        pca["explained_variance"], dtype=np.float64
                    ),
                ),
                ranges=np.asarray(payload["ranges"], dtype=np.float64),
                modes=np.asarray(payload["modes"], dtype=np.int64),
                eigenvalues=np.asarray(payload["eigenvalues"], dtype=np.float64),
                dims=int(doc["dims"]),
                bits=int(doc["bits"]),
            )
        else:
            hp = payload["hyperparams"]
            model = MmcModel(
                hyperplanes=np.asarray(payload["hyperplanes"], dtype=np.float64),
                classes=np.asarray(payload["classes"], dtype=np.int64),
                dims=int(doc["dims"]),
                bits=int(doc["bits"]),
                seed=int(doc["seed"]),
                hyperparams=MmcHyperparams(
                    regularization=float(hp["regularization"]),
                    epochs=int(hp["epochs"]),
                    learning_rate=float(hp["learning_rate"]),
                ),
            )
    except KeyError as exc:
        raise InputFormatError(
            f"{kind} model document is missing field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputFormatError(
            f"{kind} model document has a mistyped field: {exc}"
        ) from None
    _check_model_shapes(kind, model)
    return model


def _check_model_shapes(kind, model) -> None:
    # a wrong shape would otherwise surface later as a numpy error in encode
    dims, bits = model.dims, model.bits
    if kind == "lsh":
        expected = {"hyperplanes": (model.hyperplanes, (bits, dims))}
    elif kind == "mmc":
        expected = {"hyperplanes": (model.hyperplanes, (bits, dims + 1))}
        if model.classes.ndim != 1 or model.classes.shape[0] < 2:
            raise InputFormatError(
                f"mmc model field 'classes' must list at least 2 classes, "
                f"got shape {model.classes.shape}"
            )
    else:
        basis = model.pca.basis
        p = basis.shape[-1] if basis.ndim else 0
        expected = {
            "pca.mean": (model.pca.mean, (dims,)),
            "pca.basis": (basis, (dims, p)),
            "pca.explained_variance": (model.pca.explained_variance, (p,)),
            "ranges": (model.ranges, (p, 2)),
            "modes": (model.modes, (bits, 2)),
            "eigenvalues": (model.eigenvalues, (bits,)),
        }
    for name, (array, shape) in expected.items():
        if array.shape != shape:
            raise InputFormatError(
                f"{kind} model field {name!r} has shape {array.shape}, "
                f"expected {shape} for dims {dims} and bits {bits}"
            )
    if kind == "sh" and not ((model.modes[:, 0] >= 0) & (model.modes[:, 0] < p)).all():
        raise InputFormatError(
            f"sh model field 'modes' names a direction outside 0..{p - 1}"
        )


# ---------------------------------------------------------------------------
# subcommands


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iterations=args.max_iterations,
        objective_tolerance=args.tolerance,
    )


def cmd_discover(args) -> int:
    F = read_feature_csv(args.features)
    labels = read_label_csv(args.labels) if args.labels else None
    if labels is not None and labels.shape[0] != F.shape[0]:
        raise InputFormatError(
            f"{args.labels}: {labels.shape[0]} labels for {F.shape[0]} "
            f"feature rows in {args.features}"
        )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LiftClampWarning)
        if args.lift:
            F = lift_features(F)
        for w in caught:
            print(f"note: {w.message}", file=sys.stderr)
    if args.pca_keep is not None:
        F = apply_pca(fit_pca(F, args.pca_keep), F)

    if args.method == "lsh":
        model = train_lsh(F.shape[1], args.bits, args.seed)
    elif args.method == "sh":
        model = train_sh(F, args.bits)
    else:
        model = train_mmc(F, labels, args.bits, seed=args.seed)
    codes = encode(model, F)

    with _staged_outputs(args.model_out, args.codes_out) as (model_out, codes_out):
        write_json(model_out, model_to_dict(model))
        write_attribute_csv(codes_out, codes)
    return EXIT_OK


def cmd_distance(args) -> int:
    S = read_attribute_csv(args.meaningful)
    D = read_attribute_csv(args.discovered)
    config = _solver_config(args)
    if args.mode == "plain":
        result = distance_plain(S, D)
    else:
        result = distance_cvx(S, D, config)
    report = {
        "meta": _meta(args),
        "mode": result.mode,
        "n_instances": int(S.shape[0]),
        "subspace_columns": int(S.shape[1]),
        "discovered_columns": int(D.shape[1]),
        "mean_distance": result.mean_distance,
        "normalized_distance": result.normalized_distance,
        "per_attribute_residuals": result.per_attribute_residuals.tolist(),
        "converged": list(result.converged) if result.converged else None,
    }
    with _staged_outputs(args.out) as (out,):
        write_json(out, report)
    return EXIT_OK


def _parse_method_entries(pairs):
    entries = []
    for spec_pair in pairs or []:
        name, sep, path = spec_pair.partition("=")
        if not sep or not name or not path:
            raise InputFormatError(
                f"--method expects NAME=PATH, got {spec_pair!r}"
            )
        entries.append((name, read_attribute_csv(path)))
    return entries


def cmd_bench_split_validate(args) -> int:
    S = read_attribute_csv(args.meaningful)
    methods = _parse_method_entries(args.method)
    protocol = SplitProtocol(seed=args.seed, left_fraction=args.left_fraction)
    report = run_split_validation(S, methods, protocol, _solver_config(args))
    report = {"meta": _meta(args, seed=args.seed), **report}
    with _staged_outputs(args.out) as (out,):
        write_json(out, report)
    return EXIT_OK


def cmd_bench_noise_curve(args) -> int:
    D = read_attribute_csv(args.discovered)
    S = read_attribute_csv(args.meaningful)
    curve = run_noise_curve(
        D,
        S,
        max_noise=args.max_noise,
        step=args.step,
        trials=args.trials,
        seed=args.seed,
        config=_solver_config(args),
    )
    report = {
        "meta": _meta(args, seed=args.seed),
        "counts": list(curve.counts),
        "distances": list(curve.distances),
        "trials": curve.trials,
        "seed": curve.seed,
    }
    with _staged_outputs(args.out, args.csv_out) as (out, csv_out):
        write_json(out, report)
        write_curve_csv(csv_out, curve)
    return EXIT_OK


def cmd_keywords_generate(args) -> int:
    Z = read_attribute_csv(args.codes)
    names = read_naming_csv(args.names)
    merged, merged_names = merge_duplicates(Z, names)
    report = generate_keywords(merged, merged_names)
    document = {
        "meta": _meta(args),
        "vocabulary": list(report.vocabulary),
        "items": {item: list(words) for item, words in report.items.items()},
    }
    with _staged_outputs(args.out) as (out,):
        write_json(out, document)
    return EXIT_OK


def cmd_keywords_evaluate(args) -> int:
    report = read_keywords_json(args.keywords)
    truth = read_truth_csv(args.truth, args.actions)
    rates = evaluate_hit_rate(report, truth)
    document = {
        "meta": _meta(args),
        "overall": rates.overall,
        "emitted": rates.emitted,
        "suitable": rates.suitable,
        "per_keyword": rates.per_keyword,
        "per_action": rates.per_action,
    }
    with _staged_outputs(args.out) as (out,):
        write_json(out, document)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _checked(convert, accept, expected):
    # argparse type: a bad value is a usage error (exit 2) naming the flag
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_open_unit_float = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_unit_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _add_solver_flags(parser):
    parser.add_argument(
        "--tolerance",
        type=_open_unit_float,
        default=1e-8,
        help="relative objective-change tolerance (default 1e-8)",
    )
    parser.add_argument(
        "--max-iterations",
        type=_positive_int,
        default=10_000,
        help="projected-gradient iteration cap (default 10000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrmeaning",
        description="Measure how meaningful discovered binary attributes are.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="train a coder and emit attribute codes")
    p.add_argument("--method", choices=("lsh", "sh", "mmc"), required=True)
    p.add_argument("--bits", type=_positive_int, required=True)
    p.add_argument("--features", required=True, help="feature CSV (reals, no header)")
    p.add_argument("--labels", help="label CSV, one integer per line (mmc only)")
    p.add_argument(
        "--lift",
        action="store_true",
        help="lift features with the intersection-kernel map first",
    )
    p.add_argument(
        "--pca-keep",
        type=_unit_fraction,
        default=None,
        metavar="FRACTION",
        help="apply PCA keeping ceil(FRACTION * D) directions",
    )
    p.add_argument("--model-out", required=True)
    p.add_argument("--codes-out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("distance", help="reconstruction distance between two sets")
    p.add_argument("--meaningful", required=True, help="labelled attribute CSV")
    p.add_argument("--discovered", required=True, help="discovered attribute CSV")
    p.add_argument("--mode", choices=("plain", "cvx"), required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("bench", help="benchmark protocols")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser(
        "split-validate", help="held-out vs random attribute comparison"
    )
    b.add_argument("--meaningful", required=True)
    b.add_argument(
        "--method",
        action="append",
        metavar="NAME=PATH",
        help="named attribute CSV to score (repeatable)",
    )
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--left-fraction", type=_open_unit_float, default=0.5)
    b.add_argument("--out", required=True)
    _add_solver_flags(b)
    b.set_defaults(func=cmd_bench_split_validate)

    b = bench_sub.add_parser("noise-curve", help="distance vs injected random bits")
    b.add_argument("--discovered", required=True)
    b.add_argument("--meaningful", required=True)
    b.add_argument("--max-noise", type=_positive_int, required=True)
    b.add_argument("--step", type=_positive_int, required=True)
    b.add_argument("--trials", type=_positive_int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True, help="report JSON path")
    b.add_argument("--csv-out", required=True, help="curve CSV path")
    _add_solver_flags(b)
    b.set_defaults(func=cmd_bench_noise_curve)

    p = sub.add_parser("keywords", help="keyword generation and evaluation")
    kw_sub = p.add_subparsers(dest="keywords_command", required=True)

    k = kw_sub.add_parser("generate", help="emit keywords from codes and names")
    k.add_argument("--codes", required=True)
    k.add_argument("--names", required=True)
    k.add_argument("--out", required=True)
    k.set_defaults(func=cmd_keywords_generate)

    k = kw_sub.add_parser("evaluate", help="score keywords against judgments")
    k.add_argument("--keywords", required=True, help="keyword JSON from generate")
    k.add_argument("--truth", required=True)
    k.add_argument("--actions", default=None)
    k.add_argument("--out", required=True)
    k.set_defaults(func=cmd_keywords_evaluate)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)

    if args.command == "discover" and args.method == "mmc" and not args.labels:
        parser.error("--labels is required for --method mmc")

    try:
        return args.func(args)
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
