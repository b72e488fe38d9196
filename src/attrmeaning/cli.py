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
  produce byte-identical files.  A model document and the noise-curve and
  keyword reports are derived from the fields of the result dataclasses
  (``LshModel``/``ShModel``/``MmcModel``, ``NoiseCurve``, ``KeywordReport``,
  ``HitRateReport``), so renaming such a field changes the file format.

Exit codes: 0 success, 2 usage, 3 input/format, 4 numeric failure.
All randomness flows from ``--seed``.  Each command returns its outputs
and ``main`` publishes them, so a command's output files appear together or
not at all: each is written next to its target and renamed into place only
after every write has succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
import typing
import warnings
from itertools import chain, repeat

import numpy as np

from . import __version__
from .attributes import as_attribute_matrix
from .bench import SplitProtocol, run_noise_curve, run_split_validation
from .discovery import (
    LiftClampWarning,
    LshModel,
    MmcModel,
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
    UncoveredError,
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


def _load_canonical(data, dtype, charset, width):
    # one np.loadtxt call for a feature or label file spelled only in
    # ``charset``; None unless the result meets every rule of the line reader
    if data.translate(None, charset):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "no data" warning
            M = np.loadtxt(io.BytesIO(data), dtype, comments=None, delimiter=",", ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    valid = M.size and width in (None, M.shape[1]) and np.isfinite(M).all()
    return M if valid else None


_ATTRIBUTE_BLOCK = 1 << 16  # bytes of whole lines that _attributes_from_bytes reads at a time


def _attribute_rows(b, width):
    # the rows of a block of whole lines, or None; see _attributes_from_bytes
    at = np.flatnonzero(b == ord("1"))
    at += 1
    after = b.take(at)  # in range: a block ends in "\n"
    at -= 2
    signs = b.take(at).view(np.int8)  # a "1" first in the block reads its final "\n"
    np.equal(signs, ord("-"), out=signs, casting="unsafe")  # 1 for a negative token
    if len(b) != 2 * after.size + np.count_nonzero(signs) or after.size % width:
        return None
    rows = after.reshape(-1, width)
    if (rows[:, :-1] != ord(",")).any() or (rows[:, -1] != ord("\n")).any():
        return None
    signs *= -2
    signs += 1
    return signs.reshape(-1, width)


def _attributes_from_bytes(data):
    # an attribute file spelled as rows of the tokens 1 and -1, each followed
    # by "," or, last in its row, "\n"; None for any other spelling.  Each
    # "1", the byte after it and a "-" just before it are distinct positions
    # once every after-byte is a separator, so if they add up to a block's
    # length, the block holds nothing else.  Blocks keep the temporaries
    # small: a mask and an index over the whole file would raise the
    # process's heap for good
    if not data.endswith(b"\n"):
        return None
    b = np.frombuffer(data, np.uint8)
    width = data.count(b",", 0, data.index(b"\n")) + 1
    lines = data.count(b"\n")
    if 2 * lines * width > len(data):  # fewer than 2 bytes a cell: not canonical
        return None
    M = np.empty((lines, width), np.int8)
    lo = row = 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _ATTRIBUTE_BLOCK) + 1 or len(data)
        rows = _attribute_rows(b[lo:hi], width)
        if rows is None:
            return None
        M[row : row + len(rows)] = rows
        lo, row = hi, row + len(rows)
    return M


def _read_matrix(path, dtype, bad_token, charset=None, width=None, tokens=None) -> np.ndarray:
    """Headerless comma-separated matrix: one row per non-blank line.

    A file in the canonical spelling is converted whole: attribute files
    (``tokens`` given) written as the CLI writes codes by counting bytes,
    others spelled only in ``charset``'s bytes (as ``str``/``repr`` spell
    numbers) by one ``np.loadtxt`` call.
    Any other file, or one that pass rejects, is read by line: every row
    has ``width`` fields (default: as many as the first row) and is
    converted whole; only a row that fails is scanned field by field, under
    the same rule, to name the first bad field with ``bad_token``
    (formatted with ``line``, ``field`` and ``token``).  Float values must
    be finite.  Both ways give the same array or the same error.
    """
    data = _read_bytes(path)
    M = _attributes_from_bytes(data) if tokens else _load_canonical(data, dtype, charset, width)
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
        except (ValueError, OverflowError):
            for col, tok in enumerate(fields):
                try:
                    _put(M[row, col : col + 1], [tok], tokens)
                except (ValueError, OverflowError):
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


def _commas_per_line(data: bytes) -> np.ndarray:
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    return np.add.reduceat(codes == ord(","), np.r_[0, ends[:-1] + 1])


def _plain_columns(path, header):
    """The data columns of a table in the plain spelling, else None.

    Plain: no quote and no carriage return; the exact header line first;
    every line ends in ``\n`` and has one field per header name (so none
    is blank); no field has surrounding whitespace and no row is all empty.
    ``_read_table`` reads such text to the same rows, so only the text is
    checked here; the caller reads any other file with ``_read_table``.
    """
    data = _read_bytes(path)
    width = len(header)
    if (
        b'"' in data
        or b"\r" in data
        or not data.startswith((",".join(header) + "\n").encode())
        or not data.endswith(b"\n")
        or b"\n" + b"," * (width - 1) + b"\n" in data
        or (_commas_per_line(data) != width - 1).any()
    ):
        return None
    fields = _read_text(path, data).replace("\n", ",").split(",")
    del fields[:width], fields[-1]  # the header, and the empty field after the last line
    if fields != list(map(str.strip, fields)):
        return None
    return [fields[col::width] for col in range(width)]


def read_naming_csv(path) -> NamingTable:
    """``bit,positive_name`` table; empty names mark unnameable bits."""
    entries = {}
    seen = set()
    for ln, (bit_text, name) in _read_table(path, ("bit", "positive_name")):
        try:
            bit = int(bit_text)
        except ValueError:
            bit = -1  # rejected below, with the negative indices
        if bit < 0:
            raise InputFormatError(f"{path}: line {ln}: {bit_text!r} is not a bit index")
        if bit in seen:
            raise InputFormatError(f"{path}: line {ln}: bit {bit} listed twice")
        seen.add(bit)
        if name:
            entries[bit] = name
    return NamingTable(entries)


_SUITABLE = {"0": 0, "1": 1}


def _read_judgments(path) -> dict:
    header = ("item_id", "keyword", "suitable")
    columns = _plain_columns(path, header)
    if columns is not None:
        items, keywords, tokens = columns
        with contextlib.suppress(KeyError):
            judgments = dict(zip(zip(items, keywords), map(_SUITABLE.__getitem__, tokens)))
            if len(judgments) == len(items):
                return judgments
    judgments = {}
    for ln, (item, keyword, tok) in _read_table(path, header):
        if tok not in _SUITABLE:
            raise InputFormatError(
                f"{path}: line {ln}: suitable must be 0 or 1, got {tok!r}"
            )
        key = (item, keyword)
        if key in judgments:
            raise InputFormatError(
                f"{path}: line {ln}: duplicate judgment for ({item!r}, {keyword!r})"
            )
        judgments[key] = _SUITABLE[tok]
    return judgments


def _read_actions(path) -> dict:
    header = ("item_id", "action")
    columns = _plain_columns(path, header)
    if columns is not None:
        actions = dict(zip(*columns))
        if len(actions) == len(columns[0]):
            return actions
    actions = {}
    for ln, (item, action) in _read_table(path, header):
        if item in actions:
            raise InputFormatError(f"{path}: line {ln}: duplicate item {item!r}")
        actions[item] = action
    return actions


def read_truth_csv(path, actions_path=None) -> TruthTable:
    """``item_id,keyword,suitable`` judgments, optionally with an action table.

    A table in the plain spelling (see ``_plain_columns``) is read in one
    pass.  Any other text, or a plain table with a value outside {0, 1} or
    a key listed twice, is read line by line, and errors name the line.
    """
    judgments = _read_judgments(path)
    actions = None if actions_path is None else _read_actions(actions_path)
    return TruthTable(judgments=judgments, actions=actions)


def read_keywords_json(path) -> KeywordReport:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        vocabulary, items = doc["vocabulary"], doc["items"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(
            f"{path}: expected JSON object with 'vocabulary' and 'items'"
        ) from exc
    if not isinstance(vocabulary, list):
        raise InputFormatError(f"{path}: 'vocabulary' is not a JSON list")
    if not isinstance(items, dict):
        raise InputFormatError(f"{path}: 'items' is not a JSON object")
    for word in vocabulary:
        if not isinstance(word, str):
            raise InputFormatError(f"{path}: keyword {word!r} is not a JSON string")
    # every item a list of distinct vocabulary words, checked in one pass (a
    # word that is not a string is not in the vocabulary, or does not hash);
    # only a failing report is scanned item by item to name the offender
    vocab_set = set(vocabulary)
    if len(vocab_set) < len(vocabulary):
        word = next(w for n, w in enumerate(vocabulary) if w in vocabulary[:n])
        raise InputFormatError(f"{path}: keyword {word!r} is listed twice in the vocabulary")
    lists = items.values()
    try:
        valid = (
            set(map(type, lists)) <= {list}
            and vocab_set.issuperset(chain.from_iterable(lists))
            and sum(map(len, map(set, lists))) == sum(map(len, lists))
        )
    except TypeError:
        valid = False
    if not valid:
        for item, words in items.items():
            if not isinstance(words, list):
                raise InputFormatError(f"{path}: item {item!r} is not a JSON list")
            for n, word in enumerate(words):
                if not isinstance(word, str) or word not in vocab_set:
                    raise InputFormatError(
                        f"{path}: item {item!r} emits {word!r}, which is not in "
                        f"the vocabulary"
                    )
                if word in words[:n]:
                    raise InputFormatError(f"{path}: item {item!r} emits {word!r} twice")
    items = dict(zip(items, map(tuple, lists)))
    return KeywordReport(items=items, vocabulary=tuple(vocabulary))


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


def _publish(outputs) -> None:
    """Write each ``(target, writer, value)`` as ``writer(temp, value)`` to a
    temp file next to its target; rename the temps once every write succeeded.

    On any failure every temp file and every target already published by
    this call is removed, so a failing command leaves no output behind.
    OS errors are re-raised naming the target path.
    """
    temps, published = [], []
    try:
        for target, _, _ in outputs:
            temps.append(_sibling_temp(target))
        for tmp, (_, writer, value) in zip(temps, outputs):
            writer(tmp, value)
        for tmp, (target, _, _) in zip(temps, outputs):
            os.replace(tmp, target)
            published.append(target)
    except BaseException as exc:
        for path in temps + published:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if isinstance(exc, OSError) and exc.filename in temps:
            target = outputs[temps.index(exc.filename)][0]
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise


_CELL_BYTES = np.frombuffer(b"-1, 1,", np.uint8).reshape(2, 3)


def write_attribute_csv(path, Z) -> None:
    Z = as_attribute_matrix(Z)
    # each cell as the 3 bytes "-1," or " 1,", with a row's last comma made
    # its newline; dropping the padding spaces leaves the tokens 1 and -1
    cells = _CELL_BYTES.take((Z == 1).view(np.uint8), axis=0)
    cells[:, -1, 2] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(cells.tobytes().replace(b" ", b""))


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
# model and report documents: the fields of the result dataclasses


def _plain(value):
    """A dataclass as a dict of its fields (recursively), an array as a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value.tolist() if isinstance(value, np.ndarray) else value


_MODEL_TYPES = {"lsh": LshModel, "sh": ShModel, "mmc": MmcModel}
_HEADER_FIELDS = ("dims", "bits", "seed")
_INT_ARRAYS = frozenset(("modes", "classes"))  # every other array field is float64


def model_to_dict(model) -> dict:
    """Serialize a coder model as ``{type, dims, bits, seed, payload}``.

    ``payload`` holds the model's other fields; SH has no seed (``None``).
    """
    kind = next((k for k, cls in _MODEL_TYPES.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"unknown coder model type: {type(model).__name__}")
    payload = _plain(model)
    header = {name: payload.pop(name, None) for name in _HEADER_FIELDS}
    return {"type": kind, **header, "payload": payload}


def _numbers(value, kind):
    # a JSON number or nested list of them, checked before int()/float()/numpy
    # would convert a bool, a string or (for ints) a fraction such as 3.9;
    # null becomes NaN in a float array, which the shape check reports
    accepted = int if kind is int else (int, float, type(None))
    for v in np.asarray(value, dtype=object).flat:
        if isinstance(v, bool) or not isinstance(v, accepted):
            noun = "integers" if kind is int else "numbers"
            raise TypeError(f"expected {noun}, got {value!r}")
    return value


def _build(cls, values):
    # fields in declaration order, so the first absent one is reported
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        hint, value = hints[f.name], values[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = _build(hint, value)
        elif hint is np.ndarray:
            kind, dtype = (int, np.int64) if f.name in _INT_ARRAYS else (float, np.float64)
            kwargs[f.name] = np.asarray(_numbers(value, kind), dtype=dtype)
        else:
            kwargs[f.name] = hint(_numbers(value, hint))
    return cls(**kwargs)


def model_from_dict(doc: dict):
    """Rebuild a coder model from its JSON document.

    Raises InputFormatError when the document is not an object, names an
    unknown model type, lacks or mistypes a field, or holds an array whose
    shape does not fit its ``dims`` and ``bits`` or a non-finite value.
    """
    if not isinstance(doc, dict):
        raise InputFormatError(
            f"model document must be a JSON object, got {type(doc).__name__}"
        )
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _MODEL_TYPES:
        raise InputFormatError(f"unknown model type: {kind!r}")
    try:
        header = {name: doc[name] for name in _HEADER_FIELDS if name in doc}
        model = _build(_MODEL_TYPES[kind], {**doc["payload"], **header})
    except KeyError as exc:
        raise InputFormatError(
            f"{kind} model document is missing field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
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
        if not np.isfinite(array).all():
            raise InputFormatError(f"{kind} model field {name!r} holds a non-finite value")
    if kind == "sh" and not ((model.modes[:, 0] >= 0) & (model.modes[:, 0] < p)).all():
        raise InputFormatError(
            f"sh model field 'modes' names a direction outside 0..{p - 1}"
        )


# ---------------------------------------------------------------------------
# subcommands: each returns its outputs as (target, writer, value) triples


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iterations=args.max_iterations,
        objective_tolerance=args.tolerance,
    )


def _check_rows(first, A, second, B) -> None:
    # two matrix files that describe the same instances, one per row
    if A.shape[0] != B.shape[0]:
        raise InputFormatError(f"{second}: {B.shape[0]} rows, but {first} has {A.shape[0]}")


def cmd_discover(args) -> list:
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
    return [
        (args.model_out, write_json, model_to_dict(model)),
        (args.codes_out, write_attribute_csv, encode(model, F)),
    ]


def cmd_distance(args) -> list:
    S = read_attribute_csv(args.meaningful)
    D = read_attribute_csv(args.discovered)
    _check_rows(args.meaningful, S, args.discovered, D)
    if args.mode == "plain":
        result = distance_plain(S, D)
    else:
        result = distance_cvx(S, D, _solver_config(args))
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
    return [(args.out, write_json, report)]


def _parse_method_entries(args, S):
    # --method NAME=PATH entries, each read and checked against --meaningful
    entries = []
    for spec_pair in args.method or []:
        name, sep, path = spec_pair.partition("=")
        if not sep or not name or not path:
            raise InputFormatError(
                f"--method expects NAME=PATH, got {spec_pair!r}"
            )
        Z = read_attribute_csv(path)
        _check_rows(args.meaningful, S, path, Z)
        entries.append((name, Z))
    return entries


def cmd_bench_split_validate(args) -> list:
    S = read_attribute_csv(args.meaningful)
    methods = _parse_method_entries(args, S)
    protocol = SplitProtocol(seed=args.seed, left_fraction=args.left_fraction)
    report = run_split_validation(S, methods, protocol, _solver_config(args))
    return [(args.out, write_json, {"meta": _meta(args, seed=args.seed), **report})]


def cmd_bench_noise_curve(args) -> list:
    D = read_attribute_csv(args.discovered)
    S = read_attribute_csv(args.meaningful)
    _check_rows(args.meaningful, S, args.discovered, D)
    curve = run_noise_curve(
        D,
        S,
        max_noise=args.max_noise,
        step=args.step,
        trials=args.trials,
        seed=args.seed,
        config=_solver_config(args),
    )
    return [
        (args.out, write_json, {"meta": _meta(args, seed=args.seed), **_plain(curve)}),
        (args.csv_out, write_curve_csv, curve),
    ]


def cmd_keywords_generate(args) -> list:
    Z = read_attribute_csv(args.codes)
    names = read_naming_csv(args.names)
    bit = max(names.entries, default=-1)
    if bit >= Z.shape[1]:
        raise InputFormatError(
            f"{args.names}: bit {bit} is out of range for the "
            f"{Z.shape[1]} columns of {args.codes}"
        )
    merged, merged_names = merge_duplicates(Z, names)
    report = generate_keywords(merged, merged_names)
    return [(args.out, write_json, {"meta": _meta(args), **_plain(report)})]


def cmd_keywords_evaluate(args) -> list:
    report = read_keywords_json(args.keywords)
    truth = read_truth_csv(args.truth, args.actions)
    try:
        rates = evaluate_hit_rate(report, truth)
    except UncoveredError as exc:
        path = args.actions if exc.table == "actions" else args.truth
        raise InputFormatError(f"{path}: {exc}") from None
    return [(args.out, write_json, {"meta": _meta(args), **_plain(rates)})]


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
    if args.command == "discover" and args.method != "mmc" and args.labels:
        parser.error(f"--labels is accepted only with --method mmc, not {args.method}")
    if args.func is cmd_bench_noise_curve and args.max_noise % args.step:
        parser.error(
            f"--max-noise ({args.max_noise}) must be a multiple of --step ({args.step})"
        )
    # a command's output flags (--out, --model-out, ...) must name distinct files
    outputs = [(f"--{k.replace('_', '-')}", v) for k, v in vars(args).items() if k.endswith("out")]
    for n, (flag, path) in enumerate(outputs):
        for other, earlier in outputs[:n]:
            if os.path.realpath(path) == os.path.realpath(earlier):
                parser.error(f"{other} and {flag} name the same file: {path}")

    try:
        _publish(args.func(args))
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
