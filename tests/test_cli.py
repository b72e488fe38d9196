"""Command-line surface: formats, exit codes, and byte determinism."""

import importlib.util
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from attrmeaning import MmcHyperparams, encode, train_lsh, train_mmc, train_sh
import attrmeaning.cli as cli
from attrmeaning.cli import InputFormatError, main, model_from_dict

# ---------------------------------------------------------------------------
# fixtures


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def features_csv(tmp_path):
    rng = np.random.default_rng(0)
    F = rng.uniform(0.05, 1.0, size=(40, 3))
    lines = [",".join(f"{v:.6f}" for v in row) for row in F]
    return _write(tmp_path / "features.csv", "\n".join(lines) + "\n")


@pytest.fixture
def labels_csv(tmp_path):
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=40)
    return _write(tmp_path / "labels.csv", "\n".join(str(v) for v in y) + "\n")


@pytest.fixture
def meaningful_csv(tmp_path):
    rng = np.random.default_rng(2)
    S = np.where(rng.random((40, 5)) < 0.5, 1, -1)
    lines = [",".join(str(v) for v in row) for row in S]
    return _write(tmp_path / "meaningful.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# discover


def test_discover_lsh_writes_model_and_codes(tmp_path, features_csv):
    model_out = tmp_path / "model.json"
    codes_out = tmp_path / "codes.csv"
    rc = main(
        [
            "discover", "--method", "lsh", "--bits", "4",
            "--features", features_csv,
            "--model-out", str(model_out), "--codes-out", str(codes_out),
            "--seed", "7",
        ]
    )
    assert rc == 0
    doc = json.loads(model_out.read_text())
    assert doc["type"] == "lsh"
    assert doc["bits"] == 4
    assert doc["dims"] == 3
    assert doc["seed"] == 7
    rows = codes_out.read_text().strip().splitlines()
    assert len(rows) == 40
    assert set(",".join(rows).split(",")) <= {"1", "-1"}


def test_discover_model_round_trips(tmp_path, features_csv, labels_csv):
    for method, extra in (
        ("lsh", []),
        ("sh", []),
        ("mmc", ["--labels", labels_csv]),
    ):
        model_out = tmp_path / f"{method}.json"
        codes_out = tmp_path / f"{method}.csv"
        rc = main(
            [
                "discover", "--method", method, "--bits", "3",
                "--features", features_csv,
                "--model-out", str(model_out), "--codes-out", str(codes_out),
                "--seed", "1", *extra,
            ]
        )
        assert rc == 0
        model = model_from_dict(json.loads(model_out.read_text()))
        F = np.loadtxt(features_csv, delimiter=",")
        Z = np.loadtxt(codes_out, delimiter=",", dtype=np.int64)
        assert np.array_equal(encode(model, F), Z.astype(np.int8))


def test_discover_mmc_requires_labels(tmp_path, features_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "discover", "--method", "mmc", "--bits", "2",
                "--features", features_csv,
                "--model-out", str(tmp_path / "m.json"),
                "--codes-out", str(tmp_path / "z.csv"),
            ]
        )
    assert exc.value.code == 2
    assert "--labels" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["lsh", "sh"])
def test_discover_labels_only_with_mmc(tmp_path, features_csv, labels_csv, method, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "discover", "--method", method, "--bits", "2",
                "--features", features_csv, "--labels", labels_csv,
                "--model-out", str(tmp_path / "m.json"),
                "--codes-out", str(tmp_path / "z.csv"),
            ]
        )
    assert exc.value.code == 2
    assert "--labels is accepted only with --method mmc" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize(
    "command, first, second",
    [
        (["discover", "--method", "lsh", "--bits", "2"], "--model-out", "--codes-out"),
        (
            ["bench", "noise-curve", "--max-noise", "2", "--step", "1", "--trials", "1"],
            "--out", "--csv-out",
        ),
    ],
)
def test_two_outputs_naming_one_file_exit_two(
    tmp_path, monkeypatch, features_csv, meaningful_csv, capsys, command, first, second
):
    # a relative and an absolute spelling of one file: the second write
    # would silently replace the first
    monkeypatch.chdir(tmp_path)
    inputs = ["--features", features_csv] if command[0] == "discover" else [
        "--discovered", meaningful_csv, "--meaningful", meaningful_csv,
    ]
    before = _left_behind(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + inputs + [first, "out", second, str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{first} and {second} name the same file" in capsys.readouterr().err
    assert _left_behind(tmp_path) == before


def test_discover_label_count_mismatch_names_the_labels_file(
    tmp_path, features_csv, capsys
):
    labels = _write(tmp_path / "short.csv", "0\n1\n" * 10)
    rc = main(
        [
            "discover", "--method", "mmc", "--bits", "2",
            "--features", features_csv, "--labels", labels,
            "--model-out", str(tmp_path / "m.json"),
            "--codes-out", str(tmp_path / "z.csv"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert labels in err and "20 labels" in err and "40 feature rows" in err
    assert not (tmp_path / "m.json").exists()


def test_discover_lift_and_pca_flags(tmp_path, features_csv):
    rc = main(
        [
            "discover", "--method", "lsh", "--bits", "4",
            "--features", features_csv, "--lift", "--pca-keep", "0.6",
            "--model-out", str(tmp_path / "m.json"),
            "--codes-out", str(tmp_path / "z.csv"),
            "--seed", "0",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    # 3 input dims -> 9 lifted -> ceil(0.6 * 9) = 6 kept directions
    assert doc["dims"] == 6


def test_discover_is_byte_deterministic(tmp_path, features_csv):
    args = [
        "discover", "--method", "lsh", "--bits", "4",
        "--features", features_csv,
        "--model-out", str(tmp_path / "m.json"),
        "--codes-out", str(tmp_path / "z.csv"),
        "--seed", "3",
    ]
    assert main(args) == 0
    first = ((tmp_path / "m.json").read_bytes(), (tmp_path / "z.csv").read_bytes())
    assert main(args) == 0
    second = ((tmp_path / "m.json").read_bytes(), (tmp_path / "z.csv").read_bytes())
    assert first == second


# ---------------------------------------------------------------------------
# distance


def test_distance_report_fields(tmp_path, meaningful_csv):
    rng = np.random.default_rng(3)
    D = np.where(rng.random((40, 2)) < 0.5, 1, -1)
    discovered = _write(
        tmp_path / "disc.csv",
        "\n".join(",".join(str(v) for v in row) for row in D) + "\n",
    )
    out = tmp_path / "report.json"
    rc = main(
        [
            "distance", "--meaningful", meaningful_csv,
            "--discovered", discovered, "--mode", "cvx", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "cvx"
    assert doc["n_instances"] == 40
    assert doc["subspace_columns"] == 5
    assert doc["discovered_columns"] == 2
    assert len(doc["per_attribute_residuals"]) == 2
    assert doc["converged"] == [True, True]
    assert doc["meta"]["version"]
    assert "seed" in doc["meta"]
    cvx_mean = doc["mean_distance"]
    # plain mode reports no convergence flags and can only do better
    rc = main(
        [
            "distance", "--meaningful", meaningful_csv,
            "--discovered", discovered, "--mode", "plain", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is None
    assert doc["mean_distance"] <= cvx_mean + 1e-9


def test_distance_row_mismatch_exit_code(tmp_path, meaningful_csv, capsys):
    short = _write(tmp_path / "short.csv", "1,-1\n-1,1\n")
    rc = main(
        [
            "distance", "--meaningful", meaningful_csv, "--discovered", short,
            "--mode", "plain", "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "40" in err and "2" in err


@pytest.mark.parametrize("command", ["distance", "split-validate", "noise-curve"])
def test_row_count_mismatch_names_both_files(tmp_path, meaningful_csv, capsys, command):
    short = _write(tmp_path / "short.csv", "1,-1\n-1,1\n")
    out = ["--out", str(tmp_path / "o.json")]
    argv = {
        "distance": ["distance", "--meaningful", meaningful_csv, "--discovered", short,
                     "--mode", "plain", *out],
        "split-validate": ["bench", "split-validate", "--meaningful", meaningful_csv,
                           "--method", f"m={short}", *out],
        "noise-curve": ["bench", "noise-curve", "--discovered", short,
                        "--meaningful", meaningful_csv, "--max-noise", "2", "--step", "2",
                        "--trials", "1", *out, "--csv-out", str(tmp_path / "o.csv")],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{short}: 2 rows, but {meaningful_csv} has 40" in err
    assert _left_behind(tmp_path, [meaningful_csv, short]) == []


def test_malformed_attribute_token_exit_code(tmp_path, meaningful_csv, capsys):
    bad = _write(tmp_path / "bad.csv", "1,-1\n1,2\n")
    rc = main(
        [
            "distance", "--meaningful", bad, "--discovered", bad,
            "--mode", "plain", "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "field 2" in err
    assert not (tmp_path / "r.json").exists()  # no partial outputs


def test_malformed_feature_token_exit_code(tmp_path, capsys):
    bad = _write(tmp_path / "f.csv", "0.5,abc\n")
    rc = main(
        [
            "discover", "--method", "lsh", "--bits", "2", "--features", bad,
            "--model-out", str(tmp_path / "m.json"),
            "--codes-out", str(tmp_path / "z.csv"),
        ]
    )
    assert rc == 3
    assert "not a number" in capsys.readouterr().err


def test_ragged_rows_exit_code(tmp_path, capsys):
    bad = _write(tmp_path / "r.csv", "1,-1\n1\n")
    rc = main(
        [
            "distance", "--meaningful", bad, "--discovered", bad,
            "--mode", "plain", "--out", str(tmp_path / "o.json"),
        ]
    )
    assert rc == 3
    assert "expected 2" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(
        [
            "distance", "--meaningful", str(tmp_path / "nope.csv"),
            "--discovered", str(tmp_path / "nope.csv"),
            "--mode", "plain", "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 3


# (reader, file text, expected value or error fragment); positions are the
# line numbers an editor shows, blank lines included
_READER_CASES = [
    ("read_attribute_csv", " 1 , -1 \n-1,1\n", [[1, -1], [-1, 1]]),
    *(
        ("read_attribute_csv", f"1,-1\n\n-1,{tok}\n",
         f"line 3, field 2: {tok!r} is not an attribute token")
        for tok in ("+1", "01", "1.0", "", "2")
    ),
    ("read_attribute_csv", "1,-1\n\n1\n", "line 3 has 1 fields, expected 2"),
    ("read_feature_csv", "0.5, 1e3\n-2,3\n", [[0.5, 1000.0], [-2.0, 3.0]]),
    ("read_feature_csv", "1,2\n\n3,nan\n", "line 3, field 2: non-finite value"),
    ("read_feature_csv", "1,2\n\n\ninf,3\n", "line 4, field 1: non-finite value"),
    ("read_feature_csv", "1,2\n\n3,x\n", "line 3, field 2: 'x' is not a number"),
    ("read_label_csv", "1\n\n 2 \n", [1, 2]),
    ("read_label_csv", "1\n\n1,7\n", "line 3 has 2 fields, expected 1"),
    ("read_label_csv", "1\n\nb\n", "line 3: 'b' is not an integer label"),
    ("read_naming_csv", 'bit,positive_name\n0,"red, shiny"\n', {0: "red, shiny"}),
    ("read_naming_csv", "bit,positive_name\n0,red\n1,\n", {0: "red"}),
    ("read_naming_csv", "bit,positive_name\n0,a\n\n1,b\n1,c\n",
     "line 5: bit 1 listed twice"),
    ("read_naming_csv", 'bit,positive_name\n0,"two\nlines"\n0,x\n',
     "line 4: bit 0 listed twice"),
    ("read_naming_csv", "bit,positive_name\n\n0,a,b\n", "line 3 has 3 fields, expected 2"),
    ("read_truth_csv", "item_id,keyword,suitable\n0,a,1\n\n1,b,2\n",
     "line 4: suitable must be 0 or 1, got '2'"),
    ("read_naming_csv", "bit,positive_name\n0,a\n\n-2,b\n",
     "line 4: '-2' is not a bit index"),
    ("read_keywords_json", '{"vocabulary": ["a", true], "items": {"0": ["a"]}}',
     "keyword True is not a JSON string"),
    ("read_keywords_json", '{"vocabulary": "ab", "items": {"0": ["a"]}}',
     "'vocabulary' is not a JSON list"),
    ("read_keywords_json", '{"vocabulary": {"a": 1}, "items": {"0": ["a"]}}',
     "'vocabulary' is not a JSON list"),
    ("read_keywords_json", '{"vocabulary": ["a"], "items": [["a"]]}',
     "'items' is not a JSON object"),
    ("read_keywords_json", '{"vocabulary": ["a", "b"], "items": {"0": "ab"}}',
     "item '0' is not a JSON list"),
    ("read_keywords_json", '{"vocabulary": ["a"], "items": {"0": [["a"]]}}',
     "item '0' emits ['a'], which is not in the vocabulary"),
    ("read_keywords_json", '{"vocabulary": ["a"], "items": {"0": ["a"], "1": ["c"]}}',
     "item '1' emits 'c', which is not in the vocabulary"),
    ("read_keywords_json", '{"vocabulary": ["1", "a"], "items": {"0": ["a", 1]}}',
     "item '0' emits 1, which is not in the vocabulary"),
    ("read_keywords_json", '{"vocabulary": ["a", "b"], "items": {"0": [], "1": ["b", "a", "b"]}}',
     "item '1' emits 'b' twice"),
    ("read_keywords_json", '{"vocabulary": ["b", "a", "c", "a", "b"], "items": {"0": ["a"]}}',
     "keyword 'a' is listed twice in the vocabulary"),
]


@pytest.mark.parametrize("reader, text, expected", _READER_CASES)
def test_readers_accept_and_reject(tmp_path, reader, text, expected):
    path = _write(tmp_path / "in.csv", text)
    if isinstance(expected, str):
        with pytest.raises(InputFormatError, match=re.escape(expected)):
            getattr(cli, reader)(path)
        return
    got = getattr(cli, reader)(path)
    if isinstance(expected, dict):
        assert got.entries == expected
    else:
        np.testing.assert_array_equal(got, np.asarray(expected))


_MATRIX_READERS = ("read_attribute_csv", "read_feature_csv", "read_label_csv")


def _read_outcome(reader, path):
    try:
        M = getattr(cli, reader)(path)
    except InputFormatError as exc:
        return str(exc)
    return M.dtype, M.shape, M.flags.c_contiguous, M.tobytes()


_WHOLE_FILE_CONVERTERS = ("_load_canonical", "_attributes_from_bytes")


def _both_paths(monkeypatch, reader, path):
    whole_file = _read_outcome(reader, path)
    with monkeypatch.context() as m:
        for converter in _WHOLE_FILE_CONVERTERS:
            m.setattr(cli, converter, lambda *args: None)
        by_line = _read_outcome(reader, path)
    return whole_file, by_line


def _canonical_texts(seed):
    # (reader, text): seeded matrices in every layout the line reader allows
    rng = np.random.default_rng(seed)
    for shape in [(1, 1), (1, 6), (7, 1), (9, 4)]:
        Z = np.where(rng.random(shape) < 0.5, 1, -1)
        mantissa = rng.standard_normal(shape)
        F = mantissa * 10.0 ** rng.integers(-30, 30, size=shape)
        rows = {
            "read_attribute_csv": [",".join(map(str, r)) for r in Z.tolist()],
            "read_feature_csv": [",".join(map(repr, r)) for r in F.tolist()],
            "read_label_csv": [str(v) for v in rng.integers(-50, 50, size=shape[0])],
        }
        for reader, lines in rows.items():
            yield reader, "\n".join(lines) + "\n"
            yield reader, "\n".join(lines)
            yield reader, "\n\n".join(lines) + "\n\n"
            yield reader, "\n" + "\n\n\n".join(lines)
    yield "read_feature_csv", "-0,0\n1e5,-2.5E-3\n+4,.5\n5.,1e+2\n"
    yield "read_feature_csv", "5e-324,1.7976931348623157e308\n"
    yield "read_label_csv", "-0\n007\n-12\n"
    yield "read_feature_csv", "1,2\n\n3,1e999\n"
    yield "read_feature_csv", "1,-1e999\n"
    yield "read_label_csv", "99999999999999999999\n"
    yield "read_label_csv", "0\n1\n99999999999999999999\n"
    yield "read_attribute_csv", "1111,1\n"
    yield "read_label_csv", "\n\n"
    yield "read_attribute_csv", ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1])
def test_whole_file_read_matches_line_reader(tmp_path, monkeypatch, seed):
    path = tmp_path / "in.csv"
    for reader, text in _canonical_texts(seed):
        path.write_bytes(text.encode())
        whole_file, by_line = _both_paths(monkeypatch, reader, str(path))
        assert whole_file == by_line, (reader, text)
    path.write_bytes(b"1,2\n\n3,1e999\n")
    with pytest.raises(InputFormatError, match="line 3, field 2: non-finite value"):
        cli.read_feature_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "reader, text",
    [
        ("read_attribute_csv", b"1,-1\n-1,1\n"),
        ("read_feature_csv", b"-0,1.5e-3\n20,+.5\n"),
        ("read_label_csv", b"3\n-12\n"),
    ],
)
def test_every_byte_mutation_reads_alike(tmp_path, monkeypatch, reader, text):
    # every substitution, deletion and insertion of one byte: both paths must
    # give the same array or the same error text
    path = tmp_path / "in.csv"
    mutants = {text[:i] + text[i + 1 :] for i in range(len(text))}
    for i in range(len(text) + 1):
        for byte in range(256):
            mutants.add(text[:i] + bytes([byte]) + text[i + 1 :])
            mutants.add(text[:i] + bytes([byte]) + text[i:])
    whole_file_reads = []

    def counted(convert):
        def call(*args):
            whole_file_reads.append(convert(*args))
            return whole_file_reads[-1]

        return call

    for converter in _WHOLE_FILE_CONVERTERS:
        monkeypatch.setattr(cli, converter, counted(getattr(cli, converter)))
    for mutant in sorted(mutants):
        path.write_bytes(mutant)
        whole_file, by_line = _both_paths(monkeypatch, reader, str(path))
        assert whole_file == by_line, mutant
    # the mutants exercise the whole-file path, not only the line reader
    assert sum(M is not None for M in whole_file_reads) > 5


@pytest.mark.filterwarnings("error")
def test_every_byte_mutation_reads_alike_one_line_per_block(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_ATTRIBUTE_BLOCK", 1)
    test_every_byte_mutation_reads_alike(
        tmp_path, monkeypatch, "read_attribute_csv", b"1,-1\n-1,1\n"
    )


@pytest.mark.parametrize("seed, block", [(0, None), (1, None), (2, 1000)])
def test_attribute_files_take_the_byte_path(tmp_path, monkeypatch, seed, block):
    # as the CLI writes them and as perfbench joins str() cells by "," and
    # "\n": converted by counting bytes, equal to the line reader's array;
    # the 3000x96 matrix spans several blocks
    if block is not None:
        monkeypatch.setattr(cli, "_ATTRIBUTE_BLOCK", block)
    rng = np.random.default_rng(seed)
    path = tmp_path / "codes.csv"
    for shape in [(1, 1), (1, 300), (300, 1), (3000, 96)]:
        Z = np.where(rng.random(shape) < 0.5, 1, -1)
        joined = "".join(",".join(map(str, row)) + "\n" for row in Z.tolist())
        cli.write_attribute_csv(path, Z)
        assert path.read_bytes() == joined.encode()
        for text in (path.read_bytes(), joined.encode()):
            path.write_bytes(text)
            M = cli._attributes_from_bytes(text)
            assert M is not None and M.dtype == np.int8
            np.testing.assert_array_equal(M, Z)
            whole_file, by_line = _both_paths(monkeypatch, "read_attribute_csv", str(path))
            assert whole_file == by_line


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        b"1,-1\n-1,1", b"1,-1\n\n-1,1\n", b"\n1,-1\n", b"1,-1\n-1,1\n\n",
        b"1,-1\r\n-1,1\r\n", b"1, -1\n-1,1\n", b" 1,-1\n", b"+1,-1\n", b"01,-1\n",
        b"11,-1\n", b"1-1,1\n", b"--1,1\n", b",1,-1\n", b"1,-1,\n", b"1,-1\n1\n",
        b"1\n1,-1\n", b"\xef\xbb\xbf1,-1\n", b"-\n", b"\n", b"1,-\n", b"-1-1\n",
        b"1,,1\n", b"1\n-", b"1\n1",
    ],
)
@pytest.mark.parametrize("block", [1, None])
def test_attribute_spellings_read_as_the_line_reader(tmp_path, monkeypatch, text, block):
    if block is not None:
        monkeypatch.setattr(cli, "_ATTRIBUTE_BLOCK", block)  # one line per block
    path = tmp_path / "codes.csv"
    path.write_bytes(text)
    whole_file, by_line = _both_paths(monkeypatch, "read_attribute_csv", str(path))
    # none of these is the canonical spelling, so the line reader decides
    assert cli._attributes_from_bytes(text) is None
    assert whole_file == by_line


@pytest.mark.parametrize("text", ["", "\n\n", "\n"])
def test_blank_matrix_file_warns_nothing(tmp_path, text):
    path = _write(tmp_path / "blank.csv", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for reader in _MATRIX_READERS:
            with pytest.raises(InputFormatError, match="file is empty"):
                getattr(cli, reader)(path)
    assert caught == []


def test_written_and_benchmark_files_take_the_whole_file_path(tmp_path, monkeypatch):
    # the per-field converter is never reached for the canonical files the
    # CLI and the benchmark write, so they cannot fall back to the slow reader
    rng = np.random.default_rng(5)
    Z = np.where(rng.random((30, 7)) < 0.5, 1, -1)
    cli.write_attribute_csv(tmp_path / "codes.csv", Z)
    F = rng.integers(-20, 40, size=(30, 6))
    y = rng.integers(0, 4, size=30)
    # perfbench's write_matrix: str() of int64 cells, "\n" after every row
    for name, M in (("features.csv", F), ("labels.csv", y[:, None])):
        text = "\n".join(",".join(map(str, row)) for row in M.tolist()) + "\n"
        _write(tmp_path / name, text)

    def no_per_field(*args):
        raise AssertionError("the per-field reader was used")

    monkeypatch.setattr(cli, "_put", no_per_field)
    np.testing.assert_array_equal(cli.read_attribute_csv(tmp_path / "codes.csv"), Z)
    np.testing.assert_array_equal(cli.read_feature_csv(tmp_path / "features.csv"), F)
    np.testing.assert_array_equal(cli.read_label_csv(tmp_path / "labels.csv"), y)

    codes = tmp_path / "lsh_codes.csv"
    rc = main(
        [
            "discover", "--method", "lsh", "--bits", "5",
            "--features", str(tmp_path / "features.csv"),
            "--model-out", str(tmp_path / "m.json"), "--codes-out", str(codes),
        ]
    )
    assert rc == 0
    assert cli.read_attribute_csv(codes).shape == (30, 5)


def _truth_outcome(read):
    # the rows in file order, or the error text
    try:
        truth = read()
    except InputFormatError as exc:
        return str(exc)
    actions = None if truth.actions is None else list(truth.actions.items())
    return list(truth.judgments.items()), actions


def _both_table_paths(monkeypatch, read):
    plain = _truth_outcome(read)
    with monkeypatch.context() as m:
        m.setattr(cli, "_plain_columns", lambda *args: None)
        by_line = _truth_outcome(read)
    return plain, by_line


def _table_texts(seed):
    # (header, text, plain?): seeded truth and actions tables in the plain
    # spelling and in other spellings the line reader accepts or rejects;
    # plain? says whether the table is read without the line reader
    rng = np.random.default_rng(seed)
    words = ["carrying bag", "Walking", "café", "a  b", "x", ""]
    truth_rows = [
        (str(rng.integers(0, 50)), words[rng.integers(0, len(words))], str(rng.integers(0, 2)))
        for _ in range(12)
    ]
    truth_rows = list({row[:2]: row for row in truth_rows}.values())
    action_rows = [(str(i), words[rng.integers(0, len(words))]) for i in range(8)]
    for header, rows in (
        ("item_id,keyword,suitable", truth_rows),
        ("item_id,action", action_rows),
    ):
        lines = [header, *(",".join(row) for row in rows)]
        yield header, "\n".join(lines) + "\n", True
        yield header, header + "\n", True
        yield header, "\n".join(lines), False
        yield header, "\r\n".join(lines) + "\r\n", False
        yield header, "\n\n".join(lines) + "\n", False
        yield header, "\n".join(lines[:2] + [f'"{lines[1]}"'] + lines[2:]) + "\n", False
        yield header, "\n".join(lines[:2] + [" " + lines[2]] + lines[3:]) + "\n", False
        yield header, "\n".join(lines[:2] + ["," * header.count(",")] + lines[2:]) + "\n", False
        yield header, "\n".join(lines + [lines[1]]) + "\n", False
        yield header, "\n".join(lines[:2] + [lines[2] + ",x"] + lines[3:]) + "\n", False
        yield header, "\n".join(lines[:1] + [lines[1] + "\u3000"] + lines[2:]) + "\n", False
    yield "item_id,keyword,suitable", "item_id,keyword,suitable\n0,a,2\n", False
    yield "item_id,keyword,suitable", "item_id,keyword,suitable\n0,a,1\n", True
    yield "item_id,keyword,suitable", "", False
    yield "item_id,keyword,suitable", "item_id,keyword\n0,a\n", False


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain_table_read_matches_line_reader(tmp_path, monkeypatch, seed):
    truth = _write(tmp_path / "truth.csv", "item_id,keyword,suitable\n0,a,1\n")
    path = tmp_path / "table.csv"
    read_table, line_reads = cli._read_table, []

    def counted(*args):
        line_reads.append(args)
        return read_table(*args)

    for header, text, plain in _table_texts(seed):
        path.write_bytes(text.encode())
        if header.endswith("suitable"):
            read = lambda: cli.read_truth_csv(path)  # noqa: E731
        else:
            read = lambda: cli.read_truth_csv(truth, path)  # noqa: E731
        fast, by_line = _both_table_paths(monkeypatch, read)
        assert fast == by_line, text
        line_reads.clear()
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_table", counted)
            _truth_outcome(read)
        assert (not line_reads) == plain, text


@pytest.mark.parametrize(
    "header, text",
    [
        ("item_id,keyword,suitable", b"item_id,keyword,suitable\n0,a b,1\n1,a b,0\n"),
        ("item_id,action", b"item_id,action\n0,walk\n1,walk\n"),
    ],
)
def test_every_byte_mutation_reads_tables_alike(tmp_path, monkeypatch, header, text):
    # every substitution, deletion and insertion of one byte: both paths must
    # give the same rows or the same error text (one substitution repeats a
    # key); any lone byte above 0x7f leaves the text undecodable, so two stand
    # for them all
    truth = _write(tmp_path / "truth.csv", "item_id,keyword,suitable\n0,a,1\n")
    path = tmp_path / "table.csv"
    if header.endswith("suitable"):
        read = lambda: cli.read_truth_csv(path)  # noqa: E731
    else:
        read = lambda: cli.read_truth_csv(truth, path)  # noqa: E731
    mutants = {text[:i] + text[i + 1 :] for i in range(len(text))}
    for i in range(len(text) + 1):
        for byte in [*range(128), 0xC3, 0xFF]:
            mutants.add(text[:i] + bytes([byte]) + text[i + 1 :])
            mutants.add(text[:i] + bytes([byte]) + text[i:])
    split, plain_reads = cli._plain_columns, []

    def counted(*args):
        plain_reads.append(split(*args))
        return plain_reads[-1]

    monkeypatch.setattr(cli, "_plain_columns", counted)
    for mutant in sorted(mutants):
        path.write_bytes(mutant)
        fast, by_line = _both_table_paths(monkeypatch, read)
        assert fast == by_line, mutant
    # the mutants exercise the plain path, not only the line reader
    assert sum(columns is not None for columns in plain_reads) > 5


def test_benchmark_shaped_tables_take_the_plain_path(tmp_path, monkeypatch):
    # written as the benchmark writes its tables: the header and one str()
    # row per line joined by "\n", plus a final "\n"; keywords hold spaces
    # and capitals, so the line reader is never needed
    def write_rows(name, header, rows):
        text = "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"
        return _write(tmp_path / name, text)

    rng = np.random.default_rng(4)
    words = ("carrying bag", "Walking", "WEARING HAT", "outdoors", "Crowd")
    judgments = {
        (str(item), word): int(rng.integers(0, 2))
        for item in range(300)
        for word in words
        if rng.random() < 0.4
    }
    actions = {str(item): ("commute", "sport", "meal")[item % 3] for item in range(300)}
    truth = write_rows("truth.csv", "item_id,keyword,suitable",
                       [(item, word, v) for (item, word), v in judgments.items()])
    actions_csv = write_rows("actions.csv", "item_id,action", actions.items())

    def no_line_reader(*args):
        raise AssertionError("the line reader was used")

    monkeypatch.setattr(cli, "_read_table", no_line_reader)
    got = cli.read_truth_csv(truth, actions_csv)
    assert list(got.judgments.items()) == list(judgments.items())
    assert list(got.actions.items()) == list(actions.items())


def test_undecodable_input_names_the_path(tmp_path, meaningful_csv, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("1,-1\ncaf\xe9,1\n".encode("latin-1"))
    out = tmp_path / "r.json"
    rc = main(
        [
            "distance", "--meaningful", meaningful_csv, "--discovered", str(latin1),
            "--mode", "plain", "--out", str(out),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{latin1}: not UTF-8 text" in err and "0xe9" in err
    assert _left_behind(tmp_path, [str(latin1), meaningful_csv]) == []


@pytest.mark.parametrize(
    "reader, text",
    [
        ("read_feature_csv", "0.5,caf\xe9\n"),
        ("read_label_csv", "1\n\xe9\n"),
        ("read_naming_csv", "bit,positive_name\n0,caf\xe9\n"),
        ("read_truth_csv", "item_id,keyword,suitable\n0,caf\xe9,1\n"),
        ("read_keywords_json", '{"vocabulary": ["caf\xe9"], "items": {}}'),
    ],
)
def test_undecodable_files_are_named(tmp_path, reader, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(InputFormatError, match=re.escape(f"{path}: not UTF-8 text")):
        getattr(cli, reader)(path)


def test_label_with_extra_field_exits_three(tmp_path, features_csv, capsys):
    labels = _write(tmp_path / "labels.csv", "0\n1,7\n" * 20)
    rc = main(
        [
            "discover", "--method", "mmc", "--bits", "2",
            "--features", features_csv, "--labels", labels,
            "--model-out", str(tmp_path / "m.json"),
            "--codes-out", str(tmp_path / "z.csv"),
        ]
    )
    assert rc == 3
    assert "line 2 has 2 fields, expected 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_overflowing_label_exits_three(tmp_path, features_csv, capsys):
    labels = _write(tmp_path / "lab.csv", "0\n1\n99999999999999999999\n" + "1\n" * 37)
    rc = main(
        [
            "discover", "--method", "mmc", "--bits", "2",
            "--features", features_csv, "--labels", labels,
            "--model-out", str(tmp_path / "m.json"),
            "--codes-out", str(tmp_path / "z.csv"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{labels}: line 3: '99999999999999999999' is not an integer label" in err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (40, 13)])
def test_attribute_csv_round_trip(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    Z = np.where(rng.random(shape) < 0.5, 1, -1).astype(np.int8)
    path = tmp_path / "z.csv"
    cli.write_attribute_csv(path, Z)
    got = cli.read_attribute_csv(path)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, Z)


def test_attribute_csv_bytes(tmp_path):
    path = tmp_path / "z.csv"
    cli.write_attribute_csv(path, [[1, -1], [-1, 1]])
    assert path.read_bytes() == b"1,-1\n-1,1\n"


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (12, 1), (37, 5), (300, 64)])
def test_attribute_csv_writer_matches_row_join(tmp_path, shape):
    # the vectorised writer gives the bytes of one ",".join per row
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    Z = np.where(rng.random(shape) < 0.5, 1, -1)
    rows = (",".join(row.tolist()) for row in np.where(Z == 1, "1", "-1"))
    path = tmp_path / "z.csv"
    cli.write_attribute_csv(path, Z)
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_benchmark_span_targets_exist():
    # the benchmark's span recorder replaces these functions by name
    spans_path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, func, _layer, _counter in spans.WRAPS:
        module = importlib.import_module(f"attrmeaning.{module_name}")
        assert callable(getattr(module, func, None)), f"attrmeaning.{module_name}.{func}"


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--mode", "sideways"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--max-iterations", "0"), ("--tolerance", "0"), ("--tolerance", "1.5"),
     ("--tolerance", "abc")],
)
def test_solver_flag_values_exit_two(tmp_path, meaningful_csv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "distance", "--meaningful", meaningful_csv,
                "--discovered", meaningful_csv, "--mode", "cvx",
                "--out", str(tmp_path / "r.json"), flag, value,
            ]
        )
    assert exc.value.code == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--bits", "0"), ("--bits", "-3"), ("--bits", "two"), ("--pca-keep", "0"),
     ("--pca-keep", "1.5")],
)
def test_discover_flag_values_exit_two(tmp_path, features_csv, flag, value):
    argv = [
        "discover", "--method", "lsh", "--bits", "2", "--features", features_csv,
        "--model-out", str(tmp_path / "m.json"), "--codes-out", str(tmp_path / "z.csv"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flags",
    [
        ("split-validate", ["--left-fraction", "1.0"]),
        ("noise-curve", ["--max-noise", "2", "--step", "0", "--trials", "1"]),
        ("noise-curve", ["--max-noise", "2", "--step", "2", "--trials", "0"]),
    ],
)
def test_bench_flag_values_exit_two(tmp_path, meaningful_csv, command, flags):
    files = ["--meaningful", meaningful_csv, "--out", str(tmp_path / "o.json")]
    if command == "noise-curve":
        files += ["--discovered", meaningful_csv, "--csv-out", str(tmp_path / "o.csv")]
    with pytest.raises(SystemExit) as exc:
        main(["bench", command, *files, *flags])
    assert exc.value.code == 2


def _left_behind(directory, inputs=()):
    return sorted(p.name for p in directory.iterdir() if str(p) not in inputs)


def test_discover_failed_codes_write_leaves_no_output(tmp_path, features_csv, capsys):
    target = tmp_path / "missing" / "z.csv"
    rc = main(
        [
            "discover", "--method", "lsh", "--bits", "2", "--features", features_csv,
            "--model-out", str(tmp_path / "m.json"), "--codes-out", str(target),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp" not in err
    assert _left_behind(tmp_path, [features_csv]) == []


def test_noise_curve_failed_csv_write_leaves_no_output(tmp_path, meaningful_csv, capsys):
    target = tmp_path / "missing" / "nc.csv"
    rc = main(
        [
            "bench", "noise-curve", "--discovered", meaningful_csv,
            "--meaningful", meaningful_csv, "--max-noise", "2", "--step", "2",
            "--trials", "1", "--out", str(tmp_path / "nc.json"),
            "--csv-out", str(target),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp" not in err
    assert _left_behind(tmp_path, [meaningful_csv]) == []


def test_failure_after_first_output_is_written_leaves_no_output(
    tmp_path, meaningful_csv, capsys, monkeypatch
):
    # the report JSON is already written when the curve CSV write fails
    def disk_full(path, curve):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "write_curve_csv", disk_full)
    target = tmp_path / "nc.csv"
    rc = main(
        [
            "bench", "noise-curve", "--discovered", meaningful_csv,
            "--meaningful", meaningful_csv, "--max-noise", "2", "--step", "2",
            "--trials", "1", "--out", str(tmp_path / "nc.json"),
            "--csv-out", str(target),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp" not in err
    assert _left_behind(tmp_path, [meaningful_csv]) == []


def test_failed_write_keeps_earlier_outputs(tmp_path, meaningful_csv, monkeypatch):
    # no target is replaced before every output is written
    def disk_full(path, curve):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "write_curve_csv", disk_full)
    out, csv_out = tmp_path / "nc.json", tmp_path / "nc.csv"
    out.write_text("earlier report\n")
    csv_out.write_text("earlier curve\n")
    rc = main(
        [
            "bench", "noise-curve", "--discovered", meaningful_csv,
            "--meaningful", meaningful_csv, "--max-noise", "2", "--step", "2",
            "--trials", "1", "--out", str(out), "--csv-out", str(csv_out),
        ]
    )
    assert rc == 3
    assert out.read_text() == "earlier report\n"
    assert csv_out.read_text() == "earlier curve\n"
    assert _left_behind(tmp_path, [meaningful_csv, str(out), str(csv_out)]) == []


def test_commands_leave_writing_to_publish(
    tmp_path, features_csv, labels_csv, meaningful_csv, monkeypatch
):
    # every subcommand returns its outputs; only main's _publish writes them
    names = _write(tmp_path / "names.csv", "bit,positive_name\n0,red\n1,blue\n")
    keywords = _write(
        tmp_path / "kw.json", '{"vocabulary": ["red"], "items": {"0": ["red"]}}'
    )
    truth = _write(tmp_path / "truth.csv", "item_id,keyword,suitable\n0,red,1\n")
    inputs = [features_csv, labels_csv, meaningful_csv, names, keywords, truth]
    out = str(tmp_path / "out.json")
    runs = [
        (["discover", "--method", "mmc", "--bits", "2", "--features", features_csv,
          "--labels", labels_csv, "--model-out", out, "--codes-out", str(tmp_path / "z.csv")],
         [out, str(tmp_path / "z.csv")]),
        (["distance", "--meaningful", meaningful_csv, "--discovered", meaningful_csv,
          "--mode", "cvx", "--out", out], [out]),
        (["bench", "split-validate", "--meaningful", meaningful_csv,
          "--method", f"m={meaningful_csv}", "--out", out], [out]),
        (["bench", "noise-curve", "--discovered", meaningful_csv,
          "--meaningful", meaningful_csv, "--max-noise", "2", "--step", "1",
          "--trials", "1", "--out", out, "--csv-out", str(tmp_path / "c.csv")],
         [out, str(tmp_path / "c.csv")]),
        (["keywords", "generate", "--codes", meaningful_csv, "--names", names,
          "--out", out], [out]),
        (["keywords", "evaluate", "--keywords", keywords, "--truth", truth,
          "--out", out], [out]),
    ]
    recorded = []
    monkeypatch.setattr(cli, "_publish", recorded.append)
    for argv, targets in runs:
        assert main(argv) == 0
        assert [target for target, _writer, _value in recorded.pop()] == targets
        assert recorded == []
        assert _left_behind(tmp_path, inputs) == []


_VALID_MODELS = {
    "lsh": {
        "type": "lsh", "dims": 3, "bits": 2, "seed": 0,
        "payload": {"hyperplanes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
    },
    "sh": {
        "type": "sh", "dims": 2, "bits": 2, "seed": None,
        "payload": {
            "pca": {
                "mean": [0.5, 0.5],
                "basis": [[1.0], [0.0]],
                "explained_variance": [0.1],
            },
            "ranges": [[-0.5, 0.5]],
            "modes": [[0, 1], [0, 2]],
            "eigenvalues": [0.9, 0.6],
        },
    },
    "mmc": {
        "type": "mmc", "dims": 2, "bits": 1, "seed": 0,
        "payload": {
            "hyperplanes": [[1.0, -1.0, 0.5]],
            "classes": [0, 1],
            "hyperparams": {"regularization": 1e-4, "epochs": 1, "learning_rate": 0.1},
        },
    },
}


def _model_doc(kind, field=None, value=None):
    # a copy of the valid document for `kind`, with payload field
    # `field` (dotted path) set to `value`
    doc = json.loads(json.dumps(_VALID_MODELS[kind]))
    if field is not None:
        *parents, leaf = field.split(".")
        target = doc["payload"]
        for name in parents:
            target = target[name]
        target[leaf] = value
    return doc


def test_valid_model_documents_encode():
    for kind in _VALID_MODELS:
        model = model_from_dict(_model_doc(kind))
        assert encode(model, np.full((2, model.dims), 0.3)).shape == (2, model.bits)


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"type": "lsh"}, "missing field 'payload'"),
        ({"type": "lsh", "payload": {}}, "missing field 'hyperplanes'"),
        (
            {"type": "lsh", "payload": {"hyperplanes": [[1.0]]},
             "dims": "three", "bits": 1, "seed": 0},
            "mistyped",
        ),
        ({"type": "mmc", "payload": []}, "mistyped"),
        ({"type": "pq"}, "unknown model type"),
        (["lsh"], "JSON object"),
        # arrays whose shapes do not fit dims and bits
        (_model_doc("lsh", "hyperplanes", [[1.0, 0.0], [0.0, 1.0]]),
         r"'hyperplanes' has shape \(2, 2\), expected \(2, 3\)"),
        (_model_doc("lsh", "hyperplanes", [1.0, 0.0, 0.0]), "'hyperplanes' has shape"),
        (_model_doc("mmc", "hyperplanes", [[1.0, -1.0]]),
         r"expected \(1, 3\)"),
        (_model_doc("mmc", "classes", [0]), "at least 2 classes"),
        (_model_doc("mmc", "classes", [[0, 1]]), "at least 2 classes"),
        (_model_doc("sh", "pca.mean", [0.5, 0.5, 0.5]), r"'pca.mean' has shape \(3,\)"),
        (_model_doc("sh", "pca.basis", [[1.0]]), r"'pca.basis' has shape \(1, 1\)"),
        (_model_doc("sh", "pca.explained_variance", []), "'pca.explained_variance'"),
        (_model_doc("sh", "ranges", [[-0.5, 0.0, 0.5]]), "'ranges' has shape"),
        (_model_doc("sh", "modes", [[0, 1]]), r"'modes' has shape \(1, 2\)"),
        (_model_doc("sh", "eigenvalues", [0.9]), "'eigenvalues' has shape"),
        (_model_doc("sh", "modes", [[0, 1], [3, 1]]), "direction outside"),
        ({"type": ["lsh"]}, "unknown model type"),
        # JSON's NaN and Infinity, and null inside a float array
        (_model_doc("lsh", "hyperplanes", [[1.0, float("nan"), 0.0], [0.0, 1.0, 0.0]]),
         "lsh model field 'hyperplanes' holds a non-finite value"),
        (_model_doc("mmc", "hyperplanes", [[1.0, -1.0, float("inf")]]),
         "mmc model field 'hyperplanes' holds a non-finite value"),
        (_model_doc("sh", "pca.mean", [0.5, float("-inf")]),
         "sh model field 'pca.mean' holds a non-finite value"),
        (_model_doc("sh", "eigenvalues", [0.9, None]),
         "sh model field 'eigenvalues' holds a non-finite value"),
        # integer fields: a bool, a fraction or an integral float is mistyped,
        # not truncated
        ({**_model_doc("mmc"), "dims": 3.9}, "mistyped field: expected integers, got 3.9"),
        ({**_model_doc("mmc"), "bits": True}, "mistyped field: expected integers, got True"),
        ({**_model_doc("lsh"), "seed": 0.5}, "mistyped field: expected integers, got 0.5"),
        ({**_model_doc("lsh"), "dims": 2.0}, "mistyped field: expected integers"),
        ({**_model_doc("lsh"), "dims": "2"}, "mistyped field: expected integers"),
        (_model_doc("mmc", "classes", [0.7, 1.2]), r"expected integers, got \[0.7, 1.2\]"),
        (_model_doc("mmc", "classes", [0, True]), "mistyped field: expected integers"),
        (_model_doc("mmc", "classes", [0, 2**70]), "mistyped field"),
        (_model_doc("sh", "modes", [[0, 1], [1, 1.5]]), "mistyped field: expected integers"),
        (_model_doc("mmc", "hyperparams.epochs", 2.7), "expected integers, got 2.7"),
        (_model_doc("mmc", "hyperparams.epochs", False), "mistyped field: expected integers"),
        (_model_doc("mmc", "hyperparams.epochs", 0), "epochs must be an integer >= 1"),
        # float fields and float arrays take JSON numbers only
        (_model_doc("mmc", "hyperparams.regularization", "1e-4"),
         "mistyped field: expected numbers, got '1e-4'"),
        (_model_doc("mmc", "hyperparams.learning_rate", True),
         "mistyped field: expected numbers, got True"),
        (_model_doc("lsh", "hyperplanes", [[1.0, "1.0", 0.0], [0.0, 1.0, 0.0]]),
         "mistyped field: expected numbers"),
        (_model_doc("mmc", "hyperplanes", [[1.0, -1.0, True]]),
         "mistyped field: expected numbers"),
        (_model_doc("sh", "pca.mean", "0.5"), "mistyped field: expected numbers"),
    ],
)
def test_model_from_dict_rejects_malformed_documents(doc, match):
    with pytest.raises(InputFormatError, match=match):
        model_from_dict(doc)


def _key_tree(value):
    return {k: _key_tree(v) for k, v in value.items()} if isinstance(value, dict) else None


# each coder's payload keys; None marks a leaf
_PAYLOAD_TREES = {
    "lsh": {"hyperplanes": None},
    "sh": {
        "pca": {"mean": None, "basis": None, "explained_variance": None},
        "ranges": None,
        "modes": None,
        "eigenvalues": None,
    },
    "mmc": {
        "hyperplanes": None,
        "classes": None,
        "hyperparams": {"regularization": None, "epochs": None, "learning_rate": None},
    },
}


def _trained_models():
    rng = np.random.default_rng(11)
    F = rng.uniform(0.05, 1.0, size=(30, 4))
    y = rng.integers(0, 3, size=30)
    return [
        train_lsh(4, 3, seed=5),
        train_sh(F, 3),
        train_mmc(F, y, 2, seed=5, hyperparams=MmcHyperparams(epochs=2)),
    ]


def test_model_documents_keep_their_schema_and_round_trip():
    docs = [_model_doc(kind) for kind in _VALID_MODELS]
    docs += [cli.model_to_dict(model) for model in _trained_models()]
    assert sorted(doc["type"] for doc in docs) == ["lsh", "lsh", "mmc", "mmc", "sh", "sh"]
    for doc in docs:
        assert set(doc) == {"type", "dims", "bits", "seed", "payload"}
        assert _key_tree(doc["payload"]) == _PAYLOAD_TREES[doc["type"]]
        assert (doc["seed"] is None) == (doc["type"] == "sh")
        # compared as JSON text, so an int array read back as floats shows
        text = json.dumps(doc, sort_keys=True)
        assert json.dumps(cli.model_to_dict(model_from_dict(doc)), sort_keys=True) == text


# ---------------------------------------------------------------------------
# bench


def test_bench_split_validate(tmp_path, meaningful_csv):
    out = tmp_path / "bench.json"
    rc = main(
        [
            "bench", "split-validate", "--meaningful", meaningful_csv,
            "--seed", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    names = [row["name"] for row in doc["rows"]]
    assert "MeaningfulAttributeSet" in names
    assert "NonMeaningfulAttributeSet" in names
    assert doc["meta"]["seed"] == 4


def test_bench_split_validate_with_methods(tmp_path, meaningful_csv):
    rng = np.random.default_rng(5)
    Z = np.where(rng.random((40, 3)) < 0.5, 1, -1)
    codes = _write(
        tmp_path / "codes.csv",
        "\n".join(",".join(str(v) for v in row) for row in Z) + "\n",
    )
    out = tmp_path / "bench.json"
    rc = main(
        [
            "bench", "split-validate", "--meaningful", meaningful_csv,
            "--method", f"mycoder={codes}", "--seed", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert any(row["name"] == "mycoder" for row in doc["rows"])


def test_bench_method_flag_format(tmp_path, meaningful_csv, capsys):
    rc = main(
        [
            "bench", "split-validate", "--meaningful", meaningful_csv,
            "--method", "justaname", "--out", str(tmp_path / "b.json"),
        ]
    )
    assert rc == 3
    assert "NAME=PATH" in capsys.readouterr().err


def test_bench_noise_curve(tmp_path, meaningful_csv):
    out = tmp_path / "nc.json"
    csv_out = tmp_path / "nc.csv"
    rc = main(
        [
            "bench", "noise-curve", "--discovered", meaningful_csv,
            "--meaningful", meaningful_csv, "--max-noise", "4", "--step", "2",
            "--trials", "2", "--seed", "1",
            "--out", str(out), "--csv-out", str(csv_out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["counts"] == [0, 2, 4]
    assert len(doc["distances"]) == 3
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "count,mean_distance"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def test_bench_noise_curve_bad_grid(tmp_path, meaningful_csv, capsys):
    # --max-noise not a multiple of --step, above it and below it
    for max_noise in ("5", "3", "1"):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "bench", "noise-curve", "--discovered", meaningful_csv,
                    "--meaningful", meaningful_csv, "--max-noise", max_noise,
                    "--step", "2", "--trials", "1", "--seed", "1",
                    "--out", str(tmp_path / "o.json"),
                    "--csv-out", str(tmp_path / "o.csv"),
                ]
            )
        assert exc.value.code == 2
        assert f"--max-noise ({max_noise}) must be a multiple of --step (2)" in (
            capsys.readouterr().err
        )
        assert _left_behind(tmp_path, [meaningful_csv]) == []


# ---------------------------------------------------------------------------
# keywords


@pytest.fixture
def keyword_files(tmp_path):
    codes = _write(
        tmp_path / "codes.csv",
        "1,-1,1\n-1,1,-1\n1,1,-1\n",
    )
    names = _write(
        tmp_path / "names.csv",
        "bit,positive_name\n0,Striped\n1,fuzzy\n2,striped\n",
    )
    return codes, names


def test_keywords_generate(tmp_path, keyword_files):
    codes, names = keyword_files
    out = tmp_path / "kw.json"
    rc = main(["keywords", "generate", "--codes", codes, "--names", names, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["vocabulary"] == ["Striped", "fuzzy"]
    # rows: 0 fires striped (bits 0 or 2), 1 fires fuzzy, 2 fires both
    assert doc["items"]["0"] == ["Striped"]
    assert doc["items"]["1"] == ["fuzzy"]
    assert doc["items"]["2"] == ["Striped", "fuzzy"]


def test_keywords_evaluate(tmp_path, keyword_files):
    codes, names = keyword_files
    kw = tmp_path / "kw.json"
    main(["keywords", "generate", "--codes", codes, "--names", names, "--out", str(kw)])
    truth = _write(
        tmp_path / "truth.csv",
        "item_id,keyword,suitable\n"
        "0,Striped,1\n1,fuzzy,0\n2,Striped,1\n2,fuzzy,1\n",
    )
    out = tmp_path / "eval.json"
    rc = main(
        ["keywords", "evaluate", "--keywords", str(kw), "--truth", truth, "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["emitted"] == 4
    assert doc["suitable"] == 3
    assert doc["overall"] == pytest.approx(3 / 4)
    assert doc["per_action"] is None


def test_keywords_evaluate_with_actions(tmp_path, keyword_files):
    codes, names = keyword_files
    kw = tmp_path / "kw.json"
    main(["keywords", "generate", "--codes", codes, "--names", names, "--out", str(kw)])
    truth = _write(
        tmp_path / "truth.csv",
        "item_id,keyword,suitable\n"
        "0,Striped,1\n1,fuzzy,0\n2,Striped,1\n2,fuzzy,1\n",
    )
    actions = _write(
        tmp_path / "actions.csv",
        "item_id,action\n0,walk\n1,walk\n2,run\n",
    )
    out = tmp_path / "eval.json"
    rc = main(
        [
            "keywords", "evaluate", "--keywords", str(kw), "--truth", truth,
            "--actions", actions, "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["per_action"]["walk"] == pytest.approx(1 / 2)
    assert doc["per_action"]["run"] == 1.0


def test_report_documents_keep_their_keys(tmp_path, keyword_files):
    codes, names = keyword_files
    truth = _write(
        tmp_path / "truth.csv",
        "item_id,keyword,suitable\n0,Striped,1\n1,fuzzy,0\n2,Striped,1\n2,fuzzy,1\n",
    )
    runs = {
        "nc.json": [
            "bench", "noise-curve", "--discovered", codes, "--meaningful", codes,
            "--max-noise", "2", "--step", "1", "--trials", "1",
            "--out", str(tmp_path / "nc.json"), "--csv-out", str(tmp_path / "nc.csv"),
        ],
        "kw.json": [
            "keywords", "generate", "--codes", codes, "--names", names,
            "--out", str(tmp_path / "kw.json"),
        ],
        "eval.json": [
            "keywords", "evaluate", "--keywords", str(tmp_path / "kw.json"),
            "--truth", truth, "--out", str(tmp_path / "eval.json"),
        ],
    }
    expected = {
        "nc.json": {"counts", "distances", "trials", "seed"},
        "kw.json": {"vocabulary", "items"},
        "eval.json": {"overall", "emitted", "suitable", "per_keyword", "per_action"},
    }
    for name, argv in runs.items():
        assert main(argv) == 0
        doc = json.loads((tmp_path / name).read_text())
        assert set(doc) == {"meta", *expected[name]}
        assert set(doc["meta"]) == {"version", "command", "seed"}


def test_keywords_named_bit_beyond_codes_exits_three(tmp_path, keyword_files, capsys):
    codes, fixture_names = keyword_files
    names = _write(tmp_path / "wide.csv", "bit,positive_name\n0,red\n5,blue\n")
    rc = main(
        [
            "keywords", "generate", "--codes", codes, "--names", names,
            "--out", str(tmp_path / "kw.json"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{names}: bit 5 is out of range for the 3 columns of {codes}" in err
    assert _left_behind(tmp_path, [codes, fixture_names, names]) == []


def test_keywords_empty_truth_exits_three(tmp_path, keyword_files, capsys):
    codes, names = keyword_files
    kw = tmp_path / "kw.json"
    main(["keywords", "generate", "--codes", codes, "--names", names, "--out", str(kw)])
    truth = _write(tmp_path / "empty.csv", "item_id,keyword,suitable\n")
    rc = main(
        [
            "keywords", "evaluate", "--keywords", str(kw), "--truth", truth,
            "--out", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 3
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "truth_text, actions_text, flag, message",
    [
        (
            "item_id,keyword,suitable\n1,a,1\n", None, "--truth",
            "missing suitability judgments for: ('1', 'b')",
        ),
        (
            "item_id,keyword,suitable\n1,a,1\n1,b,0\n", "item_id,action\n2,walk\n",
            "--actions", "items missing from the action table: 1",
        ),
    ],
)
def test_keywords_evaluate_names_the_uncovering_table(
    tmp_path, capsys, truth_text, actions_text, flag, message
):
    kw = _write(tmp_path / "kw.json", '{"vocabulary": ["a", "b"], "items": {"1": ["a", "b"]}}')
    paths = {"--truth": _write(tmp_path / "truth.csv", truth_text)}
    if actions_text is not None:
        paths["--actions"] = _write(tmp_path / "actions.csv", actions_text)
    argv = ["keywords", "evaluate", "--keywords", kw, "--out", str(tmp_path / "e.json")]
    rc = main(argv + [arg for item in paths.items() for arg in item])
    assert rc == 3
    assert f"error: {paths[flag]}: {message}" in capsys.readouterr().err
    assert _left_behind(tmp_path, [kw, *paths.values()]) == []


def test_keywords_vocabulary_listed_twice_exits_three(tmp_path, capsys):
    kw = _write(tmp_path / "kw.json", '{"vocabulary": ["a", "a"], "items": {"0": ["a"]}}')
    truth = _write(tmp_path / "truth.csv", "item_id,keyword,suitable\n0,a,1\n")
    rc = main(
        [
            "keywords", "evaluate", "--keywords", kw, "--truth", truth,
            "--out", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{kw}: keyword 'a' is listed twice in the vocabulary" in err
    assert _left_behind(tmp_path, [kw, truth]) == []


def test_naming_csv_header_enforced(tmp_path, keyword_files, capsys):
    codes, _ = keyword_files
    bad = _write(tmp_path / "bad_names.csv", "index,name\n0,striped\n")
    rc = main(
        [
            "keywords", "generate", "--codes", codes, "--names", bad,
            "--out", str(tmp_path / "kw.json"),
        ]
    )
    assert rc == 3
    assert "header" in capsys.readouterr().err


def test_reports_have_no_timestamps(tmp_path, meaningful_csv):
    out = tmp_path / "report.json"
    rc = main(
        [
            "distance", "--meaningful", meaningful_csv,
            "--discovered", meaningful_csv, "--mode", "plain", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    keys = set(doc) | set(doc["meta"])
    assert not keys & {"time", "timestamp", "date", "created", "generated_at"}
    first = out.read_bytes()
    main(
        [
            "distance", "--meaningful", meaningful_csv,
            "--discovered", meaningful_csv, "--mode", "plain", "--out", str(out),
        ]
    )
    assert out.read_bytes() == first
