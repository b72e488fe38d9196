"""tools/compare_outputs.py: one checkout against itself, and the byte check."""

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).parents[1]
_PATH = _ROOT / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_one_checkout_matches_itself_byte_for_byte():
    outputs, differ, codes = compare_outputs.compare(_ROOT, _ROOT, "protocol", 7, big=())
    # the nine commands of a pass write 13 files
    assert len(outputs) == 13
    assert differ == []
    assert codes["parent"] == codes["change"] == [0] * 9


def test_differences_names_changed_and_missing_outputs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, texts in ((parent, (b"a", b"b", b"c")), (change, (b"a", b"B"))):
        (root / "out").mkdir(parents=True)
        for name, text in zip("xyz", texts):
            (root / "out" / name).write_bytes(text)
    outputs = ["out/x", "out/y", "out/z", "out/w"]
    assert compare_outputs.differences(parent, change, outputs) == ["out/y", "out/z", "out/w"]


def test_summary_ends_with_each_checkouts_src_lines(monkeypatch, capsys):
    # no commands run: only the summary is under test
    nothing = ([], [], {"parent": [], "change": []})
    monkeypatch.setattr(compare_outputs, "compare", lambda *args: nothing)
    argv = ["--parent", str(_ROOT), "--change", str(_ROOT), "--seeds", "1"]
    assert compare_outputs.main(argv) == 0
    modules = (_ROOT / "src" / "attrmeaning").glob("*.py")
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"src/ lines: parent {lines}, change {lines}"
