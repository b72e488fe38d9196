"""Naming, duplicate merging, keyword emission, and hit-rate scoring."""

import re
from itertools import compress

import numpy as np
import pytest

from attrmeaning import (
    KeywordReport,
    NamingTable,
    TruthTable,
    evaluate_hit_rate,
    generate_keywords,
    merge_duplicates,
    nameable_count,
)


def test_naming_table_trims_and_validates():
    names = NamingTable({0: "  striped ", 2: "fuzzy"})
    assert names.entries == {0: "striped", 2: "fuzzy"}
    assert nameable_count(names) == 2
    with pytest.raises(ValueError, match="empty"):
        NamingTable({0: "   "})
    with pytest.raises(ValueError, match=">= 0"):
        NamingTable({-1: "x"})
    with pytest.raises(ValueError, match="out of range"):
        names.check_width(2)


def test_merge_duplicates_is_logical_or():
    Z = np.array(
        [
            [1, -1, -1],
            [-1, -1, 1],
            [-1, -1, -1],
            [1, -1, 1],
        ],
        dtype=np.int8,
    )
    names = NamingTable({0: "Striped", 1: "fuzzy", 2: "striped"})
    merged, merged_names = merge_duplicates(Z, names)
    # bits 0 and 2 share a canonical name: OR them, keep position 0 and the
    # first surface form
    assert merged.shape == (4, 2)
    assert merged[:, 0].tolist() == [1, 1, -1, 1]
    assert merged[:, 1].tolist() == [-1, -1, -1, -1]
    assert merged_names.entries == {0: "Striped", 1: "fuzzy"}


def test_merge_keeps_unnamed_columns():
    Z = np.array([[1, -1, 1], [-1, 1, 1]], dtype=np.int8)
    names = NamingTable({0: "a", 2: "A"})
    merged, merged_names = merge_duplicates(Z, names)
    assert merged.shape == (2, 2)
    assert merged[:, 0].tolist() == [1, 1]  # OR of bits 0 and 2
    assert merged[:, 1].tolist() == [-1, 1]  # untouched unnamed bit
    assert merged_names.entries == {0: "a"}


def test_merge_is_idempotent():
    rng = np.random.default_rng(0)
    Z = (2 * rng.integers(0, 2, size=(20, 5)) - 1).astype(np.int8)
    names = NamingTable({0: "red", 1: "RED", 3: "blue", 4: " red "})
    merged, merged_names = merge_duplicates(Z, names)
    again, again_names = merge_duplicates(merged, merged_names)
    assert np.array_equal(merged, again)
    assert merged_names.entries == again_names.entries


def test_generate_keywords_emission_rules():
    Z = np.array(
        [
            [1, 1, -1, 1],
            [-1, -1, -1, 1],
            [-1, 1, 1, -1],
        ],
        dtype=np.int8,
    )
    # bit 3 unnamed; bits 0 and 2 are duplicates
    names = NamingTable({0: "Striped", 1: "fuzzy", 2: "striped"})
    report = generate_keywords(Z, names)
    assert report.vocabulary == ("Striped", "fuzzy")
    assert report.items["0"] == ("Striped", "fuzzy")  # no duplicate emission
    assert report.items["1"] == ()  # only the unnamed bit fired
    assert report.items["2"] == ("Striped", "fuzzy")  # via duplicate bit 2


def test_generate_keywords_custom_ids():
    Z = np.array([[1], [-1]], dtype=np.int8)
    names = NamingTable({0: "metallic"})
    report = generate_keywords(Z, names, item_ids=["img_a", "img_b"])
    assert report.items == {"img_a": ("metallic",), "img_b": ()}
    with pytest.raises(ValueError, match="unique"):
        generate_keywords(Z, names, item_ids=["x", "x"])
    with pytest.raises(ValueError, match="item ids"):
        generate_keywords(Z, names, item_ids=["x"])


def test_generate_then_merge_agree():
    # emitting from the raw matrix equals emitting from the merged one
    rng = np.random.default_rng(1)
    Z = (2 * rng.integers(0, 2, size=(30, 6)) - 1).astype(np.int8)
    names = NamingTable({0: "cat", 1: "dog", 2: "CAT", 4: "bird"})
    direct = generate_keywords(Z, names)
    merged, merged_names = merge_duplicates(Z, names)
    via_merge = generate_keywords(merged, merged_names)
    assert direct == via_merge


def _keywords_by_row(Z, names, item_ids):
    # the per-row definition: a name fires when any bit carrying it is +1
    groups = {}
    for idx in sorted(names.entries):
        name = names.entries[idx]
        groups.setdefault(name.strip().casefold(), (name, []))[1].append(idx)
    vocabulary = tuple(name for name, _ in groups.values())
    items = {}
    for item, row in zip(item_ids, Z.tolist()):
        fires = [any(row[b] == 1 for b in bits) for _, bits in groups.values()]
        items[item] = tuple(compress(vocabulary, fires))
    return KeywordReport(items=items, vocabulary=vocabulary)


@pytest.mark.parametrize(
    "n, k, named, positive",
    [
        (40, 5, 0, 0.5),  # no vocabulary
        (40, 3, 1, 0.5),  # one keyword
        (300, 16, 12, 0.3),  # 9 keywords: two packed bytes a row
        (300, 16, 12, 0.0),  # all-negative codes
        (1, 16, 12, 0.5),
        (1, 4, 0, 0.5),
        (500, 40, 32, 0.2),
    ],
)
@pytest.mark.parametrize("with_ids", [False, True])
def test_generate_keywords_matches_the_per_row_lists(n, k, named, positive, with_ids):
    rng = np.random.default_rng(n * 100 + k + named)
    Z = np.where(rng.random((n, k)) < positive, 1, -1).astype(np.int8)
    bits = rng.choice(k, size=named, replace=False)
    # every fourth name repeats the one three before it up to case and spacing
    names = NamingTable(
        {int(b): f" W{i - 3} " if i % 4 == 3 else f"w{i}" for i, b in enumerate(bits)}
    )
    item_ids = [f"img{i:04d}" for i in rng.permutation(n)] if with_ids else None
    report = generate_keywords(Z, names, item_ids=item_ids)
    expected = _keywords_by_row(Z, names, item_ids or [str(i) for i in range(n)])
    assert len(report.vocabulary) == named - named // 4
    assert report == expected
    assert list(report.items) == list(expected.items)
    # items with equal lists share one tuple
    first = {}
    for words in report.items.values():
        assert first.setdefault(words, words) is words


def test_hit_rate_hand_computed():
    report = KeywordReport(
        items={"a": ("striped", "fuzzy"), "b": ("fuzzy",), "c": ()},
        vocabulary=("striped", "fuzzy", "metallic"),
    )
    truth = TruthTable(
        judgments={
            ("a", "striped"): 1,
            ("a", "fuzzy"): 0,
            ("b", "fuzzy"): 1,
        }
    )
    rates = evaluate_hit_rate(report, truth)
    assert rates.emitted == 3
    assert rates.suitable == 2
    assert rates.overall == pytest.approx(2 / 3)
    assert rates.per_keyword["striped"] == 1.0
    assert rates.per_keyword["fuzzy"] == pytest.approx(1 / 2)
    assert rates.per_keyword["metallic"] is None  # never emitted
    assert rates.per_action is None  # no action table supplied


def test_hit_rate_consistency_identity():
    # judging every emitted pair suitable forces a rate of exactly 1
    rng = np.random.default_rng(2)
    Z = (2 * rng.integers(0, 2, size=(10, 4)) - 1).astype(np.int8)
    names = NamingTable({0: "a", 1: "b", 2: "c"})
    report = generate_keywords(Z, names)
    truth = TruthTable(
        judgments={
            (item, word): 1
            for item, words in report.items.items()
            for word in words
        }
    )
    assert evaluate_hit_rate(report, truth).overall == 1.0


def test_hit_rate_requires_full_judgments():
    report = KeywordReport(items={"a": ("x",), "b": ("x",)}, vocabulary=("x",))
    truth = TruthTable(judgments={("a", "x"): 1})
    with pytest.raises(ValueError, match=r"\('b', 'x'\)"):
        evaluate_hit_rate(report, truth)


def test_hit_rate_with_no_emissions():
    report = KeywordReport(items={"a": (), "b": ()}, vocabulary=("x",))
    rates = evaluate_hit_rate(report, TruthTable(judgments={}))
    assert rates.overall is None
    assert rates.emitted == 0


def test_hit_rate_per_action():
    report = KeywordReport(
        items={"a": ("x",), "b": ("x",), "c": ("x",), "d": ()}, vocabulary=("x",)
    )
    truth = TruthTable(
        judgments={("a", "x"): 1, ("b", "x"): 0, ("c", "x"): 1},
        actions={"a": "walk", "b": "walk", "c": "run", "d": "sit"},
    )
    rates = evaluate_hit_rate(report, truth)
    # an action whose items emitted nothing has no precision, not 0
    assert rates.per_action == {"walk": pytest.approx(1 / 2), "run": 1.0, "sit": None}
    assert list(rates.per_action) == ["run", "sit", "walk"]
    # every report item must carry an action
    bad = TruthTable(judgments=truth.judgments, actions={"a": "walk"})
    with pytest.raises(ValueError, match="action table"):
        evaluate_hit_rate(report, bad)


def test_truth_table_validation():
    with pytest.raises(ValueError, match="0 or 1|got"):
        TruthTable(judgments={("a", "x"): 2})


@pytest.mark.parametrize(
    "judgments, expected",
    [
        ({("a", "x"): "1"}, {("a", "x"): 1}),
        ({("a", "x"): True, ("b", "x"): False}, {("a", "x"): 1, ("b", "x"): 0}),
        ({("a", "x"): np.int64(1)}, {("a", "x"): 1}),
        ({(4, 5): 0}, {("4", "5"): 0}),
        ({("a", np.str_("x")): 1}, {("a", "x"): 1}),
        ({"ax": 1}, {("a", "x"): 1}),
    ],
)
def test_truth_table_normalises_library_input(judgments, expected):
    truth = TruthTable(judgments=judgments)
    assert truth.judgments == expected
    assert {type(v) for v in truth.judgments.values()} == {int}
    assert {type(part) for key in truth.judgments for part in key} == {str}


def test_truth_table_keeps_clean_judgments_and_its_errors():
    with pytest.raises(ValueError, match=re.escape("for ('a', 'x') must be 0 or 1, got 2")):
        TruthTable(judgments={("a", "x"): 2, ("b", "x"): 1})
    with pytest.raises(ValueError):
        TruthTable(judgments={("a", "x", "y"): 1})
    # clean judgments are kept as given, in a dict of the table's own
    clean = {("a", "x"): 1, ("b", "y"): 0}
    truth = TruthTable(judgments=clean)
    assert list(truth.judgments.items()) == list(clean.items())
    assert truth.judgments is not clean


def test_hit_rate_rejects_a_keyword_listed_twice():
    # each emitted pair counts once, so a report cannot list it twice
    report = KeywordReport(items={"0": ("a", "b", "a")}, vocabulary=("a", "b"))
    truth = TruthTable(judgments={("0", "a"): 1, ("0", "b"): 0})
    with pytest.raises(ValueError, match=re.escape("item '0' lists keyword 'a' twice")):
        evaluate_hit_rate(report, truth)


def test_hit_rate_counts_match_a_pair_loop():
    # seeded reports against the per-pair definition of every precision; "b"
    # is listed twice, "d" is never emitted and "e" is outside the vocabulary
    rng = np.random.default_rng(7)
    vocabulary = ("a", "b", "c", "d", "b")
    items = {
        str(i): tuple(w for w in ("a", "b", "c", "e") if rng.random() < 0.5) for i in range(200)
    }
    judgments = {
        (item, w): int(rng.integers(0, 2)) for item, words in items.items() for w in words
    }
    actions = {item: ("walk", "run", "sit")[int(item) % 3] for item in items}
    rates = evaluate_hit_rate(
        KeywordReport(items=items, vocabulary=vocabulary),
        TruthTable(judgments=judgments, actions=actions),
    )
    pairs = [(item, w) for item, words in items.items() for w in words]

    def precision(selected):
        hits = [judgments[p] for p in selected]
        return sum(hits) / len(hits) if hits else None

    assert (rates.emitted, rates.suitable) == (len(pairs), sum(judgments.values()))
    assert rates.per_keyword == {w: precision([p for p in pairs if p[1] == w]) for w in vocabulary}
    assert rates.per_action == {
        a: precision([p for p in pairs if actions[p[0]] == a]) for a in ("run", "sit", "walk")
    }
