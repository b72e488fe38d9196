"""Keyword generation from named attribute bits and hit-rate evaluation.

A naming table assigns a human-chosen name to the +1 polarity of some bits;
unnamed bits never produce keywords.  Names that coincide after trimming and
case-folding denote the same concept: their bits merge by logical OR (any
detector firing means the concept is present).  Keyword quality is the
fraction of emitted (item, keyword) pairs a human judged suitable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from .attributes import as_attribute_matrix

__all__ = [
    "NamingTable",
    "KeywordReport",
    "TruthTable",
    "HitRateReport",
    "nameable_count",
    "merge_duplicates",
    "generate_keywords",
    "evaluate_hit_rate",
    "UncoveredError",
]


class UncoveredError(ValueError):
    """What a TruthTable's ``table`` ("judgments" or "actions") lacks."""

    def __init__(self, message, table):
        super().__init__(message)
        self.table = table


def _canonical(name: str) -> str:
    return name.strip().casefold()


@dataclass(frozen=True)
class NamingTable:
    """Names for the +1 polarity of attribute bits; absent index = unnamed."""

    entries: dict[int, str]

    def __post_init__(self):
        cleaned = {}
        for idx, name in dict(self.entries).items():
            idx = int(idx)
            if idx < 0:
                raise ValueError(f"bit index must be >= 0, got {idx}")
            trimmed = str(name).strip()
            if not trimmed:
                raise ValueError(f"bit {idx} has an empty name")
            cleaned[idx] = trimmed
        object.__setattr__(self, "entries", cleaned)

    def check_width(self, k: int) -> None:
        """Ensure every named index addresses one of k bits."""
        for idx in self.entries:
            if idx >= k:
                raise ValueError(f"named bit {idx} out of range for {k} attributes")


def nameable_count(names: NamingTable) -> int:
    """Number of bits carrying a name."""
    return len(names.entries)


@dataclass(frozen=True)
class KeywordReport:
    """Per-item keyword lists plus the effective (deduplicated) vocabulary."""

    items: dict[str, tuple[str, ...]]
    vocabulary: tuple[str, ...]


@dataclass(frozen=True)
class TruthTable:
    """Human judgments: (item_id, keyword) -> suitable in {0, 1}.

    An optional item_id -> action-class map enables per-action slicing.
    """

    judgments: dict[tuple[str, str], int]
    actions: dict[str, str] | None = field(default=None)

    def __post_init__(self):
        judgments = dict(self.judgments)
        keys = judgments.keys()
        if (
            set(map(type, keys)) <= {tuple}
            and set(map(len, keys)) <= {2}
            and set(map(type, chain.from_iterable(keys))) <= {str}
            and set(map(type, judgments.values())) <= {int}
            and set(judgments.values()) <= {0, 1}
        ):
            # already pairs of str judged with int 0 or 1: nothing to convert
            object.__setattr__(self, "judgments", judgments)
            return
        cleaned = {}
        for key, suitable in judgments.items():
            item, keyword = key
            suitable = int(suitable)
            if suitable not in (0, 1):
                raise ValueError(
                    f"suitability for ({item!r}, {keyword!r}) must be 0 or 1, "
                    f"got {suitable}"
                )
            cleaned[(str(item), str(keyword))] = suitable
        object.__setattr__(self, "judgments", cleaned)


@dataclass(frozen=True)
class HitRateReport:
    """Precision of emitted keywords against human judgments.

    Keywords in the vocabulary that were never emitted map to None rather
    than 0 (no evidence is not negative evidence); same for actions whose
    items emitted nothing.  per_action is None when no action table was
    supplied at all.
    """

    overall: float | None
    per_keyword: dict[str, float | None]
    per_action: dict[str, float | None] | None
    emitted: int
    suitable: int


def _group_by_name(names: NamingTable):
    # canonical name -> (first bit index, representative surface form,
    # member bit indices), insertion-ordered by first occurrence
    groups: dict[str, tuple[int, str, list[int]]] = {}
    for idx in sorted(names.entries):
        name = names.entries[idx]
        key = _canonical(name)
        if key in groups:
            groups[key][2].append(idx)
        else:
            groups[key] = (idx, name, [idx])
    return groups


def merge_duplicates(Z, names: NamingTable) -> tuple:
    """Collapse bits sharing a (case-folded, trimmed) name into one column.

    The merged column is +1 wherever any source bit is +1 (logical OR of
    presence) and keeps the position and surface form of the first
    occurrence.  Unnamed bits pass through unchanged.  Applying the merge a
    second time is a no-op.
    """
    Z = as_attribute_matrix(Z)
    names.check_width(Z.shape[1])
    groups = _group_by_name(names)
    first_of = {first: (surface, members) for first, surface, members in groups.values()}
    drop = {
        idx
        for first, surface, members in groups.values()
        for idx in members
        if idx != first
    }

    columns = []
    new_entries: dict[int, str] = {}
    for idx in range(Z.shape[1]):
        if idx in drop:
            continue
        if idx in first_of:
            surface, members = first_of[idx]
            merged = Z[:, members].max(axis=1)
            new_entries[len(columns)] = surface
            columns.append(merged)
        else:
            columns.append(Z[:, idx])
    return np.stack(columns, axis=1).astype(np.int8), NamingTable(new_entries)


def generate_keywords(Z, names: NamingTable, item_ids=None) -> KeywordReport:
    """Emit, per item, the names of its positive named bits.

    Bits without a name never emit.  Names are reduced to their canonical
    representative (the surface form of the first bit carrying that name),
    so an item's keyword list never repeats a keyword even if duplicate
    names were not merged beforehand; keywords appear in first-occurrence
    order of their name.  Item ids default to the row index as a string.
    """
    Z = as_attribute_matrix(Z)
    names.check_width(Z.shape[1])
    n = Z.shape[0]
    if item_ids is None:
        item_ids = list(map(str, range(n)))
    else:
        item_ids = [str(i) for i in item_ids]
        if len(item_ids) != n:
            raise ValueError(
                f"got {len(item_ids)} item ids for {n} instances"
            )
        if len(set(item_ids)) != len(item_ids):
            raise ValueError("item ids must be unique")

    groups = _group_by_name(names)
    vocabulary = tuple(surface for _, surface, _ in groups.values())

    if not vocabulary:
        return KeywordReport(items=dict.fromkeys(item_ids, ()), vocabulary=())

    # a concept fires when any bit carrying its name is positive, so the
    # emission is identical whether or not duplicates were merged first
    fires = np.zeros((n, len(vocabulary)), dtype=bool)
    for g, (_, _, members) in enumerate(groups.values()):
        fires[:, g] = (Z[:, members] == 1).any(axis=1)
    # one keyword tuple per distinct row of fires, shared by every item that
    # fires that row; each packed row is one opaque value, which np.unique
    # sorts several times faster than rows compared with axis=0 (the
    # inverse's shape differs across numpy versions)
    packed = np.packbits(fires, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    lists = [tuple(compress(vocabulary, row)) for row in fires[first].tolist()]
    items = dict(zip(item_ids, map(lists.__getitem__, inverse.ravel().tolist())))
    return KeywordReport(items=items, vocabulary=vocabulary)


def _precision_by(keys, slots, hit) -> dict:
    # precision of each key's slice of pairs: slots[p] is the index of pair
    # p's key in keys (len(keys) for a pair of no listed key) and hit[p] says
    # whether it was judged suitable; keys with no pair map to None
    total = np.bincount(slots, minlength=len(keys) + 1).tolist()
    suitable = np.bincount(slots[hit], minlength=len(keys) + 1).tolist()
    return {key: suitable[i] / total[i] if total[i] else None for i, key in enumerate(keys)}


def _slots(keys, values):
    # index in keys of each value (the last index of a repeated key, which
    # _precision_by reports), len(keys) for a value not in keys
    index = {key: i for i, key in enumerate(keys)}
    return np.fromiter(map(index.get, values, repeat(len(keys))), np.intp, len(values))


def first_repeat(values):
    """The first of ``values`` equal to an earlier one; None if all are distinct."""
    seen = set()
    return next((v for v in values if v in seen or seen.add(v)), None)


def evaluate_hit_rate(report: KeywordReport, truth: TruthTable) -> HitRateReport:
    """Score emitted keywords against human suitability judgments.

    Counts keyword instances: each emitted (item, keyword) pair contributes
    once, and an item listing a keyword twice raises ValueError.  Missing
    judgments, or items missing from a given action table, raise
    UncoveredError listing them.  per_keyword and per_action are precisions
    over the matching slices of emitted pairs; a pair whose keyword is not
    in the vocabulary counts toward no keyword.
    """
    lists = report.items.values()
    lengths = list(map(len, lists))
    keywords = list(chain.from_iterable(lists))
    distinct = set(map(tuple, lists))  # checked once per distinct list
    if sum(map(len, map(set, distinct))) != sum(map(len, distinct)):
        item, words = next(
            (item, words) for item, words in report.items.items() if len(set(words)) < len(words)
        )
        raise ValueError(f"item {item!r} lists keyword {first_repeat(words)!r} twice")

    def pairs():
        return zip(chain.from_iterable(map(repeat, report.items, lengths)), keywords)

    hits = list(map(truth.judgments.get, pairs()))
    if None in hits:
        missing = [pair for pair, hit in zip(pairs(), hits) if hit is None]
        listing = ", ".join(f"({item!r}, {kw!r})" for item, kw in missing[:10])
        suffix = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        raise UncoveredError(f"missing suitability judgments for: {listing}{suffix}", "judgments")

    hit = np.array(hits, dtype=bool)
    emitted, suitable = len(hits), int(np.count_nonzero(hit))
    overall = suitable / emitted if emitted else None
    per_keyword = _precision_by(report.vocabulary, _slots(report.vocabulary, keywords), hit)

    per_action: dict[str, float | None] | None = None
    if truth.actions is not None:
        unmapped = sorted(set(report.items) - set(truth.actions))
        if unmapped:
            raise UncoveredError(
                f"items missing from the action table: {', '.join(unmapped[:10])}", "actions"
            )
        classes = sorted(set(truth.actions.values()))
        # every pair of an item falls in its action's slice
        item_slots = _slots(classes, list(map(truth.actions.__getitem__, report.items)))
        per_action = _precision_by(classes, np.repeat(item_slots, lengths), hit)

    return HitRateReport(
        overall=overall,
        per_keyword=per_keyword,
        per_action=per_action,
        emitted=emitted,
        suitable=suitable,
    )
