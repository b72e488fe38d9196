"""Seeded inputs, the command list of one pass, and each command's check.

Every workload runs the same nine commands, the paper's whole batch
pipeline, so that every end-to-end and per-layer metric exists on every
workload.  What differs is which command group gets the large inputs; the
other groups run on small inputs and take a few percent of a pass.

The program only ever sees the CSV and JSON files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

import checker
import reference

WORKLOADS = {
    "score": {
        "big": ("distance",),
        "why": "the largest plain and cvx distance calls: the subspace solvers "
        "and attribute-CSV parsing take most of each pass",
    },
    "protocol": {
        "big": ("protocol",),
        "why": "split validation and the noise curve: many small convex solves "
        "on a shared bank, mostly of repeated columns, under bench orchestration",
    },
    "discover-name": {
        "big": ("discover",),
        "why": "coder training, feature-CSV parsing, codes and model writing, and "
        "the keyword pipeline; the subspace solvers are a small share",
    },
}

# Sizes per command group.  "big" is used by the workload that stresses the
# group; every other workload runs the group at "small".
SIZES = {
    "discover": {
        "big": dict(mmc_n=160, mmc_d=24, classes=4, mmc_bits=4, n=3000, d=64, bits=32, named=24),
        "small": dict(mmc_n=40, mmc_d=6, classes=2, mmc_bits=2, n=6000, d=16, bits=8, named=6),
    },
    "distance": {
        "big": dict(n=3000, j=64, k=96),
        "small": dict(n=800, j=24, k=64),
    },
    "protocol": {
        "big": dict(n=1000, j=40, cols=32, noise_cols=32, max_noise=8, step=2, trials=3),
        "small": dict(n=300, j=16, cols=16, noise_cols=16, max_noise=4, step=2, trials=2),
    },
}

WORDS = (
    "running", "walking", "sitting", "carrying bag", "wearing hat", "outdoors",
    "crowd", "bicycle", "jumping", "dancing", "reading", "eating", "talking",
    "smiling", "standing", "driving", "swimming", "climbing",
)
ACTIONS = ("commute", "sport", "leisure", "work", "travel", "shopping", "meal", "party")


@dataclass
class Command:
    """One CLI invocation of a pass and how to judge what it wrote."""

    metric: str  # end-to-end metric stem, e.g. "distance_cvx"
    argv: list
    outputs: list  # paths the command writes
    check: object  # () -> list of problems, empty when the outputs are right


def build(workload, seed, workdir, big=None):
    """Write the inputs for ``workload`` under ``workdir`` and return its commands.

    ``big`` overrides which command groups get large inputs (tests use an
    empty tuple to run everything small).
    """
    big = WORKLOADS[workload]["big"] if big is None else big
    indir = os.path.join(workdir, "in")
    outdir = os.path.join(workdir, "out")
    os.makedirs(indir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    commands = []
    for index, (group, make) in enumerate(
        (("discover", _discover), ("distance", _distance), ("protocol", _protocol))
    ):
        size = SIZES[group]["big" if group in big else "small"]
        rng = np.random.default_rng([seed, index])
        commands += make(rng, seed, size, indir, outdir)
    return commands


# ---------------------------------------------------------------------------
# generators


def planted_bank(rng, n, j, flip_rate=0.05):
    """Labelled bank with hull structure: half latent columns, half noisy blends.

    Each blend is the majority vote of three latent columns.  Equal weights
    keep every blend equally far from its members, so no two columns are
    near duplicates and the bank's conditioning, which sets the solvers'
    iteration counts, varies little from seed to seed.
    """
    j_latent = j // 2
    latent = 2 * rng.integers(0, 2, size=(n, j_latent)) - 1
    blends = np.empty((n, j - j_latent), dtype=np.int64)
    flips = int(round(flip_rate * n))
    for c in range(blends.shape[1]):
        members = rng.choice(j_latent, size=3, replace=False)
        col = np.sign(latent[:, members].sum(axis=1))
        idx = rng.choice(n, size=flips, replace=False)
        col[idx] = -col[idx]
        blends[:, c] = col
    return np.concatenate([latent, blends], axis=1).astype(np.int8)


def near_hull(rng, S, k, flip_rate):
    """k columns that are signs of sparse convex blends of S, with bits flipped."""
    n, j = S.shape
    cols = np.empty((n, k), dtype=np.int8)
    flips = int(round(flip_rate * n))
    for c in range(k):
        support = rng.choice(j, size=min(4, j), replace=False)
        w = rng.dirichlet(np.ones(support.size))
        col = np.where(S[:, support] @ w >= 0.0, 1, -1)
        idx = rng.choice(n, size=flips, replace=False)
        col[idx] = -col[idx]
        cols[:, c] = col
    return cols


def uniform(rng, n, k):
    return (2 * rng.integers(0, 2, size=(n, k)) - 1).astype(np.int8)


def histograms(rng, n, topics, words):
    """Bag-of-words counts: each row mixes a few topic distributions."""
    weights = rng.dirichlet(np.full(topics.shape[0], 0.3), size=n)
    P = weights @ topics
    P /= P.sum(axis=1, keepdims=True)
    return rng.multinomial(words, P).astype(np.float64)


def write_matrix(path, M):
    """Headerless CSV; integers print exactly, so files re-read bit for bit."""
    text = "\n".join(",".join(map(str, row)) for row in M.astype(np.int64).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n")
    return path


# ---------------------------------------------------------------------------
# command groups


def _discover(rng, seed, size, indir, outdir):
    d = size["mmc_d"]
    class_topics = rng.dirichlet(np.full(d, 0.2), size=size["classes"])
    y = np.arange(size["mmc_n"]) % size["classes"]
    rng.shuffle(y)
    mix = 0.7 * class_topics[y] + 0.3 * rng.dirichlet(np.ones(d), size=size["mmc_n"])
    F_lab = rng.multinomial(200, mix / mix.sum(axis=1, keepdims=True)).astype(np.float64)
    F = histograms(rng, size["n"], rng.dirichlet(np.full(size["d"], 0.2), size=8), 100)

    # LSH hyperplanes pass through the origin, so on the raw counts a bit's
    # balance, and with it the keyword pair count, would swing with the
    # seed; LSH reads the corpus centred to integers instead
    F_centred = F - np.round(F.mean(axis=0))

    feats_lab = write_matrix(os.path.join(indir, "labelled.csv"), F_lab)
    labels = write_matrix(os.path.join(indir, "labels.csv"), y[:, None])
    corpus = write_matrix(os.path.join(indir, "corpus.csv"), F)
    centred = write_matrix(os.path.join(indir, "corpus_centred.csv"), F_centred)

    commands = []
    specs = (  # method, features file, its matrix, extra flags, bits, lift and PCA
        ("mmc", feats_lab, F_lab, ["--labels", labels], size["mmc_bits"], True),
        ("sh", corpus, F, [], size["bits"], True),
        ("lsh", centred, F_centred, [], size["bits"], False),
    )
    for method, feats, X, extra, bits, lifted in specs:
        model_out = os.path.join(outdir, f"{method}_model.json")
        codes_out = os.path.join(outdir, f"{method}_codes.csv")
        argv = ["discover", "--method", method, "--bits", str(bits), "--features", feats,
                *extra, "--seed", str(seed), "--model-out", model_out, "--codes-out", codes_out]
        if lifted:
            argv += ["--lift", "--pca-keep", "0.5"]
            X = reference.lift_and_pca(X, 0.5)
        if method == "mmc":
            codes, resp, payload = reference.mmc(X, y, bits, seed)
        elif method == "sh":
            codes, resp, payload = reference.sh(X, bits)
        else:
            codes, resp, payload = reference.lsh(X, bits, seed)
        header = {"type": method, "dims": X.shape[1], "bits": bits,
                  "seed": None if method == "sh" else seed}
        commands.append(Command(
            f"discover_{method}", argv, [model_out, codes_out],
            partial(checker.check_discover, model_out, codes_out, header, payload, codes, resp),
        ))
        if method == "lsh":
            lsh_codes = codes

    # keywords run on the LSH codes; some bits share a name up to case and spacing
    bits = size["bits"]
    named = rng.choice(bits, size=size["named"], replace=False)
    distinct = size["named"] // 4 * 3
    names = {int(b): WORDS[i] for i, b in enumerate(named[:distinct])}
    for b in named[distinct:]:
        word = names[int(named[rng.integers(0, distinct)])]
        names[int(b)] = f" {word.title()} " if rng.random() < 0.5 else word.upper()
    kw_codes = write_matrix(os.path.join(indir, "kw_codes.csv"), lsh_codes)
    names_csv = write_rows(os.path.join(indir, "names.csv"), "bit,positive_name",
                           [(b, names.get(b, "")) for b in range(bits)])
    kw_expected = reference.keyword_report(lsh_codes, names)

    suitability = {w: rng.uniform(0.2, 0.9) for w in kw_expected["vocabulary"]}
    judgments = {}
    for item, words in kw_expected["items"].items():
        for word in words:
            judgments[(item, word)] = int(rng.random() < suitability[word])
        for word in kw_expected["vocabulary"]:
            # a few judged pairs the coder never emitted, as real truth tables have
            if (item, word) not in judgments and rng.random() < 0.02:
                judgments[(item, word)] = int(rng.random() < 0.5)
    actions = {str(i): ACTIONS[a] for i, a in enumerate(rng.integers(0, len(ACTIONS), size=size["n"]))}
    truth = write_rows(os.path.join(indir, "truth.csv"), "item_id,keyword,suitable",
                       [(item, word, v) for (item, word), v in judgments.items()])
    actions_csv = write_rows(os.path.join(indir, "actions.csv"), "item_id,action", actions.items())

    kw_out = os.path.join(outdir, "keywords.json")
    hits_out = os.path.join(outdir, "hits.json")
    commands.append(Command(
        "keywords_generate",
        ["keywords", "generate", "--codes", kw_codes, "--names", names_csv, "--out", kw_out],
        [kw_out], partial(checker.check_document, kw_out, checker.canonical(kw_expected)),
    ))
    commands.append(Command(
        "keywords_evaluate",
        ["keywords", "evaluate", "--keywords", kw_out, "--truth", truth,
         "--actions", actions_csv, "--out", hits_out],
        [hits_out],
        partial(checker.check_document, hits_out,
                checker.canonical(reference.hit_report(kw_expected, judgments, actions))),
    ))
    return commands


def _distance(rng, seed, size, indir, outdir):
    n, j, k = size["n"], size["j"], size["k"]
    S = planted_bank(rng, n, j)
    # near-hull and uniform columns converge in very different iteration counts
    D = np.concatenate([near_hull(rng, S, k // 2, 0.05), uniform(rng, n, k - k // 2)], axis=1)
    bank = write_matrix(os.path.join(indir, "bank.csv"), S)
    disc = write_matrix(os.path.join(indir, "discovered.csv"), D)
    plain = reference.plain_residuals(S, D)
    cvx = reference.cvx_residuals(S, D)
    commands = []
    for mode in ("plain", "cvx"):
        out = os.path.join(outdir, f"distance_{mode}.json")
        commands.append(Command(
            f"distance_{mode}",
            ["distance", "--meaningful", bank, "--discovered", disc, "--mode", mode, "--out", out],
            [out],
            partial(checker.check_distance, out, mode, S.shape, k, plain, cvx if mode == "cvx" else None),
        ))
    return commands


def _protocol(rng, seed, size, indir, outdir):
    n, j, cols = size["n"], size["j"], size["cols"]
    S = planted_bank(rng, n, j)
    features = S @ rng.standard_normal((j, 12)) + 2.0 * rng.standard_normal((n, 12))
    hyperplanes = rng.standard_normal((12, cols))
    methods = [
        ("lsh", np.where(features @ hyperplanes >= 0.0, 1, -1).astype(np.int8)),
        ("random", uniform(rng, n, cols)),
        ("hull", near_hull(rng, S, cols, 0.05)),
    ]
    bank = write_matrix(os.path.join(indir, "protocol_bank.csv"), S)
    paths = {name: write_matrix(os.path.join(indir, f"method_{name}.csv"), Z) for name, Z in methods}

    split_out = os.path.join(outdir, "split.json")
    argv = ["bench", "split-validate", "--meaningful", bank, "--seed", str(seed), "--out", split_out]
    for name, _ in methods:
        argv += ["--method", f"{name}={paths[name]}"]
    commands = [Command(
        "split_validate", argv, [split_out],
        partial(checker.check_split, split_out, reference.split_report(S, methods, seed)),
    )]

    curve_out = os.path.join(outdir, "curve.json")
    curve_csv = os.path.join(outdir, "curve.csv")
    D = near_hull(rng, S, size["noise_cols"], 0.05)
    noisy = write_matrix(os.path.join(indir, "noise_base.csv"), D)
    expected = reference.noise_curve(D, S, size["max_noise"], size["step"], size["trials"], seed)
    commands.append(Command(
        "noise_curve",
        ["bench", "noise-curve", "--discovered", noisy, "--meaningful", bank,
         "--max-noise", str(size["max_noise"]), "--step", str(size["step"]),
         "--trials", str(size["trials"]), "--seed", str(seed),
         "--out", curve_out, "--csv-out", curve_csv],
        [curve_out, curve_csv],
        partial(checker.check_noise_curve, curve_out, curve_csv, expected),
    ))
    return commands
