"""Desk-scale benchmark protocol for attribute meaningfulness.

The protocol scores discovery methods against two anchors computed from the
same labelled subspace:

* MeaningfulAttributeSet: held-out labelled attributes (they should land
  close to the hull of the retained ones);
* NonMeaningfulAttributeSet: size-matched uniform random attributes (they
  should land far away).

A method whose codes score between the anchors captures some labelled
structure.  The noise curve stress-tests the distance itself: injecting
random attribute columns into a discovered set must not lower its mean
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attributes import as_attribute_matrix, binarize, random_attribute_set
from .subspace import SolverConfig, distance_cvx

__all__ = [
    "SplitProtocol",
    "split_meaningful",
    "run_split_validation",
    "NoiseCurve",
    "run_noise_curve",
    "planted_meaningful_set",
    "HitCost",
    "hit_cost_analysis",
    "MEANINGFUL_ROW",
    "NON_MEANINGFUL_ROW",
]

MEANINGFUL_ROW = "MeaningfulAttributeSet"
NON_MEANINGFUL_ROW = "NonMeaningfulAttributeSet"

# offset stream for derived seeds so protocol randomness never reuses the
# exact generator state of the split itself
_SEED_STRIDE = 10_007


@dataclass(frozen=True)
class SplitProtocol:
    """Seeded split of a labelled subspace into retained / held-out columns."""

    seed: int
    left_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.left_fraction < 1.0):
            raise ValueError(
                f"left_fraction must be in (0, 1), got {self.left_fraction}"
            )


def split_meaningful(S, protocol: SplitProtocol):
    """Split the columns of S into (retained, held_out) by a seeded shuffle.

    The retained side receives ceil(left_fraction * J) columns of a seeded
    random permutation.  Both sides must end up non-empty, which bounds J to
    at least 2 and rejects fractions that would round a side away.
    """
    S = as_attribute_matrix(S)
    j = S.shape[1]
    if j < 2:
        raise ValueError(f"need at least 2 columns to split, got {j}")
    left = math.ceil(protocol.left_fraction * j)
    if left < 1 or left >= j:
        raise ValueError(
            f"left_fraction {protocol.left_fraction} leaves an empty side "
            f"for {j} columns"
        )
    perm = np.random.default_rng(protocol.seed).permutation(j)
    return S[:, perm[:left]], S[:, perm[left:]]


def run_split_validation(
    S,
    methods=(),
    protocol: SplitProtocol | None = None,
    config: SolverConfig | None = None,
) -> dict:
    """Score held-out labelled attributes, random ones, and method codes.

    Parameters
    ----------
    S : labelled {-1, +1} subspace, at least 2 columns.
    methods : sequence of (name, attribute_matrix) pairs; may be empty.
    protocol : split settings (defaults to seed 0, half/half).

    Returns
    -------
    dict with the split bookkeeping and a ``rows`` list sorted ascending by
    mean distance.  The two anchor rows are always present; the random
    anchor is size-matched to the largest method (or to the held-out set
    when no methods are given) and drawn from seed + 10007.
    """
    protocol = protocol or SplitProtocol(seed=0)
    S = as_attribute_matrix(S)
    methods = [(str(name), as_attribute_matrix(Z)) for name, Z in methods]
    names = [name for name, _ in methods]
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique")
    for reserved in (MEANINGFUL_ROW, NON_MEANINGFUL_ROW):
        if reserved in names:
            raise ValueError(f"method name {reserved!r} is reserved")
    for name, Z in methods:
        if Z.shape[0] != S.shape[0]:
            raise ValueError(
                f"method {name!r} has {Z.shape[0]} rows, subspace has {S.shape[0]}"
            )

    retained, held_out = split_meaningful(S, protocol)
    n = S.shape[0]
    rand_cols = max((Z.shape[1] for _, Z in methods), default=held_out.shape[1])
    random_set = random_attribute_set(n, rand_cols, protocol.seed + _SEED_STRIDE)

    entries = [(MEANINGFUL_ROW, held_out), (NON_MEANINGFUL_ROW, random_set)]
    entries.extend(methods)
    # one solve for every entry: they all share the retained columns
    result = distance_cvx(
        retained, np.concatenate([Z for _, Z in entries], axis=1), config
    )
    bounds = np.cumsum([0] + [Z.shape[1] for _, Z in entries])
    rows = []
    for (name, Z), a, b in zip(entries, bounds[:-1], bounds[1:]):
        mean = float(result.per_attribute_residuals[a:b].mean())
        rows.append(
            {
                "name": name,
                "columns": int(Z.shape[1]),
                "mean_distance": mean,
                "normalized_distance": mean / n,
                "all_converged": all(result.converged[a:b]),
            }
        )
    rows.sort(key=lambda row: (row["mean_distance"], row["name"]))
    return {
        "seed": protocol.seed,
        "left_fraction": protocol.left_fraction,
        "n_instances": int(n),
        "retained_columns": int(retained.shape[1]),
        "held_out_columns": int(held_out.shape[1]),
        "rows": rows,
    }


@dataclass(frozen=True)
class NoiseCurve:
    """Mean distance (over trials) as random columns are mixed into a set."""

    counts: tuple[int, ...]
    distances: tuple[float, ...]
    trials: int
    seed: int


def run_noise_curve(
    D,
    S,
    max_noise: int,
    step: int,
    trials: int,
    seed: int,
    config: SolverConfig | None = None,
) -> NoiseCurve:
    """Measure distance degradation as random attributes are injected.

    For each count t in 0, step, 2*step, ..., max_noise, appends t uniform
    random columns to D and records the mean convex distance to S, averaged
    over `trials` independent draws.  The t = 0 point involves no
    randomness and is computed once.  Draw seeds are derived as
    seed + t * 10007 + trial so every (count, trial) cell is reproducible
    in isolation.
    """
    S, D = as_attribute_matrix(S), as_attribute_matrix(D)
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if max_noise < step:
        raise ValueError(f"max_noise must be >= step, got {max_noise} < {step}")
    if max_noise % step != 0:
        raise ValueError(
            f"max_noise ({max_noise}) must be a multiple of step ({step})"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    counts = list(range(0, max_noise + 1, step))
    # D and every (count, trial) draw go into one solve; each column's
    # residual does not depend on the others in the batch, so every cell
    # averages the same residuals as solving [D, noise] on its own
    draws = [
        random_attribute_set(D.shape[0], t, seed + t * _SEED_STRIDE + trial)
        for t in counts[1:]
        for trial in range(trials)
    ]
    result = distance_cvx(S, np.concatenate([D, *draws], axis=1), config)
    base, noise = np.split(result.per_attribute_residuals, [D.shape[1]])
    means = [float(base.mean())]
    start = 0
    for t in counts[1:]:
        vals = []
        for _ in range(trials):
            vals.append(float(np.concatenate([base, noise[start : start + t]]).mean()))
            start += t
        means.append(float(np.mean(vals)))
    return NoiseCurve(
        counts=tuple(counts),
        distances=tuple(means),
        trials=trials,
        seed=seed,
    )


def planted_meaningful_set(
    n: int, j: int, flip_rate: float = 0.05, seed: int = 0
) -> np.ndarray:
    """Generate a subspace with built-in hull structure for protocol checks.

    The first j // 2 columns are uniform random latent attributes; each
    remaining column is the sign of a random convex combination of the
    latent ones with round(flip_rate * n) bits flipped.  Splitting such a
    matrix therefore yields held-out columns that genuinely sit near the
    hull of the retained ones, up to the planted flip noise.
    """
    if n < 1:
        raise ValueError(f"instance count must be >= 1, got {n}")
    if j < 2:
        raise ValueError(f"column count must be >= 2, got {j}")
    if not (0.0 <= flip_rate <= 0.5):
        raise ValueError(f"flip_rate must be in [0, 0.5], got {flip_rate}")
    rng = np.random.default_rng(seed)
    j_latent = j // 2
    latent = (2 * rng.integers(0, 2, size=(n, j_latent)) - 1).astype(np.int8)
    flips = int(round(flip_rate * n))
    derived = []
    for _ in range(j - j_latent):
        weights = rng.dirichlet(np.ones(j_latent))
        col = binarize((latent.astype(np.float64) @ weights)[:, None])[:, 0]
        if flips:
            idx = rng.choice(n, size=flips, replace=False)
            col[idx] = -col[idx]
        derived.append(col)
    return np.concatenate([latent, np.stack(derived, axis=1)], axis=1)


@dataclass(frozen=True)
class HitCost:
    """Annotation cost of naming attributes vs labelling every instance.

    Naming a subspace costs one judgment per attribute (J); exhaustive
    per-instance labelling costs one per instance (N).
    """

    attribute_hits: int
    instance_hits: int
    ratio: float
    costlier_than_labelling: bool


def hit_cost_analysis(j: int, n: int) -> HitCost:
    """Compare annotation costs: J per-attribute judgments vs N per-instance."""
    if j < 1:
        raise ValueError(f"attribute count must be >= 1, got {j}")
    if n < 1:
        raise ValueError(f"instance count must be >= 1, got {n}")
    return HitCost(
        attribute_hits=j,
        instance_hits=n,
        ratio=j / n,
        costlier_than_labelling=j > n,
    )
