"""Benchmark protocol tests: splits, anchors, noise curves, hit costs."""

import numpy as np
import pytest

from attrmeaning import (
    SplitProtocol,
    distance_cvx,
    hit_cost_analysis,
    planted_meaningful_set,
    random_attribute_set,
    run_noise_curve,
    run_split_validation,
    split_meaningful,
)
from attrmeaning.bench import MEANINGFUL_ROW, NON_MEANINGFUL_ROW


def test_split_sizes_and_partition():
    S = random_attribute_set(20, 5, seed=0)
    left, right = split_meaningful(S, SplitProtocol(seed=1))
    assert left.shape == (20, 3)  # ceil(0.5 * 5)
    assert right.shape == (20, 2)
    # the two sides partition the original columns
    pool = {tuple(S[:, k]) for k in range(5)}
    got = {tuple(left[:, k]) for k in range(3)} | {tuple(right[:, k]) for k in range(2)}
    assert got == pool


def test_split_is_seeded():
    S = random_attribute_set(20, 6, seed=0)
    l1, r1 = split_meaningful(S, SplitProtocol(seed=7))
    l2, r2 = split_meaningful(S, SplitProtocol(seed=7))
    assert np.array_equal(l1, l2) and np.array_equal(r1, r2)
    l3, _ = split_meaningful(S, SplitProtocol(seed=8))
    assert not np.array_equal(l1, l3)


def test_split_rejects_degenerate_sides():
    S = random_attribute_set(10, 1, seed=0)
    with pytest.raises(ValueError):
        split_meaningful(S, SplitProtocol(seed=0))
    S = random_attribute_set(10, 2, seed=0)
    with pytest.raises(ValueError, match="leaves an empty side for 2 columns"):
        split_meaningful(S, SplitProtocol(seed=0, left_fraction=0.9))
    with pytest.raises(ValueError):
        SplitProtocol(seed=0, left_fraction=0.0)
    with pytest.raises(ValueError):
        SplitProtocol(seed=0, left_fraction=1.0)


def test_split_validation_report_shape():
    S = planted_meaningful_set(80, 10, flip_rate=0.05, seed=0)
    codes = random_attribute_set(80, 4, seed=5)
    report = run_split_validation(S, [("rand4", codes)], SplitProtocol(seed=2))
    names = [row["name"] for row in report["rows"]]
    assert MEANINGFUL_ROW in names
    assert NON_MEANINGFUL_ROW in names
    assert "rand4" in names
    dists = [row["mean_distance"] for row in report["rows"]]
    assert dists == sorted(dists)
    assert report["retained_columns"] + report["held_out_columns"] == 10
    # random anchor is size-matched to the largest method
    anchor = next(r for r in report["rows"] if r["name"] == NON_MEANINGFUL_ROW)
    assert anchor["columns"] == 4


def test_split_validation_anchor_ordering_on_planted_data():
    S = planted_meaningful_set(120, 12, flip_rate=0.03, seed=3)
    report = run_split_validation(S, protocol=SplitProtocol(seed=3))
    by_name = {row["name"]: row["mean_distance"] for row in report["rows"]}
    assert by_name[MEANINGFUL_ROW] < by_name[NON_MEANINGFUL_ROW]


def test_split_validation_rejects_bad_method_lists():
    S = random_attribute_set(30, 4, seed=0)
    Z = random_attribute_set(30, 2, seed=1)
    with pytest.raises(ValueError, match="unique"):
        run_split_validation(S, [("a", Z), ("a", Z)])
    with pytest.raises(ValueError, match="reserved"):
        run_split_validation(S, [(MEANINGFUL_ROW, Z)])
    with pytest.raises(ValueError, match="rows"):
        run_split_validation(S, [("a", random_attribute_set(31, 2, seed=1))])


def test_noise_curve_counts_and_baseline_point():
    S = planted_meaningful_set(60, 8, seed=4)
    D = S[:, :3]
    curve = run_noise_curve(D, S, max_noise=6, step=2, trials=2, seed=9)
    assert curve.counts == (0, 2, 4, 6)
    assert len(curve.distances) == 4
    # the zero-noise point is the plain convex distance, no averaging
    assert curve.distances[0] == pytest.approx(distance_cvx(S, D).mean_distance)
    assert curve.trials == 2 and curve.seed == 9


def test_noise_curve_is_deterministic():
    S = random_attribute_set(40, 6, seed=0)
    D = random_attribute_set(40, 2, seed=1)
    c1 = run_noise_curve(D, S, max_noise=4, step=2, trials=3, seed=5)
    c2 = run_noise_curve(D, S, max_noise=4, step=2, trials=3, seed=5)
    assert c1 == c2


def test_batched_protocols_match_one_solve_per_cell():
    # split validation and the noise curve make one batched solve; each row
    # and each curve point must equal the per-entry / per-(count, trial)
    # solves they replace, with the same draw seeds
    S = planted_meaningful_set(70, 10, seed=6)
    codes = random_attribute_set(70, 5, seed=7)
    report = run_split_validation(S, [("codes", codes)], SplitProtocol(seed=8))
    retained, held_out = split_meaningful(S, SplitProtocol(seed=8))
    entries = {
        MEANINGFUL_ROW: held_out,
        NON_MEANINGFUL_ROW: random_attribute_set(70, 5, seed=8 + 10_007),
        "codes": codes,
    }
    for row in report["rows"]:
        alone = distance_cvx(retained, entries[row["name"]])
        assert row["mean_distance"] == pytest.approx(alone.mean_distance, rel=1e-12)
        assert row["all_converged"] == all(alone.converged)

    D = S[:, :4]
    curve = run_noise_curve(D, S, max_noise=4, step=2, trials=3, seed=11)
    for count, got in zip(curve.counts[1:], curve.distances[1:]):
        per_trial = [
            distance_cvx(
                S,
                np.concatenate(
                    [D, random_attribute_set(70, count, 11 + count * 10_007 + trial)],
                    axis=1,
                ),
            ).mean_distance
            for trial in range(3)
        ]
        assert got == pytest.approx(np.mean(per_trial), rel=1e-12)


def test_noise_curve_validation():
    S = random_attribute_set(20, 4, seed=0)
    D = random_attribute_set(20, 2, seed=1)
    with pytest.raises(ValueError, match="multiple"):
        run_noise_curve(D, S, max_noise=5, step=2, trials=1, seed=0)
    with pytest.raises(ValueError, match="step"):
        run_noise_curve(D, S, max_noise=4, step=0, trials=1, seed=0)
    with pytest.raises(ValueError, match="max_noise"):
        run_noise_curve(D, S, max_noise=1, step=2, trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        run_noise_curve(D, S, max_noise=4, step=2, trials=0, seed=0)


def test_planted_set_shape_and_determinism():
    S1 = planted_meaningful_set(50, 9, flip_rate=0.1, seed=6)
    S2 = planted_meaningful_set(50, 9, flip_rate=0.1, seed=6)
    assert S1.shape == (50, 9)
    assert S1.dtype == np.int8
    assert set(np.unique(S1)) <= {-1, 1}
    assert np.array_equal(S1, S2)
    with pytest.raises(ValueError):
        planted_meaningful_set(50, 1)
    with pytest.raises(ValueError):
        planted_meaningful_set(50, 4, flip_rate=0.9)


def test_planted_derived_columns_sit_near_the_latent_hull():
    S = planted_meaningful_set(150, 10, flip_rate=0.0, seed=7)
    latent, derived = S[:, :5], S[:, 5:]
    hull_dist = distance_cvx(latent, derived).mean_distance
    rand_dist = distance_cvx(
        latent, random_attribute_set(150, 5, seed=8)
    ).mean_distance
    assert hull_dist < rand_dist


def test_hit_cost_analysis_desk_numbers():
    # naming 16 attributes vs labelling 6340 instances
    cost = hit_cost_analysis(16, 6340)
    assert cost.attribute_hits == 16
    assert cost.instance_hits == 6340
    assert cost.ratio == pytest.approx(16 / 6340)
    assert cost.ratio == pytest.approx(0.0025, abs=3e-4)
    assert not cost.costlier_than_labelling
    assert hit_cost_analysis(100, 10).costlier_than_labelling
    with pytest.raises(ValueError):
        hit_cost_analysis(0, 5)
    with pytest.raises(ValueError):
        hit_cost_analysis(5, 0)
