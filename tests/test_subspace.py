"""Solver tests anchored to closed forms and a brute-force grid oracle."""

import math

import numpy as np
import pytest

from attrmeaning import (
    SolverConfig,
    brute_force_cvx_oracle,
    distance_cvx,
    distance_plain,
    project_simplex,
    random_attribute_set,
    rank_methods,
    reconstruct_cvx,
    reconstruct_ls,
)
from attrmeaning.subspace import _simplex_grid

# ---------------------------------------------------------------------------
# unconstrained least squares


def test_ls_recovers_member_column_exactly():
    # z is a column of A: residual 0, coefficient 1 on that column
    A = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
    r, resid = reconstruct_ls(A, A[:, 0])
    assert resid == pytest.approx(0.0, abs=1e-20)
    assert r == pytest.approx([1.0, 0.0], abs=1e-12)


def test_ls_orthogonal_target_keeps_full_norm():
    # columns of A are orthogonal to z, so the best fit is r = 0 and the
    # residual is ||z||^2 = N
    A = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
    z = np.array([1, -1, -1, 1], dtype=np.int8)
    assert A.T.astype(float) @ z.astype(float) == pytest.approx([0.0, 0.0])
    r, resid = reconstruct_ls(A, z)
    assert r == pytest.approx([0.0, 0.0], abs=1e-12)
    assert resid == pytest.approx(4.0)


def test_ls_min_norm_on_duplicate_columns():
    # rank-deficient A = [c, c]: lstsq must return the minimum-norm solution,
    # which splits the weight evenly
    c = np.array([1, -1, 1, 1], dtype=np.int8)
    A = np.column_stack([c, c])
    r, resid = reconstruct_ls(A, c)
    assert resid == pytest.approx(0.0, abs=1e-20)
    assert r == pytest.approx([0.5, 0.5], abs=1e-12)


def test_ls_one_column_closed_form():
    # J = 1: r = <a, z> / <a, a>, residual N (1 - cos^2 angle)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = 2 * rng.integers(0, 2, size=12) - 1
        z = 2 * rng.integers(0, 2, size=12) - 1
        r, resid = reconstruct_ls(a.reshape(-1, 1), z)
        r_expected = float(a @ z) / float(a @ a)
        assert r[0] == pytest.approx(r_expected, abs=1e-12)
        assert resid == pytest.approx(float(np.sum((a * r_expected - z) ** 2)), abs=1e-9)


def test_distance_plain_aggregates_columns():
    S = random_attribute_set(30, 4, seed=0)
    D = random_attribute_set(30, 3, seed=1)
    result = distance_plain(S, D)
    per = [reconstruct_ls(S, D[:, k])[1] for k in range(3)]
    assert result.per_attribute_residuals == pytest.approx(per)
    assert result.mean_distance == pytest.approx(np.mean(per))
    assert result.normalized_distance == pytest.approx(np.mean(per) / 30)
    assert result.mode == "plain"
    assert result.converged is None
    assert result.coefficients.shape == (4, 3)


def test_distance_row_mismatch_names_both_counts():
    S = random_attribute_set(10, 3, seed=0)
    D = random_attribute_set(12, 3, seed=0)
    with pytest.raises(ValueError, match="10.*12"):
        distance_plain(S, D)
    with pytest.raises(ValueError, match="10.*12"):
        distance_cvx(S, D)


# +-1 banks with the dependencies a labelled set can hold: a duplicated, a
# negated, a one-row-different and a product column, plus N < J and J = 1
def _dependent_banks():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(3, 40))
        S = random_attribute_set(n, int(rng.integers(1, 10)), seed=1000 + trial)
        a, b = S[:, 0], S[:, -1]
        near = a.copy()
        near[rng.integers(n)] *= -1
        extra = ([], [a], [-a], [near], [a * b])[trial % 5]
        yield np.column_stack([S, *extra]).astype(np.int8)
    for n, j in ((3, 12), (5, 9), (2, 2), (30, 1), (1, 1)):
        yield random_attribute_set(n, j, seed=n * j)


def test_plain_matches_lstsq_on_dependent_banks():
    eps = np.finfo(np.float64).eps
    for S in _dependent_banks():
        n = S.shape[0]
        D = np.concatenate([S, random_attribute_set(n, 4, seed=n)], axis=1)
        result = distance_plain(S, D)
        Sf, Df = S.astype(np.float64), D.astype(np.float64)
        R = np.linalg.lstsq(Sf, Df, rcond=max(S.shape) * eps)[0]
        resid = np.sum((Sf @ R - Df) ** 2, axis=0)
        assert np.all(
            np.abs(result.per_attribute_residuals - resid) <= 1e-9 * np.maximum(resid, 1.0)
        )
        # the same minimum-norm coefficients
        assert np.abs(result.coefficients - R).max() <= 1e-9 * max(np.abs(R).max(), 1.0)


# a 20 x 20 +-1 bank (one row per integer, bit 19 first, 1 for +1) from a
# seeded local search that shrank its smallest singular value: the smallest
# eigenvalue of its Gram matrix is about 2e-10 of the largest, below
# sqrt(eps) but far above the rank threshold
_NO_GAP_BANK = (
    0xE07FF, 0x67E50, 0x07677, 0xEBC36, 0xCE931, 0x4CABA, 0xABBB2, 0xF109C, 0xC51E1, 0xF9735,
    0x0D99B, 0x6C5E6, 0x8D842, 0xFD17E, 0x569BB, 0x01BE4, 0x01CBD, 0xB857F, 0xE962F, 0xBCD3F,
)


def test_plain_falls_back_to_lstsq_without_a_spectral_gap(monkeypatch):
    S = np.array([[1 if row >> (19 - c) & 1 else -1 for c in range(20)] for row in _NO_GAP_BANK],
                 dtype=np.int8)
    eps = np.finfo(np.float64).eps
    w = np.linalg.eigvalsh(S.T.astype(np.float64) @ S)
    assert 20 * eps * w[-1] < w[0] < np.sqrt(eps) * w[-1]
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    D = random_attribute_set(20, 6, seed=5)
    result = distance_plain(S, D)
    assert len(calls) == 1
    R = lstsq(S.astype(np.float64), D.astype(np.float64), rcond=20 * eps)[0]
    assert np.array_equal(result.coefficients, R)
    # a bank with a clear gap stays on the eigendecomposition
    distance_plain(random_attribute_set(20, 6, seed=6), D)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# simplex projection


def test_project_simplex_hand_cases():
    assert project_simplex([1.2, -0.3]) == pytest.approx([1.0, 0.0])
    assert project_simplex([0.5, 0.5, 0.5]) == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    # already feasible: projection is the identity
    assert project_simplex([0.2, 0.3, 0.5]) == pytest.approx([0.2, 0.3, 0.5])
    assert project_simplex([1.0]) == pytest.approx([1.0])
    assert project_simplex([-5.0]) == pytest.approx([1.0])


def test_project_simplex_feasibility_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        j = int(rng.integers(1, 30))
        v = rng.normal(scale=3.0, size=j)
        p = project_simplex(v)
        assert (p >= 0.0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_project_simplex_optimality_random():
    # the projection is the closest feasible point: no random feasible point
    # may beat it
    rng = np.random.default_rng(1)
    for _ in range(50):
        j = int(rng.integers(2, 20))
        v = rng.normal(scale=2.0, size=j)
        p = project_simplex(v)
        d_p = np.sum((v - p) ** 2)
        for _ in range(20):
            q = rng.dirichlet(np.ones(j))
            assert d_p <= np.sum((v - q) ** 2) + 1e-12


def test_project_simplex_input_validation():
    with pytest.raises(ValueError):
        project_simplex(np.ones((2, 2)))
    with pytest.raises(ValueError):
        project_simplex([])
    with pytest.raises(ValueError):
        project_simplex([np.nan, 0.0])


# ---------------------------------------------------------------------------
# constrained solve


def test_cvx_member_column_reaches_zero():
    S = random_attribute_set(40, 5, seed=2)
    fit = reconstruct_cvx(S, S[:, 2])
    assert fit.converged
    assert fit.residual <= 1e-6
    assert fit.coefficients[2] == pytest.approx(1.0, abs=1e-3)


def test_cvx_coefficients_always_feasible():
    rng = np.random.default_rng(3)
    for trial in range(20):
        S = random_attribute_set(25, int(rng.integers(2, 8)), seed=100 + trial)
        z = random_attribute_set(25, 1, seed=200 + trial)[:, 0]
        fit = reconstruct_cvx(S, z)
        assert (fit.coefficients >= 0.0).all()
        assert fit.coefficients.sum() == pytest.approx(1.0, abs=1e-9)
        assert fit.iterations >= 1


def test_cvx_agrees_with_grid_oracle():
    rng = np.random.default_rng(4)
    for trial in range(15):
        n = int(rng.integers(4, 13))
        j = int(rng.integers(1, 4))
        S = random_attribute_set(n, j, seed=300 + trial)
        z = random_attribute_set(n, 1, seed=400 + trial)[:, 0]
        fit = reconstruct_cvx(S, z)
        oracle = brute_force_cvx_oracle(S, z, grid_step=0.01)
        assert abs(fit.residual - oracle) <= 1e-3


def test_cvx_one_column_closed_form():
    # J = 1 forces r = (1,): residual is exactly ||a - z||^2
    a = np.array([1, 1, -1, 1, -1], dtype=np.int8)
    z = np.array([1, -1, -1, 1, 1], dtype=np.int8)
    fit = reconstruct_cvx(a.reshape(-1, 1), z)
    assert fit.coefficients == pytest.approx([1.0])
    assert fit.residual == pytest.approx(float(np.sum((a - z) ** 2)), abs=1e-9)


def test_plain_lower_bounds_cvx():
    # dropping the simplex constraint can only improve the objective
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(5, 30))
        j = int(rng.integers(1, 8))
        S = random_attribute_set(n, j, seed=500 + trial)
        D = random_attribute_set(n, int(rng.integers(1, 4)), seed=600 + trial)
        plain = distance_plain(S, D).mean_distance
        cvx = distance_cvx(S, D).mean_distance
        assert plain <= cvx + 1e-9


def test_appending_a_subspace_column_never_hurts():
    # growing the labelled set enlarges both the span and the hull
    rng = np.random.default_rng(6)
    for trial in range(10):
        S = random_attribute_set(30, 4, seed=700 + trial)
        extra = random_attribute_set(30, 1, seed=800 + trial)
        S_big = np.concatenate([S, extra], axis=1)
        D = random_attribute_set(30, 2, seed=900 + trial)
        assert (
            distance_plain(S_big, D).mean_distance
            <= distance_plain(S, D).mean_distance + 1e-9
        )
        assert (
            distance_cvx(S_big, D).mean_distance
            <= distance_cvx(S, D).mean_distance + 1e-6
        )


def test_non_convergence_is_reported_not_raised():
    S = random_attribute_set(50, 6, seed=8)
    z = random_attribute_set(50, 1, seed=9)[:, 0]
    fit = reconstruct_cvx(S, z, SolverConfig(max_iterations=1))
    assert not fit.converged
    assert fit.iterations == 1
    assert (fit.coefficients >= 0.0).all()
    assert fit.coefficients.sum() == pytest.approx(1.0, abs=1e-9)


def _certificate_grid():
    # exact members (f = 0), near-hull and uniform columns (_mixed_columns)
    # on banks with J = 1, duplicated columns and J above the oracle's limit
    for trial, (n, j) in enumerate([(12, 1), (20, 2), (30, 3), (25, 3), (40, 4), (60, 6),
                                    (150, 12), (80, 8)]):
        S = random_attribute_set(n, j, seed=40 + trial)
        if trial in (3, 6):
            S = np.column_stack([S, S[:, 0]])
        yield S, _mixed_columns(S, 8, seed=50 + trial)


def _fw_gap(S, r, d):
    # Frank-Wolfe gap and objective of coefficients r for one column d
    Sf = S.astype(np.float64)
    e = Sf @ r - d
    g = Sf.T @ e
    return 2.0 * (g @ r - g.min()), float(e @ e)


def test_converged_certifies_the_optimum():
    tol = SolverConfig().objective_tolerance
    for S, D in _certificate_grid():
        result = distance_cvx(S, D)
        assert all(result.converged)
        if S.shape[1] <= 4:
            optimum = [brute_force_cvx_oracle(S, D[:, col], grid_step=0.02)
                       for col in range(D.shape[1])]
        else:
            tight = distance_cvx(S, D, SolverConfig(objective_tolerance=1e-13, max_iterations=100_000))
            assert all(tight.converged)
            optimum = tight.per_attribute_residuals
        for col, f in enumerate(result.per_attribute_residuals):
            assert f - optimum[col] <= tol * max(f, 1.0)
            gap, _ = _fw_gap(S, result.coefficients[:, col], D[:, col])
            assert gap <= tol * max(f, 1.0) + 1e-9


def test_iteration_cap_keeps_coefficients_feasible_and_flags_honest():
    tol = SolverConfig().objective_tolerance
    for S, D in _certificate_grid():
        result = distance_cvx(S, D, SolverConfig(max_iterations=1))
        assert result.iterations == (1,) * D.shape[1]
        assert (result.coefficients >= 0.0).all()
        assert result.coefficients.sum(axis=0) == pytest.approx(1.0, abs=1e-9)
        for col, flag in enumerate(result.converged):
            gap, f = _fw_gap(S, result.coefficients[:, col], D[:, col])
            # the flag says which side of the bound the gap is on
            assert (gap <= tol * max(f, 1.0) + 1e-9) if flag else (gap > tol * max(f, 1.0) - 1e-9)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(objective_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(objective_tolerance=1.5)


# ---------------------------------------------------------------------------
# batched cores


def _mixed_columns(S, k, seed):
    # exact members, near-hull blends with flipped bits, and uniform columns
    rng = np.random.default_rng(seed)
    n, j = S.shape
    cols = [S[:, 0], S[:, j - 1]]
    for _ in range(k // 2):
        col = np.where(S @ rng.dirichlet(np.ones(j)) >= 0.0, 1, -1).astype(np.int8)
        flip = rng.choice(n, size=n // 10, replace=False)
        col[flip] = -col[flip]
        cols.append(col)
    uniform = random_attribute_set(n, k - len(cols), seed=seed + 1)
    return np.concatenate([np.stack(cols, axis=1), uniform], axis=1)


@pytest.mark.parametrize("n, j, k", [(60, 6, 10), (150, 12, 16)])
def test_batched_columns_match_single_column_solves(n, j, k):
    S = random_attribute_set(n, j, seed=n + j)
    D = _mixed_columns(S, k, seed=k)
    plain, cvx = distance_plain(S, D), distance_cvx(S, D)
    assert cvx.iterations is not None and len(cvx.iterations) == k
    for col in range(k):
        r, resid = reconstruct_ls(S, D[:, col])
        assert resid == pytest.approx(plain.per_attribute_residuals[col], rel=1e-12, abs=1e-12)
        assert r == pytest.approx(plain.coefficients[:, col], abs=1e-10)
        fit = reconstruct_cvx(S, D[:, col])
        assert fit.residual == pytest.approx(cvx.per_attribute_residuals[col], rel=1e-12, abs=1e-12)
        assert fit.coefficients == pytest.approx(cvx.coefficients[:, col], abs=1e-10)
        assert fit.converged == cvx.converged[col]
        assert fit.iterations == cvx.iterations[col]


def test_batch_does_not_change_a_columns_solve():
    # the property split validation and the noise curve rely on: a column's
    # residual is the same whatever other columns share its batch
    S = random_attribute_set(80, 8, seed=31)
    D = _mixed_columns(S, 12, seed=32)
    extra = random_attribute_set(80, 20, seed=33)
    batch = np.concatenate([extra[:, :7], D, extra[:, 7:]], axis=1)
    cols = slice(7, 7 + D.shape[1])
    for solve in (distance_plain, distance_cvx):
        alone, mixed = solve(S, D), solve(S, batch)
        assert mixed.per_attribute_residuals[cols] == pytest.approx(
            alone.per_attribute_residuals, rel=1e-12, abs=1e-12
        )
        if solve is distance_cvx:
            assert mixed.converged[cols] == alone.converged
            assert mixed.iterations[cols] == alone.iterations


# ---------------------------------------------------------------------------
# grid oracle


def test_oracle_one_column_is_exact():
    a = np.array([1, -1, 1], dtype=np.int8)
    z = np.array([1, 1, 1], dtype=np.int8)
    # the only grid point is r = (1,)
    assert brute_force_cvx_oracle(a.reshape(-1, 1), z) == pytest.approx(4.0)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 5, 10, 20])
def test_simplex_grid_lists_every_composition_once(j, m):
    grid = _simplex_grid(j, m)
    assert grid.dtype == np.float64
    assert grid.shape == (math.comb(m + j - 1, j - 1), j)
    parts = np.rint(grid * m).astype(np.int64)
    # every entry is a nonnegative multiple of 1/m, every row sums to 1
    assert (parts >= 0).all()
    np.testing.assert_array_equal(grid, parts / m)
    np.testing.assert_allclose(grid.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (parts.sum(axis=1) == m).all()
    assert len(set(map(tuple, parts.tolist()))) == grid.shape[0]


def test_oracle_guards():
    S = random_attribute_set(6, 5, seed=0)
    z = random_attribute_set(6, 1, seed=1)[:, 0]
    with pytest.raises(ValueError, match="J <= 4"):
        brute_force_cvx_oracle(S, z)
    S4 = S[:, :4]
    with pytest.raises(ValueError, match="grid_step"):
        brute_force_cvx_oracle(S4, z, grid_step=0.5)
    with pytest.raises(ValueError, match="grid_step"):
        brute_force_cvx_oracle(S4, z, grid_step=0.0)
    with pytest.raises(ValueError, match="mismatch"):
        brute_force_cvx_oracle(S4, z[:-1])


def test_oracle_never_beats_an_exact_member():
    S = random_attribute_set(10, 3, seed=11)
    # member column: true optimum is 0 and the grid contains the vertex
    assert brute_force_cvx_oracle(S, S[:, 1]) == pytest.approx(0.0, abs=1e-20)


# ---------------------------------------------------------------------------
# ranking


def test_rank_methods_orders_by_distance_then_name():
    S = random_attribute_set(40, 6, seed=12)
    near = S[:, :3]  # exact members: distance 0
    far = random_attribute_set(40, 3, seed=13)
    ranked = rank_methods([("far", far), ("near", near)], S)
    assert [name for name, _ in ranked] == ["near", "far"]
    assert ranked[0][1] <= ranked[1][1]
    # tie-break: identical matrices sort by name
    ranked = rank_methods([("b", near), ("a", near)], S)
    assert [name for name, _ in ranked] == ["a", "b"]


def test_rank_methods_rejects_empty():
    S = random_attribute_set(10, 2, seed=0)
    with pytest.raises(ValueError):
        rank_methods([], S)
