"""Reconstruction distances between attribute sets and a meaningful subspace.

The meaningful subspace is a matrix S (n_instances x J) of human-labelled
{-1, +1} attributes.  A discovered attribute column z is scored by how well
the columns of S reconstruct it:

* unconstrained:  min_r ||S r - z||^2, the minimum-norm solution from one
  symmetric eigensolve of S^T S;
* convex:         the same objective with r restricted to the probability
  simplex (r_i >= 0, sum r_i = 1), solved by accelerated projected
  gradient (FISTA) and certified by its Frank-Wolfe gap.

Distances over a whole discovered matrix are the per-column residuals
averaged.  Lower means the discovered attributes lie closer to (the hull of)
the labelled ones.

Each regime has one batched core that solves every column of D at once
from G = S^T S and D^T S.  A column's solve does not depend, beyond float
rounding, on which other columns share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .attributes import as_attribute_matrix, as_attribute_vector

__all__ = [
    "SolverConfig",
    "SimplexFit",
    "ReconstructionResult",
    "reconstruct_ls",
    "distance_plain",
    "project_simplex",
    "reconstruct_cvx",
    "distance_cvx",
    "brute_force_cvx_oracle",
    "rank_methods",
]

@dataclass(frozen=True)
class SolverConfig:
    """Settings for the simplex-constrained solver.

    max_iterations : hard cap on accelerated projected-gradient steps.
    objective_tolerance : relative bound on f - f*: a column has converged
        once its Frank-Wolfe gap certifies f - f* <= this * max(f, 1).
    """

    max_iterations: int = 10_000
    objective_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.objective_tolerance < 1.0):
            raise ValueError(
                f"objective_tolerance must be in (0, 1), got {self.objective_tolerance}"
            )


@dataclass(frozen=True)
class SimplexFit:
    """One convex reconstruction: coefficients on the simplex plus residual."""

    coefficients: np.ndarray  # (J,) nonnegative, sums to 1
    residual: float  # ||A r - z||^2 at the returned coefficients
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ReconstructionResult:
    """Distance of a discovered attribute matrix from a meaningful subspace.

    coefficients : (J, K) reconstruction weights, one column per discovered
        attribute.
    per_attribute_residuals : (K,) squared residual of each column.
    mean_distance : average of the per-attribute residuals.
    normalized_distance : mean_distance divided by the instance count.
    mode : "plain" for unconstrained least squares, "cvx" for the
        simplex-constrained solve.
    converged : per-column flags, True when the column's Frank-Wolfe gap
        certifies f - f* <= objective_tolerance * max(f, 1) ("cvx" mode only).
    iterations : per-column gradient step counts ("cvx" mode only).
    """

    coefficients: np.ndarray
    per_attribute_residuals: np.ndarray
    mean_distance: float
    normalized_distance: float
    mode: str
    converged: tuple[bool, ...] | None = field(default=None)
    iterations: tuple[int, ...] | None = field(default=None)


def _as_pair(S, D):
    S = as_attribute_matrix(S)
    D = as_attribute_matrix(D)
    if S.shape[0] != D.shape[0]:
        raise ValueError(
            f"row count mismatch: subspace has {S.shape[0]} rows, "
            f"discovered set has {D.shape[0]}"
        )
    return S, D


def _gram(S, D):
    # the shared setup of both regimes: Sf, G = Sf^T Sf and B = D^T Sf (K, J)
    Sf = S.astype(np.float64)
    return Sf, Sf.T @ Sf, D.T.astype(np.float64) @ Sf


def _residuals(Sf, R, D) -> np.ndarray:
    # ||Sf r_k - d_k||^2 for every column, in direct form (the Gram form
    # cancels badly near zero)
    E = Sf @ R
    E -= D
    return np.einsum("ij,ij->j", E, E)


def _solve_plain(S, D):
    # minimum-norm least squares from one eigh of G, with eigenvalues at or
    # below max(N, J) * eps * lambda_max taken as 0.  A kept one below
    # sqrt(eps) * lambda_max leaves no clear gap in the squared spectrum, so
    # that bank goes to lstsq.
    Sf, G, B = _gram(S, D)
    eps = np.finfo(np.float64).eps
    w, V = np.linalg.eigh(G)
    keep = w > max(S.shape) * eps * w[-1]
    if w[keep][0] < np.sqrt(eps) * w[-1]:
        R = np.linalg.lstsq(Sf, D.astype(np.float64), rcond=max(S.shape) * eps)[0]
    else:
        Vk = V[:, keep]
        R = Vk @ ((B @ Vk).T / w[keep, None])
    return R, _residuals(Sf, R, D)


def _project_rows(V) -> np.ndarray:
    # project_simplex applied to each row (Duchi et al. 2008)
    j = V.shape[1]
    u = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ranks = np.arange(1, j + 1, dtype=np.float64)
    positive = u + (1.0 - css) / ranks > 0.0
    rho = j - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = (1.0 - css[np.arange(V.shape[0]), rho]) / (rho + 1.0)
    return np.maximum(V + theta[:, None], 0.0)


def _solve_cvx(S, D, config: SolverConfig):
    # FISTA with gradient restart (Beck & Teboulle 2009; O'Donoghue & Candes
    # 2015) on every column at once: coefficient vectors are the rows of x,
    # each with its own momentum.  With g = G x - b, f(x) = x.(g - b) + z.z
    # and the Frank-Wolfe gap 2 (g.x - min g) bounds f(x) - f* (Jaggi 2013).
    Sf, G, B = _gram(S, D)
    k, j = B.shape
    zz = float(Sf.shape[0])  # every entry is +-1
    # simplex projection ignores constant shifts, so the step needs only the
    # curvature of G on sum-zero directions; the floor is for J = 1 and
    # identical columns, where it is 0
    Gc = G - G.mean(axis=0)
    Gc -= Gc.mean(axis=1, keepdims=True)
    step = 1.0 / max(np.linalg.eigvalsh(Gc)[-1], np.finfo(np.float64).eps * np.trace(G))

    x = np.full((k, j), 1.0 / j)
    y, t = x, np.ones(k)
    R = np.empty((k, j), dtype=np.float64)
    iterations = np.full(k, config.max_iterations, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    for it in range(1, config.max_iterations + 1):
        x_new = _project_rows(y - step * (y @ G - B))
        dx = x_new - x
        # restart a column's momentum when its step turns against the last one
        t = np.where(np.einsum("ij,ij->i", y - x_new, dx) > 0.0, 1.0, t)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new)[:, None] * dx
        x, t = x_new, t_new
        if it % 5 and it < config.max_iterations:
            continue  # the gap costs one more product with G
        g = x @ G - B
        f = np.einsum("ij,ij->i", x, g - B) + zz
        gap = 2.0 * (np.einsum("ij,ij->i", x, g) - g.min(axis=1))
        done = gap <= config.objective_tolerance * np.maximum(f, 1.0)
        if done.any():
            finished = active[done]
            R[finished] = x[done]
            iterations[finished] = it
            converged[finished] = True
            keep = ~done
            x, y, t, B, active = x[keep], y[keep], t[keep], B[keep], active[keep]
            if active.size == 0:
                break
    R[active] = x
    R = R.T
    return R, _residuals(Sf, R, D), converged, iterations


def _result(S, mode, R, resid, converged=None, iterations=None):
    mean = float(resid.mean())
    return ReconstructionResult(
        coefficients=R,
        per_attribute_residuals=resid,
        mean_distance=mean,
        normalized_distance=mean / S.shape[0],
        mode=mode,
        converged=None if converged is None else tuple(converged.tolist()),
        iterations=None if iterations is None else tuple(iterations.tolist()),
    )


def reconstruct_ls(A, z) -> tuple[np.ndarray, float]:
    """Unconstrained least-squares reconstruction of one attribute column.

    Solves min_r ||A r - z||_2^2 with the minimum-norm solution when A is
    rank deficient (duplicate or dependent labelled attributes are common).

    Parameters
    ----------
    A : (N, J) {-1, +1} matrix of labelled attributes.
    z : (N,) {-1, +1} attribute column to reconstruct.

    Returns
    -------
    r : (J,) reconstruction coefficients.
    residual : float, ||A r - z||_2^2.
    """
    result = distance_plain(A, as_attribute_vector(z)[:, None])
    return result.coefficients[:, 0], result.mean_distance


def distance_plain(S, D) -> ReconstructionResult:
    """Mean unconstrained reconstruction distance of D's columns from S.

    delta = (1/K) * sum_k min_r ||S r - D[:, k]||^2, with every column solved
    from one eigendecomposition of S^T S.
    """
    S, D = _as_pair(S, D)
    return _result(S, "plain", *_solve_plain(S, D))


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-and-threshold algorithm: with u the entries of v in descending
    order, find the largest rho such that u_rho + (1 - sum_{i<=rho} u_i) /
    rho > 0, shift by that amount and clip at zero.  O(J log J).

    The output is nonnegative and sums to 1 (up to float accumulation).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"input must be 1-d, got ndim={v.ndim}")
    if v.shape[0] < 1:
        raise ValueError("input must be non-empty")
    if not np.isfinite(v).all():
        raise ValueError("input contains non-finite entries")
    return _project_rows(v[None, :])[0]


def reconstruct_cvx(A, z, config: SolverConfig | None = None) -> SimplexFit:
    """Simplex-constrained reconstruction of one attribute column.

    Solves min_r ||A r - z||^2 subject to r_i >= 0 and sum_i r_i = 1 by FISTA
    with gradient restart: uniform start, fixed step 1 / lambda_max of A^T A
    on sum-zero directions (exact symmetric eigensolve), Euclidean simplex
    projection each step.  Every fifth step, and at the cap, it takes the
    Frank-Wolfe gap, an upper bound on f - f*, and stops with ``converged``
    True once the gap is at most ``config.objective_tolerance * max(f, 1)``.
    When iterations are exhausted first the result is still returned, with
    ``converged`` False.

    Every iterate is the output of the projection, so the returned
    coefficients satisfy the constraints regardless of convergence.
    """
    result = distance_cvx(A, as_attribute_vector(z)[:, None], config)
    return SimplexFit(
        coefficients=result.coefficients[:, 0],
        residual=result.mean_distance,
        converged=result.converged[0],
        iterations=result.iterations[0],
    )


def distance_cvx(S, D, config: SolverConfig | None = None) -> ReconstructionResult:
    """Mean convex-hull reconstruction distance of D's columns from S.

    Same aggregation as :func:`distance_plain`, but each column is fit with
    simplex-constrained coefficients, so the distance measures how far each
    discovered attribute sits from the convex hull of the labelled ones.
    """
    S, D = _as_pair(S, D)
    return _result(S, "cvx", *_solve_cvx(S, D, config or SolverConfig()))


def _simplex_grid(j: int, m: int) -> np.ndarray:
    # all compositions of m into j nonnegative parts, scaled to sum 1: the
    # gaps between j - 1 cuts chosen from m + j - 1 slots
    cuts = np.array(list(combinations(range(m + j - 1), j - 1)))
    return (np.diff(cuts, prepend=-1, append=m + j - 1) - 1) / m


def brute_force_cvx_oracle(A, z, grid_step: float = 0.01) -> float:
    """Grid-search reference objective for the simplex-constrained solve.

    Enumerates every point of the regular simplex grid with spacing
    ``grid_step`` (rounded to the nearest 1/m) and returns the minimum of
    ||A r - z||^2 over them.  Exponential in J, so only J <= 4 is allowed;
    this exists to validate the iterative solver on small problems, not for
    production use.
    """
    A, z = _as_pair(A, as_attribute_vector(z)[:, None])
    if A.shape[1] > 4:
        raise ValueError(
            f"brute-force search is limited to J <= 4 columns, got {A.shape[1]}"
        )
    if not (0.0 < grid_step <= 0.1):
        raise ValueError(f"grid_step must be in (0, 0.1], got {grid_step}")
    divisions = int(round(1.0 / grid_step))
    grid = _simplex_grid(A.shape[1], divisions)  # (P, J)
    resid = np.sum((grid @ A.T.astype(np.float64) - z[:, 0]) ** 2, axis=1)
    return float(resid.min())


def rank_methods(entries, S, config: SolverConfig | None = None):
    """Order named attribute sets by convex reconstruction distance.

    Parameters
    ----------
    entries : sequence of (name, attribute_matrix) pairs.
    S : meaningful subspace shared by all entries.

    Returns
    -------
    list of (name, mean_distance), ascending by distance with name as the
    deterministic tie-break.  All entries are solved in one batch.
    """
    entries = [(str(name), _as_pair(S, D)[1]) for name, D in entries]
    if not entries:
        raise ValueError("at least one named attribute set is required")
    result = distance_cvx(S, np.concatenate([D for _, D in entries], axis=1), config)
    bounds = np.cumsum([0] + [D.shape[1] for _, D in entries])
    scored = [
        (name, float(result.per_attribute_residuals[a:b].mean()))
        for (name, _), a, b in zip(entries, bounds[:-1], bounds[1:])
    ]
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored
