"""Binary attribute representations and their validation.

Attributes are stored as {-1, +1} matrices with one row per instance and
one column per attribute.  Everything downstream (reconstruction, coding
baselines, benchmarks) consumes the dtypes produced here, so validation is
centralized in this module: a matrix that passes ``as_attribute_matrix``
is safe for any solver in the package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_feature_matrix",
    "as_attribute_matrix",
    "as_attribute_vector",
    "as_label_vector",
    "binarize",
    "random_attribute_set",
    "concat_attributes",
]


def _first_bad(mask):
    # index of the first True entry in a 2-d boolean mask, row-major
    rows, cols = np.nonzero(mask)
    return int(rows[0]), int(cols[0])


def _finite_matrix(X, noun, value) -> np.ndarray:
    # X as a non-empty, finite 2-d float64 array; errors name noun and value
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{noun} must be 2-d, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"{noun} must be non-empty, got shape {X.shape}")
    bad = ~np.isfinite(X)
    if bad.any():
        i, j = _first_bad(bad)
        raise ValueError(f"non-finite {value} at row {i}, column {j}")
    return X


def as_feature_matrix(F) -> np.ndarray:
    """Validate and return a dense real feature matrix (n_instances x n_dims).

    Parameters
    ----------
    F : array_like
        2-d array of finite reals, at least one row and one column.

    Returns
    -------
    numpy.ndarray of float64, shape (N, D).

    Raises
    ------
    ValueError
        If the array is not 2-d, is empty, or contains a non-finite entry
        (the error message names the offending row and column).
    """
    return _finite_matrix(F, "feature matrix", "feature value")


def as_attribute_matrix(Z) -> np.ndarray:
    """Validate a {-1, +1} attribute matrix and return it as int8.

    Shape is (n_instances, n_attributes) with N >= 1 and K >= 1.  Any entry
    outside {-1, +1} raises ValueError naming its (row, column) position.
    """
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise ValueError(f"attribute matrix must be 2-d, got ndim={Z.ndim}")
    if Z.shape[0] < 1 or Z.shape[1] < 1:
        raise ValueError(f"attribute matrix must be non-empty, got shape {Z.shape}")
    # bool and integer entries compare exactly in their own dtype
    Zc = Z if Z.dtype.kind in "biu" else Z.astype(np.float64, copy=False)
    bad = (Zc != 1) & (Zc != -1)
    if bad.any():
        i, j = _first_bad(bad)
        raise ValueError(
            f"attribute value at row {i}, column {j} is {Z[i, j]!r}; must be -1 or +1"
        )
    return Z.astype(np.int8, copy=False)


def as_attribute_vector(z) -> np.ndarray:
    """Validate a 1-d {-1, +1} attribute vector and return it as int8."""
    z = np.asarray(z)
    if z.ndim != 1:
        raise ValueError(f"attribute vector must be 1-d, got ndim={z.ndim}")
    if z.shape[0] < 1:
        raise ValueError("attribute vector must be non-empty")
    return as_attribute_matrix(z.reshape(-1, 1))[:, 0]


def as_label_vector(y, n: int | None = None) -> np.ndarray:
    """Validate an integer class-label vector; optionally check its length."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"label vector must be 1-d, got ndim={y.ndim}")
    if not np.issubdtype(y.dtype, np.integer):
        yf = y.astype(np.float64)
        if not np.isfinite(yf).all() or not np.all(yf == np.round(yf)):
            raise ValueError("labels must be integers")
        y = yf.astype(np.int64)
    if n is not None and y.shape[0] != n:
        raise ValueError(f"label count {y.shape[0]} does not match instance count {n}")
    return y.astype(np.int64, copy=False)


def binarize(scores) -> np.ndarray:
    """Threshold real-valued classifier scores into {-1, +1} attributes.

    Each entry becomes +1 when the score is >= 0 and -1 otherwise, so an
    exact zero maps to +1.  This is the single sign convention used across
    the package.

    Parameters
    ----------
    scores : array_like
        2-d array of finite real scores (n_instances x n_attributes).

    Returns
    -------
    numpy.ndarray of int8 in {-1, +1}, same shape as `scores`.

    Raises
    ------
    ValueError
        On NaN or infinite scores, naming the first bad (row, column).
    """
    S = _finite_matrix(scores, "score matrix", "score")
    return np.where(S >= 0.0, 1, -1).astype(np.int8)


def random_attribute_set(n: int, count: int, seed: int) -> np.ndarray:
    """Draw a matrix of i.i.d. uniform random attributes.

    Used as the non-meaningful control set in benchmarks: `count` columns of
    length `n` with each bit independently -1 or +1 with probability 1/2,
    from a generator seeded with `seed` (same seed, same matrix).
    """
    if n < 1:
        raise ValueError(f"instance count must be >= 1, got {n}")
    if count < 1:
        raise ValueError(f"attribute count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, count))
    return (2 * bits - 1).astype(np.int8)


def concat_attributes(A, B) -> np.ndarray:
    """Concatenate two attribute matrices column-wise.

    Both inputs are validated; their row counts must agree.
    """
    A = as_attribute_matrix(A)
    B = as_attribute_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"row count mismatch: first matrix has {A.shape[0]} rows, "
            f"second has {B.shape[0]}"
        )
    return np.concatenate([A, B], axis=1)
