"""Attribute discovery baselines: feature lifting, PCA, and binary coders.

Three ways to turn real feature vectors into {-1, +1} attribute codes:

* LSH: data-independent random hyperplanes;
* spectral hashing: PCA directions partitioned by analytic sinusoid modes;
* max-margin coder: LSH-initialized codes refined by alternating hinge-loss
  classifier fits and greedy bit flips against category labels.

``lift_features`` provides the sampled explicit feature map for the
histogram intersection kernel so that linear hyperplanes in the lifted
space act like intersection-kernel classifiers in the original one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .attributes import as_feature_matrix, as_label_vector

__all__ = [
    "LiftConfig",
    "LiftClampWarning",
    "lift_features",
    "PcaModel",
    "fit_pca",
    "apply_pca",
    "LshModel",
    "train_lsh",
    "ShModel",
    "train_sh",
    "MmcHyperparams",
    "MmcModel",
    "train_mmc",
    "encode",
]


class LiftClampWarning(UserWarning):
    """Negative feature entries were clamped to zero before lifting."""


@dataclass(frozen=True)
class LiftConfig:
    """Sampled feature-map settings: harmonics per dimension and sample period."""

    order: int = 1
    period: float = 0.65

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not (self.period > 0.0):
            raise ValueError(f"period must be positive, got {self.period}")


def _intersection_spectrum(omega: float) -> float:
    # spectrum of the intersection kernel's log-domain signature
    return (2.0 / np.pi) / (1.0 + 4.0 * omega**2)


def lift_features(F, config: LiftConfig | None = None) -> np.ndarray:
    """Lift nonnegative features so dot products approximate intersection.

    Each input dimension x expands to 2 * order + 1 coordinates

        [ sqrt(x L k(0)),
          sqrt(2 x L k(jL)) cos(jL log x),
          sqrt(2 x L k(jL)) sin(jL log x) ]   for j = 1..order

    with k the intersection-kernel spectrum and L the sample period, laid
    out dimension-major.  The lifted dot product of two rows approximates
    sum_d min(x_d, y_d).  Zero entries map to zero blocks; negative entries
    are clamped to zero first (a :class:`LiftClampWarning` reports how many).

    Parameters
    ----------
    F : (N, D) feature matrix, nominally nonnegative (histogram-like).
    config : lift settings; defaults to order 1, period 0.65.

    Returns
    -------
    (N, D * (2 * order + 1)) float64 matrix.
    """
    F = as_feature_matrix(F)
    config = config or LiftConfig()
    negatives = int(np.count_nonzero(F < 0.0))
    if negatives:
        warnings.warn(
            f"clamped {negatives} negative feature entries to zero before lifting",
            LiftClampWarning,
            stacklevel=2,
        )
        F = np.maximum(F, 0.0)

    n, d = F.shape
    L = config.period
    width = 2 * config.order + 1
    out = np.empty((n, d, width), dtype=np.float64)

    logF = np.log(F, out=np.zeros_like(F), where=F > 0.0)
    out[:, :, 0] = np.sqrt(F * L * _intersection_spectrum(0.0))
    # + 0.0 maps -0.0 to 0.0, so every zero entry gets a +0.0 amplitude
    two_FL = 2.0 * F * L + 0.0
    for j in range(1, config.order + 1):
        amp = np.sqrt(two_FL * _intersection_spectrum(j * L))
        phase = j * L * logF  # amp and phase are 0 where F is 0
        cos, sin = out[:, :, 2 * j - 1], out[:, :, 2 * j]
        np.multiply(amp, np.cos(phase, out=cos), out=cos)
        np.multiply(amp, np.sin(phase, out=sin), out=sin)
    return out.reshape(n, d * width)


@dataclass(frozen=True)
class PcaModel:
    """Centered orthonormal projection: mean (D,), basis (D, d), variances (d,)."""

    mean: np.ndarray
    basis: np.ndarray
    explained_variance: np.ndarray


def _fit_pca_directions(F: np.ndarray, d: int) -> PcaModel:
    n, D = F.shape
    mean = F.mean(axis=0)
    X = F - mean
    if n >= D * 11 // 6:
        X = np.linalg.qr(X, mode="r")  # dgesdd's own route (see fit_pca)
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    Vt = Vt[:d]
    # fix the SVD sign ambiguity so repeated fits agree bit for bit
    anchors = np.argmax(np.abs(Vt), axis=1)
    signs = np.sign(Vt[np.arange(d), anchors])
    signs[signs == 0] = 1.0
    Vt = Vt * signs[:, None]
    variance = (s[:d] ** 2) / (n - 1)
    return PcaModel(mean=mean, basis=Vt.T.copy(), explained_variance=variance)


def fit_pca(F, keep_fraction: float) -> PcaModel:
    """Fit a PCA projection keeping ceil(keep_fraction * D) directions.

    Requires at least two rows, 0 < keep_fraction <= 1, and enough samples
    to support the requested direction count (d <= min(N, D)).

    From N >= floor(11 D / 6) rows on, LAPACK's dgesdd would factor the
    centred data X = QR and take the SVD of R; that is done here, so the
    directions are the same bit for bit but Q and the N x D left singular
    vectors are never formed.  Below that crossover X itself is factored.
    """
    F = as_feature_matrix(F)
    if F.shape[0] < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {F.shape[0]}")
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    d = int(np.ceil(keep_fraction * F.shape[1]))
    if d > min(F.shape):
        raise ValueError(
            f"cannot keep {d} directions from data of shape {F.shape}"
        )
    return _fit_pca_directions(F, d)


def apply_pca(model: PcaModel, F) -> np.ndarray:
    """Project features onto a fitted PCA basis: (F - mean) @ basis."""
    F = as_feature_matrix(F)
    if F.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"feature width {F.shape[1]} does not match the fitted width "
            f"{model.mean.shape[0]}"
        )
    return (F - model.mean) @ model.basis


@dataclass(frozen=True)
class LshModel:
    """Random-hyperplane coder: unit-norm rows of `hyperplanes` (K, D)."""

    hyperplanes: np.ndarray
    dims: int
    bits: int
    seed: int


def train_lsh(dims: int, bits: int, seed: int) -> LshModel:
    """Draw `bits` random unit-norm hyperplanes through the origin.

    Rows are i.i.d. spherical Gaussian directions from a generator seeded
    with `seed`; codes are the response signs, so the coder is data
    independent and reproducible.
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((bits, dims))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return LshModel(hyperplanes=W, dims=dims, bits=bits, seed=seed)


@dataclass(frozen=True)
class ShModel:
    """Spectral-hashing coder.

    pca : centered projection onto min(D, bits) directions.
    ranges : (d, 2) per-direction [min, max] of the projected training data.
    modes : (bits, 2) int array of (direction, harmonic) pairs, smoothest
        first (ascending squared frequency).
    eigenvalues : analytic eigenvalue proxy exp(-(eps^2/2) (k pi / range)^2)
        with eps = 1, one per mode, in mode order.
    """

    pca: PcaModel
    ranges: np.ndarray
    modes: np.ndarray
    eigenvalues: np.ndarray
    dims: int
    bits: int


def train_sh(F, bits: int) -> ShModel:
    """Fit a spectral-hashing coder on training features.

    PCA reduces to min(D, bits) directions; each kept direction contributes
    sinusoid modes at harmonics k = 1..bits over its projected range [a, b].
    Modes are ranked by squared frequency (k pi / (b - a))^2 ascending, so a
    long-range (high variance) direction fills the smoothest slots first,
    and the `bits` smoothest modes become the code bits.  Directions with a
    degenerate (zero-width) range are excluded.
    """
    F = as_feature_matrix(F)
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if F.shape[0] < 2:
        raise ValueError(f"training needs at least 2 rows, got {F.shape[0]}")
    d = min(F.shape[1], bits)
    if d > min(F.shape):
        raise ValueError(f"cannot keep {d} directions from data of shape {F.shape}")
    pca = _fit_pca_directions(F, d)
    P = (F - pca.mean) @ pca.basis
    lo = P.min(axis=0)
    hi = P.max(axis=0)

    candidates = []  # (omega^2, direction, harmonic)
    for direction in range(d):
        span = hi[direction] - lo[direction]
        if span <= 0.0:
            continue
        for k in range(1, bits + 1):
            omega_sq = (k * np.pi / span) ** 2
            candidates.append((omega_sq, direction, k))
    if not candidates:
        raise ValueError("every projected direction is degenerate (constant data)")
    candidates.sort()
    chosen = candidates[:bits]
    if len(chosen) < bits:
        raise ValueError(
            f"only {len(chosen)} usable modes for {bits} requested bits"
        )
    modes = np.asarray([(direction, k) for _, direction, k in chosen], dtype=np.int64)
    eigenvalues = np.asarray([np.exp(-0.5 * w2) for w2, _, _ in chosen])
    return ShModel(
        pca=pca,
        ranges=np.column_stack([lo, hi]),
        modes=modes,
        eigenvalues=eigenvalues,
        dims=F.shape[1],
        bits=bits,
    )


@dataclass(frozen=True)
class MmcHyperparams:
    """Max-margin coder settings: hinge regularization, outer epochs, step size."""

    regularization: float = 1e-4
    epochs: int = 20
    learning_rate: float = 0.1

    def __post_init__(self):
        if not (self.regularization > 0.0):
            raise ValueError(f"regularization must be positive, got {self.regularization}")
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, (int, np.integer)) or epochs < 1:
            raise ValueError(f"epochs must be an integer >= 1, got {epochs!r}")
        if not (self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class MmcModel:
    """Max-margin coder: affine hyperplanes (bits, D + 1), last column bias."""

    hyperplanes: np.ndarray
    classes: np.ndarray
    dims: int
    bits: int
    seed: int
    hyperparams: MmcHyperparams = field(default_factory=MmcHyperparams)


_HINGE_STEPS = 300


def _fit_hinge(X: np.ndarray, T: np.ndarray, lam: float, lr: float):
    # one-vs-rest hinge fits sharing the inputs X (n, d), one per target
    # column of T (n, m) in {-1, +1}; returns W (m, d) and b (m,).  Each fit
    # is full-batch subgradient descent on mean hinge loss + lam * ||w||^2,
    # learning rate lr / sqrt(t); bias unregularized; deterministic (no
    # shuffling).  Columns are standardized internally so the step size is
    # meaningful regardless of feature scale; the returned (W, b) act on the
    # raw inputs.
    n, d = X.shape
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = np.column_stack([(X - mu) / sd, np.ones(n)])  # last column: the bias
    reg = np.full(d + 1, 2.0 * lam)
    reg[d] = 0.0  # the bias is unregularized
    W = np.zeros((T.shape[1], d + 1))
    for step in lr / np.sqrt(np.arange(1.0, _HINGE_STEPS + 1)):
        V = np.where(T * (Xs @ W.T) < 1.0, T, 0.0)  # targets of violating rows
        G = W * reg
        G -= (V.T @ Xs) / n
        W -= step * G
    W_raw = W[:, :d] / sd
    return W_raw, W[:, d] - W_raw @ mu


def _flip_bits(B: np.ndarray, Wc: np.ndarray, bc: np.ndarray, Y: np.ndarray):
    # greedy pass over the bits of every row: flip B[i, ki] in place when the
    # flip strictly lowers row i's one-vs-rest hinge loss.  A flip in row i
    # touches only scores[i] and loss_rows[i], so sweeping the bits with all
    # rows at once keeps each row's sequential, bit-order semantics.
    scores = B @ Wc.T + bc  # (n, c)
    loss_rows = np.maximum(0.0, 1.0 - Y * scores).sum(axis=1)
    total_before = loss_rows.sum()
    for ki in range(B.shape[1]):
        delta = -2.0 * B[:, ki, None] * Wc[:, ki]
        flipped = np.maximum(0.0, 1.0 - Y * (scores + delta)).sum(axis=1)
        flip = flipped < loss_rows - 1e-12
        B[flip, ki] = -B[flip, ki]
        scores[flip] += delta[flip]
        loss_rows[flip] = flipped[flip]
    assert loss_rows.sum() <= total_before + 1e-9, "flip phase raised the loss"
    return scores, loss_rows


def train_mmc(
    F,
    y,
    bits: int,
    hyperparams: MmcHyperparams | None = None,
    seed: int = 0,
) -> MmcModel:
    """Train the max-margin coder on labelled features.

    Codes are initialized from random hyperplanes (:func:`train_lsh` with
    the same seed), refined for at most `epochs` - 1 rounds of two updates:

    (a) fit one-vs-rest hinge classifiers on the current codes;
    (c) greedily flip any training bit whose flip strictly lowers the total
        one-vs-rest hinge loss, in fixed row-major order;

    then (b) each bit's affine hyperplane is fit once on the features to
    predict the final codes.  That is the same model as refitting (b)
    between (a) and (c) in each of `epochs` rounds: only the last refit,
    made before the last round's flips, would be kept.  The rounds stop at
    the first flip phase that changes no bit: the next round would start
    from the same codes, so its deterministic fit (a) and flips (c) would
    repeat this one exactly, and so would every round after it.
    The flip phase never increases the category hinge loss, and the whole
    procedure is deterministic for a fixed seed.  The returned model encodes
    by hyperplane response sign.
    """
    F = as_feature_matrix(F)
    y = as_label_vector(y, n=F.shape[0])
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise ValueError(f"need at least 2 classes, got {classes.shape[0]}")
    if F.shape[0] < 2 * classes.shape[0]:
        raise ValueError(
            f"need at least {2 * classes.shape[0]} instances for "
            f"{classes.shape[0]} classes, got {F.shape[0]}"
        )
    hp = hyperparams or MmcHyperparams()
    d = F.shape[1]
    k = bits

    init = train_lsh(d, k, seed)
    B = np.where(F @ init.hyperplanes.T >= 0.0, 1.0, -1.0)  # (n, k) working codes
    Y = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # (n, c) one-vs-rest

    for _ in range(hp.epochs - 1):
        Wc, bc = _fit_hinge(B, Y, hp.regularization, hp.learning_rate)
        B_before = B.copy()
        _flip_bits(B, Wc, bc, Y)
        if np.array_equal(B, B_before):
            break  # a fixed point: every later round would repeat this one
    H = np.column_stack(_fit_hinge(F, B, hp.regularization, hp.learning_rate))

    return MmcModel(
        hyperplanes=H, classes=classes, dims=d, bits=k, seed=seed, hyperparams=hp
    )


def encode(model, F) -> np.ndarray:
    """Encode features into {-1, +1} codes with a fitted coder.

    Dispatches on the model type; responses of exactly zero map to +1,
    matching :func:`attrmeaning.attributes.binarize`.
    """
    F = as_feature_matrix(F)
    if not isinstance(model, (LshModel, ShModel, MmcModel)):
        raise TypeError(f"unknown coder model type: {type(model).__name__}")
    if F.shape[1] != model.dims:
        raise ValueError(
            f"feature width {F.shape[1]} does not match model dims {model.dims}"
        )
    if isinstance(model, LshModel):
        resp = F @ model.hyperplanes.T
    elif isinstance(model, ShModel):
        P = (F - model.pca.mean) @ model.pca.basis
        dirs, k = model.modes.T
        lo, hi = model.ranges.T
        resp = P[:, dirs]  # a copy, updated in place: no (N, bits) temporaries
        resp -= lo[dirs]
        resp /= (hi - lo)[dirs]
        resp *= k * np.pi
        resp += np.pi / 2.0
        np.sin(resp, out=resp)
    else:
        resp = F @ model.hyperplanes[:, :-1].T + model.hyperplanes[:, -1]
    return np.where(resp >= 0.0, 1, -1).astype(np.int8)
