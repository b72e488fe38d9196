"""Coder baselines: lifting, PCA, LSH, spectral hashing, max-margin coder."""

import numpy as np
import pytest

from attrmeaning import (
    LiftClampWarning,
    LiftConfig,
    MmcHyperparams,
    apply_pca,
    encode,
    fit_pca,
    lift_features,
    train_lsh,
    train_mmc,
    train_sh,
)
from attrmeaning import discovery
from attrmeaning.cli import main
from attrmeaning.discovery import _fit_hinge, _flip_bits

# ---------------------------------------------------------------------------
# intersection-kernel lift


def test_lift_shape_and_zero_blocks():
    F = np.array([[0.5, 0.0, 0.25]])
    out = lift_features(F)
    assert out.shape == (1, 9)  # order 1: 3 coordinates per input dim
    # the zero entry maps to an all-zero block (dimension-major layout)
    assert out[0, 3:6] == pytest.approx([0.0, 0.0, 0.0])
    assert np.all(out[0, 0:3] != 0.0)


def test_lift_order_controls_width():
    F = np.full((2, 4), 0.7)
    assert lift_features(F, LiftConfig(order=2)).shape == (2, 20)
    assert lift_features(F, LiftConfig(order=3)).shape == (2, 28)


def test_lift_dot_approximates_min_scalar():
    # scalar sanity check: lifted dot of 0.4 and 0.9 should land near
    # min(0.4, 0.9) = 0.4
    a = lift_features(np.array([[0.4]]))[0]
    b = lift_features(np.array([[0.9]]))[0]
    approx = float(a @ b)
    assert abs(approx - 0.4) / 0.4 <= 0.10


def test_lift_self_similarity_is_linear_in_the_value():
    # the phase terms cancel in a self dot product, leaving exactly
    # x * L * (spectrum(0) + 2 * spectrum(L)) for every x > 0
    L = 0.65
    k0 = 2.0 / np.pi
    k1 = (2.0 / np.pi) / (1.0 + 4.0 * L * L)
    slope = L * (k0 + 2.0 * k1)
    for x in (0.2, 0.5, 1.0, 3.7):
        v = lift_features(np.array([[x]]))[0]
        assert float(v @ v) == pytest.approx(slope * x, rel=1e-12)


def test_lift_clamps_negatives_with_warning():
    F = np.array([[0.5, -0.1], [-0.2, 0.3]])
    with pytest.warns(LiftClampWarning, match="2 negative"):
        out = lift_features(F)
    clean = lift_features(np.maximum(F, 0.0))
    assert np.array_equal(out, clean)


def _masked_lift(F, order):
    # lift_features as first written: gathers the positive entries by mask
    F = np.array(F, dtype=np.float64)
    if np.count_nonzero(F < 0.0):
        F = np.maximum(F, 0.0)
    n, d = F.shape
    L = 0.65
    width = 2 * order + 1
    out = np.zeros((n, d * width))
    pos = F > 0.0
    logF = np.zeros_like(F)
    logF[pos] = np.log(F[pos])
    out[:, 0::width] = np.sqrt(F * L * discovery._intersection_spectrum(0.0))
    for j in range(1, order + 1):
        amp = np.zeros_like(F)
        amp[pos] = np.sqrt(2.0 * F[pos] * L * discovery._intersection_spectrum(j * L))
        phase = j * L * logF
        out[:, 2 * j - 1 :: width] = amp * np.cos(phase)
        out[:, 2 * j :: width] = amp * np.sin(phase)
    return out


@pytest.mark.parametrize("order", [1, 2, 3])
def test_lift_matches_the_masked_formula_bit_for_bit(order):
    rng = np.random.default_rng(order)
    F = rng.uniform(0.0, 2.0, size=(6, 7))
    F[rng.random(F.shape) < 0.3] = 0.0
    F[0] = [0.0, -0.0, 5e-324, 1e300, 0.3, 7.5, 1.0]
    want = _masked_lift(F, order)
    got = lift_features(F, LiftConfig(order=order))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0
    F[1] = [-1.0, -5e-324, -1e300, 0.2, -0.0, 0.0, -0.4]
    with pytest.warns(LiftClampWarning, match="4 negative"):
        got = lift_features(F, LiftConfig(order=order))
    assert got.tobytes() == _masked_lift(F, order).tobytes()


def test_lift_config_validation():
    with pytest.raises(ValueError):
        LiftConfig(order=0)
    with pytest.raises(ValueError):
        LiftConfig(period=0.0)


# ---------------------------------------------------------------------------
# PCA


def test_pca_recovers_line_direction():
    # points on the line y = 2x: one direction explains everything
    t = np.linspace(-1.0, 1.0, 21)
    F = np.column_stack([t, 2.0 * t])
    model = fit_pca(F, keep_fraction=0.5)
    assert model.basis.shape == (2, 1)
    direction = model.basis[:, 0]
    expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert direction == pytest.approx(expected, abs=1e-12)
    assert model.explained_variance[0] == pytest.approx(
        np.var(t * np.sqrt(5.0), ddof=1)
    )


def test_pca_keep_fraction_ceils():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(50, 5))
    assert fit_pca(F, 0.5).basis.shape[1] == 3  # ceil(2.5)
    assert fit_pca(F, 1.0).basis.shape[1] == 5
    assert fit_pca(F, 0.01).basis.shape[1] == 1


def test_pca_rejects_more_directions_than_samples():
    F = np.random.default_rng(1).normal(size=(3, 10))
    with pytest.raises(ValueError, match="cannot keep"):
        fit_pca(F, 1.0)


def test_pca_sign_is_deterministic():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(40, 6))
    m1 = fit_pca(F, 0.5)
    m2 = fit_pca(F, 0.5)
    assert np.array_equal(m1.basis, m2.basis)
    # convention: each direction's largest-magnitude entry is positive
    anchors = np.argmax(np.abs(m1.basis), axis=0)
    assert (m1.basis[anchors, np.arange(m1.basis.shape[1])] > 0).all()


def test_apply_pca_centers_then_projects():
    rng = np.random.default_rng(3)
    F = rng.normal(size=(30, 4)) + 10.0
    model = fit_pca(F, 1.0)
    P = apply_pca(model, F)
    assert P.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-9)
    with pytest.raises(ValueError, match="width"):
        apply_pca(model, rng.normal(size=(5, 3)))


def _thin_svd_pca(F, d):
    # _fit_pca_directions before the QR route: one thin SVD of the centred data
    n = F.shape[0]
    mean = F.mean(axis=0)
    _, s, Vt = np.linalg.svd(F - mean, full_matrices=False)
    Vt = Vt[:d]
    anchors = np.argmax(np.abs(Vt), axis=1)
    signs = np.sign(Vt[np.arange(d), anchors])
    signs[signs == 0] = 1.0
    Vt = Vt * signs[:, None]
    variance = (s[:d] ** 2) / (n - 1)
    return discovery.PcaModel(mean=mean, basis=Vt.T.copy(), explained_variance=variance)


def _same_arrays(a, b):
    # every array field of two model dataclasses, nested ones included
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if hasattr(x, "__dataclass_fields__"):
            _same_arrays(x, y)
        else:
            assert np.array_equal(x, y), name


def _assert_thin_svd_model(monkeypatch, fit, *args):
    got = fit(*args)
    with monkeypatch.context() as m:
        m.setattr(discovery, "_fit_pca_directions", _thin_svd_pca)
        _same_arrays(got, fit(*args))


_PCA_SHAPES = sorted(
    {(n, D) for D in (2, 3, 5, 9, 18, 24, 48, 72, 96, 192)
     for n in (D * 11 // 6 - 1, D * 11 // 6, 2 * D, 10 * D)}
    | {(3, 5), (4, 9), (10, 24), (40, 96)}  # wide: N < D
)


@pytest.mark.parametrize("n, D", _PCA_SHAPES)
def test_pca_equals_the_thin_svd_bit_for_bit(monkeypatch, n, D):
    rng = np.random.default_rng([n, D])
    F = rng.standard_normal((n, D)) * rng.uniform(0.1, 10.0, size=D)
    degenerate = F.copy()
    degenerate[:, -1] = degenerate[:, 0]  # a duplicate column
    if D > 2:
        degenerate[:, 1] = 3.0  # a constant column
    for X in (F, degenerate):
        for keep in (0.25, 0.5, 1.0):
            if int(np.ceil(keep * D)) <= min(n, D):
                _assert_thin_svd_model(monkeypatch, fit_pca, X, keep)
        _assert_thin_svd_model(monkeypatch, train_sh, X, min(n, D))


def test_pca_factors_qr_first_from_the_lapack_crossover(monkeypatch):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    F = np.random.default_rng(4).standard_normal((44, 24))
    fit_pca(F[:43], 0.5)  # 43 < 24 * 11 // 6: dgesdd bidiagonalizes X itself
    assert calls == []
    fit_pca(F, 0.5)
    assert calls == [1]


@pytest.mark.parametrize("method", ["sh", "mmc"])
def test_discover_writes_the_thin_svd_bytes(monkeypatch, tmp_path, method):
    rng = np.random.default_rng(5)
    features = tmp_path / "features.csv"
    np.savetxt(features, rng.multinomial(40, np.full(8, 1 / 8), size=60), fmt="%d", delimiter=",")
    labels = tmp_path / "labels.csv"
    np.savetxt(labels, rng.integers(0, 3, size=60), fmt="%d")

    def discover(tag):
        outs = [tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"]
        argv = [
            "discover", "--method", method, "--bits", "6", "--features", str(features),
            "--lift", "--pca-keep", "0.5", "--seed", "3",
            "--model-out", str(outs[0]), "--codes-out", str(outs[1]),
        ]
        assert main(argv + (["--labels", str(labels)] if method == "mmc" else [])) == 0
        return [p.read_bytes() for p in outs]

    got = discover("qr")
    monkeypatch.setattr(discovery, "_fit_pca_directions", _thin_svd_pca)
    assert got == discover("svd")


# ---------------------------------------------------------------------------
# LSH


def test_lsh_rows_unit_norm_and_seeded():
    m1 = train_lsh(8, 16, seed=5)
    m2 = train_lsh(8, 16, seed=5)
    m3 = train_lsh(8, 16, seed=6)
    assert m1.hyperplanes.shape == (16, 8)
    assert np.linalg.norm(m1.hyperplanes, axis=1) == pytest.approx(np.ones(16))
    assert np.array_equal(m1.hyperplanes, m2.hyperplanes)
    assert not np.array_equal(m1.hyperplanes, m3.hyperplanes)


def test_lsh_codes_roughly_balanced_on_centered_data():
    rng = np.random.default_rng(7)
    F = rng.normal(size=(20_000, 6))
    Z = encode(train_lsh(6, 8, seed=0), F)
    assert Z.dtype == np.int8
    assert set(np.unique(Z)) <= {-1, 1}
    # origin-through hyperplanes split centered Gaussians nearly in half
    positive = (Z == 1).mean(axis=0)
    assert np.abs(positive - 0.5).max() < 0.03


def test_lsh_validation():
    with pytest.raises(ValueError):
        train_lsh(0, 4, seed=0)
    with pytest.raises(ValueError):
        train_lsh(4, 0, seed=0)


# ---------------------------------------------------------------------------
# spectral hashing


def test_sh_prefers_the_long_direction():
    # axis-aligned anisotropic box: x spans 10, y spans 1.  The smoothest
    # modes all live on the long direction until its harmonics catch up.
    rng = np.random.default_rng(8)
    F = np.column_stack(
        [rng.uniform(0, 10, size=5000), rng.uniform(0, 1, size=5000)]
    )
    model = train_sh(F, bits=4)
    # first mode: fundamental harmonic of the widest range
    assert model.modes[0].tolist() == [0, 1]
    # eigenvalue proxy decays with frequency, so the chosen order is
    # non-increasing in eigenvalue
    assert (np.diff(model.eigenvalues) <= 1e-15).all()


def test_sh_balance_on_uniform_rectangle():
    # axis-aligned anisotropic box: projections onto the principal
    # directions stay uniform, so every harmonic splits the data evenly
    rng = np.random.default_rng(9)
    F = np.column_stack(
        [rng.uniform(0, 10, size=10_000), rng.uniform(0, 1, size=10_000)]
    )
    model = train_sh(F, bits=4)
    Z = encode(model, F)
    positive = (Z == 1).mean(axis=0)
    assert np.abs(positive - 0.5).max() <= 0.10


def test_sh_first_harmonic_halves_the_range():
    # k = 1 on [a, b]: sign flips exactly at the midpoint
    F = np.column_stack([np.linspace(0.0, 1.0, 101), np.zeros(101)])
    model = train_sh(F, bits=1)
    Z = encode(model, F)[:, 0]
    # one sign change across the sweep
    assert int(np.count_nonzero(np.diff(Z.astype(np.int64)))) == 1


def test_sh_skips_degenerate_directions():
    rng = np.random.default_rng(10)
    F = np.column_stack([rng.uniform(0, 1, size=100), np.full(100, 3.0)])
    model = train_sh(F, bits=2)
    assert (model.modes[:, 0] == 0).all()


def test_sh_constant_data_rejected():
    F = np.full((10, 3), 2.0)
    with pytest.raises(ValueError, match="degenerate"):
        train_sh(F, bits=2)


def test_sh_determinism():
    rng = np.random.default_rng(11)
    F = rng.uniform(0, 1, size=(500, 3))
    Z1 = encode(train_sh(F, 4), F)
    Z2 = encode(train_sh(F, 4), F)
    assert np.array_equal(Z1, Z2)


# ---------------------------------------------------------------------------
# max-margin coder


def _blobs(seed=0, per_class=50, spread=0.3):
    # two well-separated clusters straddling the origin
    rng = np.random.default_rng(seed)
    centers = np.array([[-2.0, -2.0], [2.0, 2.0]])
    F = np.concatenate(
        [c + spread * rng.normal(size=(per_class, 2)) for c in centers]
    )
    y = np.repeat(np.arange(2), per_class)
    return F, y


def _linear_training_accuracy(Z, y):
    # least-squares affine classifier on the codes
    X = np.column_stack([Z.astype(np.float64), np.ones(len(Z))])
    target = np.where(y == 1, 1.0, -1.0)
    w, _, _, _ = np.linalg.lstsq(X, target, rcond=None)
    pred = np.where(X @ w >= 0.0, 1, 0)
    return (pred == y).mean()


def test_mmc_codes_separate_blobs():
    for seed in range(5):
        F, y = _blobs(seed=seed)
        model = train_mmc(F, y, bits=2, seed=seed)
        Z = encode(model, F)
        assert _linear_training_accuracy(Z, y) == 1.0


def test_mmc_is_deterministic_per_seed():
    F, y = _blobs(seed=13)
    m1 = train_mmc(F, y, bits=4, seed=3)
    m2 = train_mmc(F, y, bits=4, seed=3)
    assert np.array_equal(m1.hyperplanes, m2.hyperplanes)
    m3 = train_mmc(F, y, bits=4, seed=4)
    assert not np.array_equal(m1.hyperplanes, m3.hyperplanes)


def test_mmc_validation():
    F, y = _blobs(seed=14, per_class=2)  # 4 instances, 2 classes: at the bound
    with pytest.raises(ValueError, match="classes"):
        train_mmc(F, np.zeros(len(F), dtype=int), bits=4)
    with pytest.raises(ValueError, match="instances"):
        train_mmc(F[:3], y[:3], bits=4)
    with pytest.raises(ValueError, match="bits"):
        train_mmc(F, y, bits=0)


@pytest.mark.parametrize("epochs", [0, 2.7, 2.0, True, "2"])
def test_mmc_hyperparams_reject_bad_epochs(epochs):
    with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
        MmcHyperparams(epochs=epochs)


def test_encode_rejects_unknown_model():
    with pytest.raises(TypeError, match="unknown coder"):
        encode(object(), np.ones((2, 2)))


def test_encode_checks_feature_width():
    model = train_lsh(4, 2, seed=0)
    with pytest.raises(ValueError, match="width"):
        encode(model, np.ones((3, 5)))


# ---------------------------------------------------------------------------
# max-margin coder: batched training against the per-fit trainer it replaced


def _fit_hinge_one(X, y, lam, lr):
    # reference: one hinge fit at a time, as the coder trained before its
    # fits were batched
    n, d = X.shape
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = (X - mu) / sd
    w = np.zeros(d)
    b = 0.0
    for t in range(1, 301):
        margins = y * (Xs @ w + b)
        viol = margins < 1.0
        gw = 2.0 * lam * w
        if viol.any():
            gw -= (Xs[viol] * y[viol, None]).sum(axis=0) / n
        gb = -float(y[viol].sum()) / n
        step = lr / np.sqrt(t)
        w -= step * gw
        b -= step * gb
    w_raw = w / sd
    return w_raw, b - float(w_raw @ mu)


def _flip_bits_row_major(B, Wc, bc, Y):
    # reference: the greedy flip phase as a row-major double loop
    scores = B @ Wc.T + bc
    loss_rows = np.maximum(0.0, 1.0 - Y * scores).sum(axis=1)
    for i in range(B.shape[0]):
        for ki in range(B.shape[1]):
            delta = -2.0 * B[i, ki] * Wc[:, ki]
            flipped = np.maximum(0.0, 1.0 - Y[i] * (scores[i] + delta)).sum()
            if flipped < loss_rows[i] - 1e-12:
                B[i, ki] = -B[i, ki]
                scores[i] += delta
                loss_rows[i] = flipped
    return scores, loss_rows


def _train_mmc_per_fit(F, y, bits, seed, lam=1e-4, epochs=20, lr=0.1):
    # reference: the coder with one hinge fit per class and per bit
    classes = np.unique(y)
    d = F.shape[1]
    B = np.where(F @ train_lsh(d, bits, seed).hyperplanes.T >= 0.0, 1.0, -1.0)
    Y = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
    H = np.zeros((bits, d + 1))
    for _ in range(epochs):
        Wc = np.empty((classes.shape[0], bits))
        bc = np.empty(classes.shape[0])
        for ci in range(classes.shape[0]):
            Wc[ci], bc[ci] = _fit_hinge_one(B, Y[:, ci], lam, lr)
        for ki in range(bits):
            H[ki, :d], H[ki, d] = _fit_hinge_one(F, B[:, ki], lam, lr)
        _flip_bits_row_major(B, Wc, bc, Y)
    return H


def _assert_rel_close(got, want, rtol):
    scale = np.maximum(np.abs(want), 1.0)
    assert (np.abs(got - want) / scale).max() <= rtol


def _hinge_fixture(label):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 5))
    T = np.where(X[:, :4] + 0.5 * rng.normal(size=(60, 4)) >= 0.0, 1.0, -1.0)
    if label == "one column":
        return X, T[:, :1], 0.1
    if label == "all violating":
        # a step this small keeps every margin below 1 for all 300 steps
        return X, T, 1e-4
    if label == "constant feature":
        X[:, 2] = 3.5  # zero spread: standardized by 1, not by 0
    return X, T, 0.1


@pytest.mark.parametrize(
    "label", ["one column", "several columns", "all violating", "constant feature"]
)
def test_batched_hinge_matches_per_fit_loop(label):
    X, T, lr = _hinge_fixture(label)
    W, b = _fit_hinge(X, T, 1e-4, lr)
    assert W.shape == (T.shape[1], X.shape[1]) and b.shape == (T.shape[1],)
    for j in range(T.shape[1]):
        w_ref, b_ref = _fit_hinge_one(X, T[:, j], 1e-4, lr)
        _assert_rel_close(W[j], w_ref, 1e-12)
        _assert_rel_close(b[j], b_ref, 1e-12)
    if label == "all violating":
        assert (T * (X @ W.T + b) < 1.0).all()


def test_vectorised_flip_phase_equals_row_major_loop():
    rng = np.random.default_rng(22)
    n, k, c = 80, 6, 3
    B = np.where(rng.random((n, k)) < 0.5, 1.0, -1.0)
    Wc = rng.normal(size=(c, k))
    bc = rng.normal(size=c)
    Y = np.where(rng.integers(0, c, size=n)[:, None] == np.arange(c), 1.0, -1.0)
    B_start = B.copy()
    B_ref = B.copy()
    scores_ref, loss_ref = _flip_bits_row_major(B_ref, Wc, bc, Y)
    scores, loss = _flip_bits(B, Wc, bc, Y)
    assert (B != B_start).any(axis=1).sum() > n // 2  # most rows flip a bit
    assert np.array_equal(B, B_ref)
    assert np.array_equal(scores, scores_ref)
    assert np.array_equal(loss, loss_ref)


def _mmc_fixtures():
    # every MMC input the suite trains on: the blobs above and criterion 7's
    # 500 x 4 uniform features and blobs
    cases = [pytest.param(*_blobs(seed=s), 2, s, id=f"blobs-{s}") for s in range(5)]
    cases += [pytest.param(*_blobs(seed=13), 4, s, id=f"blobs13-{s}") for s in (3, 4)]
    rng = np.random.default_rng(31)
    F = rng.uniform(0.0, 1.0, size=(500, 4))
    y2 = (F[:, 0] + F[:, 1] > 1.0).astype(int)
    cases += [
        pytest.param(F, y2, 6, 0, id="uniform500-0"),
        pytest.param(F, y2, 4, 9, id="uniform500-9"),
    ]
    for seed in range(3):
        rng3 = np.random.default_rng(100 + seed)
        blob = np.concatenate(
            [
                [-2.0, -2.0] + 0.3 * rng3.normal(size=(50, 2)),
                [2.0, 2.0] + 0.3 * rng3.normal(size=(50, 2)),
            ]
        )
        yb = np.repeat([0, 1], 50)
        cases.append(pytest.param(blob, yb, 2, seed, id=f"blobs10{seed}-{seed}"))
    return cases


@pytest.mark.parametrize("F, y, bits, seed", _mmc_fixtures())
def test_mmc_codes_match_per_fit_trainer(F, y, bits, seed):
    model = train_mmc(F, y, bits=bits, seed=seed)
    H_ref = _train_mmc_per_fit(F, y, bits, seed)
    _assert_rel_close(model.hyperplanes, H_ref, 1e-12)
    Z_ref = np.where(F @ H_ref[:, :-1].T + H_ref[:, -1] >= 0.0, 1, -1)
    assert np.array_equal(encode(model, F), Z_ref)


# ---------------------------------------------------------------------------
# max-margin coder: one bit fit after the last flip phase against the batched
# loop that refitted the bit hyperplanes in every epoch


def _train_mmc_every_epoch(F, y, bits, seed, epochs=20, lam=1e-4, lr=0.1):
    # reference: the batched coder as it ran before, with the class fit, the
    # bit fit and the flip phase in each of `epochs` rounds
    classes = np.unique(y)
    d = F.shape[1]
    B = np.where(F @ train_lsh(d, bits, seed).hyperplanes.T >= 0.0, 1.0, -1.0)
    Y = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
    H = np.empty((bits, d + 1))
    for _ in range(epochs):
        Wc, bc = _fit_hinge(B, Y, lam, lr)
        H[:, :d], H[:, d] = _fit_hinge(F, B, lam, lr)
        _flip_bits(B, Wc, bc, Y)
    return H, classes


def _lifted_mmc_cell(n, dims, c, seed):
    # labelled topic histograms, lifted and PCA-reduced to half the lifted
    # width, as `discover --method mmc --lift --pca-keep 0.5` trains on
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.full(dims, 0.2), size=c)
    y = np.arange(n) % c
    rng.shuffle(y)
    mix = 0.7 * topics[y] + 0.3 * rng.dirichlet(np.ones(dims), size=n)
    F = lift_features(rng.multinomial(200, mix / mix.sum(axis=1, keepdims=True)))
    return apply_pca(fit_pca(F, 0.5), F), y


def _every_epoch_cases():
    cases = [
        pytest.param(*p.values, 20, id=f"{p.id}-e20") for p in _mmc_fixtures()
    ]
    for n, dims, c, bits in ((40, 6, 2, 2), (160, 24, 4, 4)):
        F, y = _lifted_mmc_cell(n, dims, c, seed=n)
        cases += [
            pytest.param(F, y, bits, 7, epochs, id=f"lifted{n}x{3 * dims}-e{epochs}")
            for epochs in (1, 2, 20)
        ]
    return cases


@pytest.mark.parametrize("F, y, bits, seed, epochs", _every_epoch_cases())
def test_mmc_equals_every_epoch_bit_fit(F, y, bits, seed, epochs):
    model = train_mmc(F, y, bits, MmcHyperparams(epochs=epochs), seed=seed)
    H_ref, classes_ref = _train_mmc_every_epoch(F, y, bits, seed, epochs)
    assert np.array_equal(model.hyperplanes, H_ref)
    assert np.array_equal(model.classes, classes_ref)
    Z_ref = np.where(F @ H_ref[:, :-1].T + H_ref[:, -1] >= 0.0, 1, -1)
    assert np.array_equal(encode(model, F), Z_ref)


# ---------------------------------------------------------------------------
# max-margin coder: the rounds end at the first flip phase that changes no bit


def _first_round_without_flips(F, y, bits, seed, lam=1e-4, lr=0.1):
    # reference: run rounds of class fit and row-major flip phase until one
    # flips nothing, and return that round's number (1-based)
    classes = np.unique(y)
    B = np.where(F @ train_lsh(F.shape[1], bits, seed).hyperplanes.T >= 0.0, 1.0, -1.0)
    Y = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
    for r in range(1, 100):
        Wc, bc = _fit_hinge(B, Y, lam, lr)
        B_before = B.copy()
        _flip_bits_row_major(B, Wc, bc, Y)
        if np.array_equal(B, B_before):
            return r
    raise AssertionError("no fixed point within 99 rounds")


def test_mmc_rounds_stop_at_the_first_flip_phase_that_changes_no_bit(monkeypatch):
    F, y = _lifted_mmc_cell(160, 24, 4, seed=160)
    r = _first_round_without_flips(F, y, 4, 7)
    assert r + 1 < 20  # the fixed point comes before the cap of 20 epochs
    calls = []

    def counted_fit_hinge(*args):
        calls.append(None)
        return _fit_hinge(*args)

    monkeypatch.setattr(discovery, "_fit_hinge", counted_fit_hinge)
    # r class fits and the one bit fit; at epochs=2 the cap ends the rounds
    for epochs, fits in ((20, r + 1), (2, 2)):
        calls.clear()
        train_mmc(F, y, 4, MmcHyperparams(epochs=epochs), seed=7)
        assert len(calls) == fits
