"""Reference results the benchmark checks the program's outputs against.

Two kinds of reference live here:

* Independent solvers for the distances: one batched ``numpy.linalg.lstsq``
  for the plain regime, and a batched accelerated projected-gradient solve
  for the simplex regime that runs until its Frank-Wolfe duality gap
  certifies the optimum.  The program's residuals are compared with these
  within stated tolerances, so a faster or more accurate solver still
  passes.
* Frozen copies of the coders (intersection-kernel lift, PCA, LSH, spectral
  hashing, max-margin coder) as the program implemented them when this
  benchmark was written.  Their codes are the contract a later rewrite of
  ``attrmeaning.discovery`` must keep, bit for bit.

Nothing here imports ``attrmeaning``.
"""

from __future__ import annotations

import math

import numpy as np

SEED_STRIDE = 10_007  # the protocol's derived-seed stride (see attrmeaning.bench)


# ---------------------------------------------------------------------------
# reconstruction distances


def plain_residuals(S, D) -> np.ndarray:
    """Squared residual of each column of D after least squares on S."""
    Sf = S.astype(np.float64)
    Df = D.astype(np.float64)
    rcond = max(Sf.shape) * np.finfo(np.float64).eps
    R = np.linalg.lstsq(Sf, Df, rcond=rcond)[0]
    return np.sum((Sf @ R - Df) ** 2, axis=0)


def project_simplex_columns(V) -> np.ndarray:
    """Project every column of V onto the probability simplex (sort and threshold)."""
    j, k = V.shape
    U = -np.sort(-V, axis=0)
    css = np.cumsum(U, axis=0) - 1.0
    ranks = np.arange(1, j + 1, dtype=np.float64)[:, None]
    positive = U - css / ranks > 0.0
    rho = j - 1 - np.argmax(positive[::-1], axis=0)
    theta = css[rho, np.arange(k)] / (rho + 1.0)
    return np.maximum(V - theta, 0.0)


def cvx_residuals(S, D, gap_tolerance=1e-11, max_iterations=200_000) -> np.ndarray:
    """Squared residual of each column of D after a simplex-constrained fit on S.

    Accelerated projected gradient (FISTA with adaptive restart) on the Gram
    form of the objective, all columns at once.  A column stops when its
    Frank-Wolfe gap, an upper bound on its distance to the optimum, falls
    below ``gap_tolerance`` times its objective.  Raises if any column does
    not reach that within ``max_iterations``, because an uncertified
    reference could not judge the program.
    """
    Sf = S.astype(np.float64)
    Df = D.astype(np.float64)
    j = Sf.shape[1]
    k = Df.shape[1]
    G = Sf.T @ Sf
    B = Sf.T @ Df
    zz = np.sum(Df * Df, axis=0)
    step = 1.0 / np.linalg.eigvalsh(G)[-1]

    X = np.full((j, k), 1.0 / j)
    Y = X.copy()
    t = np.ones(k)
    f = _gram_objective(zz, B, G, X, np.arange(k))
    active = np.arange(k)
    for _ in range(max_iterations):
        Xa = X[:, active]
        grad = G @ Y[:, active] - B[:, active]
        Xn = project_simplex_columns(Y[:, active] - step * grad)
        fn = _gram_objective(zz, B, G, Xn, active)
        # a step that raised the objective (beyond rounding) is dropped and
        # momentum restarts
        restart = fn > f[active] * (1.0 + 1e-12)
        Xn[:, restart] = Xa[:, restart]
        fn[restart] = f[active][restart]
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t[active] ** 2))
        Yn = Xn + ((t[active] - 1.0) / tn) * (Xn - Xa)
        Yn[:, restart] = Xn[:, restart]
        tn[restart] = 1.0
        X[:, active], Y[:, active], t[active], f[active] = Xn, Yn, tn, fn
        g = G @ Xn - B[:, active]
        gap = 2.0 * (np.sum(g * Xn, axis=0) - g.min(axis=0))
        done = gap <= gap_tolerance * np.maximum(fn, 1.0)
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise RuntimeError(f"reference simplex solve left {active.size} columns uncertified")
    return np.sum((Sf @ X - Df) ** 2, axis=0)


def _gram_objective(zz, B, G, R, cols):
    return zz[cols] - 2.0 * np.sum(B[:, cols] * R, axis=0) + np.sum(R * (G @ R), axis=0)


def uniform_attributes(n, count, seed) -> np.ndarray:
    """The protocol's uniform random attribute draw for one derived seed."""
    bits = np.random.default_rng(seed).integers(0, 2, size=(n, count))
    return (2 * bits - 1).astype(np.int8)


def split_report(S, methods, seed, left_fraction=0.5) -> dict:
    """Expected ``bench split-validate`` report (minus meta and convergence flags).

    ``methods`` is a list of (name, matrix).  Follows the documented
    protocol: a seeded permutation keeps ceil(left_fraction * J) columns,
    the rest are held out, and the random anchor is size-matched to the
    widest method and drawn from seed + 10007.
    """
    n, j = S.shape
    left = math.ceil(left_fraction * j)
    perm = np.random.default_rng(seed).permutation(j)
    retained, held_out = S[:, perm[:left]], S[:, perm[left:]]
    rand_cols = max(Z.shape[1] for _, Z in methods)
    entries = [
        ("MeaningfulAttributeSet", held_out),
        ("NonMeaningfulAttributeSet", uniform_attributes(n, rand_cols, seed + SEED_STRIDE)),
        *methods,
    ]
    resid = cvx_residuals(retained, np.concatenate([Z for _, Z in entries], axis=1))
    rows = {}
    start = 0
    for name, Z in entries:
        mean = float(resid[start : start + Z.shape[1]].mean())
        start += Z.shape[1]
        rows[name] = {"columns": Z.shape[1], "mean_distance": mean, "normalized_distance": mean / n}
    return {
        "seed": seed,
        "left_fraction": left_fraction,
        "n_instances": n,
        "retained_columns": left,
        "held_out_columns": j - left,
        "rows": rows,
    }


def noise_curve(D, S, max_noise, step, trials, seed) -> dict:
    """Expected ``bench noise-curve`` distances.

    D's own residuals do not depend on the noise appended to it, so they are
    solved once; every (count, trial) noise draw is solved in one batch.
    """
    n, k = D.shape
    counts = list(range(0, max_noise + 1, step))
    draws = [
        uniform_attributes(n, t, seed + t * SEED_STRIDE + trial)
        for t in counts[1:]
        for trial in range(trials)
    ]
    resid = cvx_residuals(S, np.concatenate([D, *draws], axis=1))
    base, noise = resid[:k], resid[k:]
    distances = [float(base.mean())]
    start = 0
    for t in counts[1:]:
        vals = []
        for _ in range(trials):
            vals.append(float(np.concatenate([base, noise[start : start + t]]).mean()))
            start += t
        distances.append(float(np.mean(vals)))
    return {"counts": counts, "distances": distances, "trials": trials, "seed": seed}


# ---------------------------------------------------------------------------
# frozen coders


def lift(F) -> np.ndarray:
    """Intersection-kernel feature map, order 1, period 0.65."""
    period = 0.65
    n, d = F.shape
    out = np.zeros((n, 3 * d))
    pos = F > 0.0
    logF = np.zeros_like(F)
    logF[pos] = np.log(F[pos])
    out[:, 0::3] = np.sqrt(F * period * (2.0 / np.pi))
    amp = np.zeros_like(F)
    amp[pos] = np.sqrt(2.0 * F[pos] * period * ((2.0 / np.pi) / (1.0 + 4.0 * period**2)))
    phase = period * logF
    cos_block = amp * np.cos(phase)
    sin_block = amp * np.sin(phase)
    cos_block[~pos] = 0.0
    sin_block[~pos] = 0.0
    out[:, 1::3] = cos_block
    out[:, 2::3] = sin_block
    return out


def fit_pca(F, d):
    """(mean, basis (D, d), explained variance) with the sign of each axis fixed."""
    mean = F.mean(axis=0)
    _, s, Vt = np.linalg.svd(F - mean, full_matrices=False)
    Vt = Vt[:d]
    anchors = np.argmax(np.abs(Vt), axis=1)
    signs = np.sign(Vt[np.arange(d), anchors])
    signs[signs == 0] = 1.0
    Vt = Vt * signs[:, None]
    return mean, Vt.T.copy(), (s[:d] ** 2) / (F.shape[0] - 1)


def lift_and_pca(F, pca_keep):
    """What ``discover --lift --pca-keep`` feeds the coder."""
    F = lift(F)
    mean, basis, _ = fit_pca(F, int(np.ceil(pca_keep * F.shape[1])))
    return (F - mean) @ basis


def sign_codes(resp):
    return np.where(resp >= 0.0, 1, -1).astype(np.int8)


def lsh(F, bits, seed):
    """Returns (codes, responses, model payload)."""
    W = np.random.default_rng(seed).standard_normal((bits, F.shape[1]))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    resp = F @ W.T
    return sign_codes(resp), resp, {"hyperplanes": W}


def sh(F, bits):
    """Spectral hashing: returns (codes, responses, model payload)."""
    d = min(F.shape[1], bits)
    mean, basis, variance = fit_pca(F, d)
    P = (F - mean) @ basis
    lo, hi = P.min(axis=0), P.max(axis=0)
    candidates = []
    for direction in range(d):
        span = hi[direction] - lo[direction]
        if span <= 0.0:
            continue
        for k in range(1, bits + 1):
            candidates.append(((k * np.pi / span) ** 2, direction, k))
    candidates.sort()
    chosen = candidates[:bits]
    modes = np.asarray([(direction, k) for _, direction, k in chosen], dtype=np.int64)
    resp = np.empty((F.shape[0], bits))
    for col, (direction, k) in enumerate(modes):
        t = (P[:, direction] - lo[direction]) / (hi[direction] - lo[direction])
        resp[:, col] = np.sin(np.pi / 2.0 + k * np.pi * t)
    payload = {
        "pca": {"mean": mean, "basis": basis, "explained_variance": variance},
        "ranges": np.column_stack([lo, hi]),
        "modes": modes,
        "eigenvalues": np.asarray([np.exp(-0.5 * w2) for w2, _, _ in chosen]),
    }
    return sign_codes(resp), resp, payload


def _fit_hinge(X, y, lam, lr, steps=300):
    n, d = X.shape
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = (X - mu) / sd
    w = np.zeros(d)
    b = 0.0
    for t in range(1, steps + 1):
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


def mmc(F, y, bits, seed, lam=1e-4, epochs=20, lr=0.1):
    """Max-margin coder: returns (codes, responses, model payload)."""
    classes = np.unique(y)
    n, d = F.shape
    c = classes.shape[0]
    init_codes, _, _ = lsh(F, bits, seed)
    B = init_codes.astype(np.float64)
    Y = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
    H = np.zeros((bits, d + 1))
    for _ in range(epochs):
        Wc = np.empty((c, bits))
        bc = np.empty(c)
        for ci in range(c):
            Wc[ci], bc[ci] = _fit_hinge(B, Y[:, ci], lam, lr)
        for ki in range(bits):
            H[ki, :d], H[ki, d] = _fit_hinge(F, B[:, ki], lam, lr)
        scores = B @ Wc.T + bc
        loss_rows = np.maximum(0.0, 1.0 - Y * scores).sum(axis=1)
        for i in range(n):
            for ki in range(bits):
                delta = -2.0 * B[i, ki] * Wc[:, ki]
                flipped = np.maximum(0.0, 1.0 - Y[i] * (scores[i] + delta)).sum()
                if flipped < loss_rows[i] - 1e-12:
                    B[i, ki] = -B[i, ki]
                    scores[i] += delta
                    loss_rows[i] = flipped
    resp = F @ H[:, :-1].T + H[:, -1]
    payload = {
        "hyperplanes": H,
        "classes": classes,
        "hyperparams": {"regularization": lam, "epochs": epochs, "learning_rate": lr},
    }
    return sign_codes(resp), resp, payload


# ---------------------------------------------------------------------------
# keywords


def keyword_report(Z, names) -> dict:
    """Expected ``keywords generate`` document; ``names`` maps bit -> raw name."""
    groups = {}  # canonical name -> (surface form, member bits), first occurrence order
    for bit in sorted(names):
        surface = names[bit].strip()
        if not surface:
            continue
        key = surface.casefold()
        if key in groups:
            groups[key][1].append(bit)
        else:
            groups[key] = (surface, [bit])
    fires = np.stack([(Z[:, members] == 1).any(axis=1) for _, members in groups.values()], axis=1)
    surfaces = [surface for surface, _ in groups.values()]
    items = {str(i): [surfaces[g] for g in np.flatnonzero(row)] for i, row in enumerate(fires)}
    return {"vocabulary": surfaces, "items": items}


def hit_report(report, judgments, actions) -> dict:
    """Expected ``keywords evaluate`` document (minus meta)."""
    per_word = {word: [0, 0] for word in report["vocabulary"]}
    per_action = {action: [0, 0] for action in sorted(set(actions.values()))}
    emitted = suitable = 0
    for item, words in report["items"].items():
        for word in words:
            hit = judgments[(item, word)]
            emitted += 1
            suitable += hit
            per_word[word][0] += hit
            per_word[word][1] += 1
            per_action[actions[item]][0] += hit
            per_action[actions[item]][1] += 1

    def rate(hits, total):
        return hits / total if total else None

    return {
        "overall": rate(suitable, emitted),
        "emitted": emitted,
        "suitable": suitable,
        "per_keyword": {w: rate(*hc) for w, hc in per_word.items()},
        "per_action": {a: rate(*hc) for a, hc in per_action.items()},
    }
