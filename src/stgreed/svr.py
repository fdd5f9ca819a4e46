"""Epsilon-SVR with RBF kernel: SMO training, prediction, grid search, serialization."""

import json
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT = "stgreed-svr"
MODEL_VERSION = 1
_SMO_TOL = 1e-3  # the SMO loop stops once the violating pair's gap is at most this

DEFAULT_GRID = [(C, eps, g)
                for C in (1.0, 10.0, 100.0, 1000.0)
                for eps in (0.1, 1.0, 2.0)
                for g in (2.0 ** e for e in range(-6, 3))]


@dataclass(frozen=True)
class SvrModel:
    support_vectors: np.ndarray  # (n_sv, d), standardized
    dual_coeffs: np.ndarray      # (n_sv,)
    bias: float
    feature_shift: np.ndarray
    feature_scale: np.ndarray
    hyperparams: tuple           # (C, epsilon, kernel_gamma)
    fingerprint: str = ""
    smo: tuple = None            # (iterations, converged) of the fit; not saved


def _sq_dist(a, b):
    d = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def _rbf(gamma, a, b):
    return np.exp(-gamma * _sq_dist(a, b))


def _solve_smo(K, y, C, epsilon, max_iter=200000):
    """Two-coordinate dual ascent with most-violating-pair selection.

    The variables are the stacked (alpha, alpha*) vector lam, each entry
    boxed in [0, C]; entry t belongs to training row t % n and has sign
    s_t = +1 for t < n, -1 otherwise. The equality constraint
    sum(alpha - alpha*) = 0 is preserved exactly by every update.

    The loop state is the score v = -s * G (G the dual gradient) in two
    masked copies, the rows of one (2, 2n) array: v_up holds v_t where t may
    move up (lam_t < C for s_t > 0, lam_t > 0 for s_t < 0) and -inf
    elsewhere, v_low holds v_t where t may move down and +inf elsewhere.
    Because C > 0 every entry is in at least one set, so one copy always
    holds v_t. A step on the pair (i, j) moves every half of both copies by
    the same d = (K[:, p_i] - K[:, p_j]) * u, and +-inf entries stay
    +-inf. Only entries i and j can change sets: i, which moved up, can
    leave the up set and join the low set, and j the other way round. So a
    step is one kernel row difference, one in-place subtraction and two
    re-masked entries.

    Every step is positive, so the loop needs no zero-step exit: the pair
    has gap > _SMO_TOL > 0, the curvature is floored at 1e-12, and both box
    bounds are positive because i is in the up set (C - lam_i > 0 or
    lam_i > 0) and j is in the low set.

    Neither set is ever empty, so the loop needs no empty-set exit: an empty
    up set would need every alpha_t = C and every alpha*_t = 0, so
    sum(alpha - alpha*) = nC > 0, which no update allows. The same argument
    covers the low set.

    Returns (beta, bias, iterations, converged) with beta = alpha - alpha*;
    converged is True when the loop stopped on gap <= _SMO_TOL, False when
    it ran out of max_iter steps.
    """
    n = len(y)
    Kr = np.ascontiguousarray(K.T)  # Kr[p] is column p of K, read as a row
    diag = K.diagonal().tolist()
    lam = [0.0] * (2 * n)
    # v = -s * G with G_t = s_t * ((K beta)_p - y_p) + epsilon; at beta = 0
    # the up set is the alpha half and the low set the alpha* half
    v = -np.concatenate([np.ones(n), -np.ones(n)]) * (np.concatenate([-y, y]) + epsilon)
    scores = np.array([np.concatenate([v[:n], np.full(n, -np.inf)]),
                       np.concatenate([np.full(n, np.inf), v[n:]])])
    v_up, v_low = scores
    halves = scores.reshape(4, n)

    for it in range(max_iter + 1):
        i, j = int(v_up.argmax()), int(v_low.argmin())
        gap = v_up.item(i) - v_low.item(j)
        if it == max_iter or gap <= _SMO_TOL:
            break
        pi, pj = i % n, j % n
        a = diag[pi] + diag[pj] - 2.0 * Kr.item(pj, pi)
        u_max_i = C - lam[i] if i < n else lam[i]
        u_max_j = lam[j] if j < n else C - lam[j]
        u = min(max(gap / max(a, 1e-12), 0.0), u_max_i, u_max_j)
        lam[i] += u if i < n else -u
        lam[j] -= u if j < n else -u
        d = Kr[pi] - Kr[pj]
        d *= u
        halves -= d
        # v_i now sits in v_up and v_j in v_low
        li, lj = lam[i], lam[j]
        if (li > 0.0) if i < n else (li < C):
            v_low[i] = v_up[i]
        if not ((li < C) if i < n else (li > 0.0)):
            v_up[i] = -np.inf
        if (lj < C) if j < n else (lj > 0.0):
            v_up[j] = v_low[j]
        if not ((lj > 0.0) if j < n else (lj < C)):
            v_low[j] = np.inf

    lam = np.array(lam)
    return lam[:n] - lam[n:], float(0.5 * (v_up[i] + v_low[j])), it, gap <= _SMO_TOL


def _standardize(features, labels):
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and labels must be finite")
    shift = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return (X - shift) / scale, y, shift, scale


def _fit(K, Xn, y, shift, scale, hyperparams, fingerprint=""):
    C, epsilon, gamma = hyperparams
    if np.ptp(y) == 0.0:
        return SvrModel(np.zeros((0, Xn.shape[1])), np.zeros(0), float(y[0]), shift, scale,
                        (C, epsilon, gamma), fingerprint, (0, True))
    beta, bias, iterations, converged = _solve_smo(K, y, C, epsilon)
    sv = np.abs(beta) > 1e-12
    return SvrModel(Xn[sv].copy(), beta[sv].copy(), bias, shift, scale,
                    (C, epsilon, gamma), fingerprint, (iterations, converged))


def train_svr(features, labels, hyperparams, fingerprint=""):
    """Train an RBF epsilon-SVR on standardized features.

    hyperparams is (C, epsilon, kernel_gamma). A degenerate all-equal label
    set yields a constant-predicting model with no support vectors, which
    reports 0 SMO iterations and converged.
    """
    Xn, y, shift, scale = _standardize(features, labels)
    hp = tuple(float(v) for v in hyperparams)
    return _fit(_rbf(hp[2], Xn, Xn), Xn, y, shift, scale, hp, fingerprint)


def predict(model, x):
    """Predict quality for one 16-D feature vector (or a batch of rows)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature input")
    xn = (x - model.feature_shift) / model.feature_scale
    # With no support vectors K is (m, 0) and K @ dual_coeffs is zeros.
    K = _rbf(model.hyperparams[2], xn, model.support_vectors)
    out = K @ model.dual_coeffs + model.bias
    return float(out[0]) if single else out


def _grid_point(fits, k):
    """Fit grid point k on the shared training rows; returns (k, its key).

    fits is (dist, Xn, y, shift, scale, X_val, y_val, points, kernel), and
    kernel holds exp(-gamma * dist) for the last gamma this process fitted.
    """
    from .evaluate import srocc

    dist, Xn, y, shift, scale, X_val, y_val, points, kernel = fits
    C, epsilon, gamma = hp = points[k]
    if gamma not in kernel:
        kernel.clear()  # free the last gamma's kernel before building this one
        kernel[gamma] = np.exp(-gamma * dist)
    score = srocc(predict(_fit(kernel[gamma], Xn, y, shift, scale, hp), X_val), y_val)
    return k, (-np.inf if score is None else score, -C, epsilon)


_worker_fits = None  # a pool worker's grid_search arguments, set at its start


def _init_worker(fits):
    global _worker_fits
    _worker_fits = fits


def _pooled_grid_point(k):
    return _grid_point(_worker_fits, k)


def _fit_points(fits, order, jobs):
    """Yield _grid_point's (k, key) for each k in order.

    With jobs > 1 the fits run in that many forked processes, which inherit
    fits instead of unpickling it. They run here where the platform cannot
    fork, and where another thread runs: a child holds only the forking
    thread, so a lock another thread held would stay locked in it.
    """
    if jobs > 1:
        # Not at module level: these add ~20 ms to `import stgreed`.
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            # A worker that dies mid-fit raises BrokenProcessPool here; a
            # multiprocessing.Pool would wait for its result forever.
            with ProcessPoolExecutor(jobs, multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=(fits,)) as pool:
                yield from pool.map(_pooled_grid_point, order)
            return
    for k in order:
        yield _grid_point(fits, k)


def grid_search(train_xy, val_xy, grid=None):
    """Pick the (C, epsilon, kernel_gamma) maximizing validation rank correlation.

    Ties break toward smaller C, then larger epsilon. One worker process per
    core this process may run on (os.sched_getaffinity; 1 where the platform
    cannot tell), and no more than the grid has points, fits the grid points,
    the slowest first. The pick does not depend on the worker count.
    """
    import os

    grid = DEFAULT_GRID if grid is None else list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    X_val, y_val = val_xy
    Xn, y, shift, scale = _standardize(*train_xy)
    # Every fit trains on the same rows: standardize them and take their
    # squared distances once. Small gamma, then large C, takes the most SMO
    # steps: fit in that order, so that the last fit to finish is a short
    # one and each process builds each gamma's kernel once, holding one.
    points = [tuple(float(v) for v in hp) for hp in grid]
    fits = (_sq_dist(Xn, Xn), Xn, y, shift, scale, X_val, y_val, points, {})
    order = sorted(range(len(points)), key=lambda k: (points[k][2], -points[k][0]))
    keys = [None] * len(grid)
    for k, key in _fit_points(fits, order, min(jobs, len(points))):
        keys[k] = key
    best = max(range(len(grid)), key=keys.__getitem__)  # the first entry of a full tie
    return tuple(grid[best])


def save_model(model, path):
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "fingerprint": model.fingerprint,
        "hyperparams": list(model.hyperparams),
        "kernel_gamma": model.hyperparams[2],
        "bias": model.bias,
        "feature_shift": list(map(float, model.feature_shift)),
        "feature_scale": list(map(float, model.feature_scale)),
        "dual_coeffs": list(map(float, model.dual_coeffs)),
        "support_vectors": [list(map(float, row)) for row in model.support_vectors],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")


def load_model(path):
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: line {e.lineno}: not a valid model file: {e.msg}") from e
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} model file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(
            f"{path}: unsupported model version {payload.get('version')!r} "
            f"(expected {MODEL_VERSION})")
    try:
        d = len(payload["feature_shift"])
        sv = np.array(payload["support_vectors"], dtype=np.float64)
        if sv.size == 0:  # no support vectors: a constant model
            sv = sv.reshape(0, d)
        model = SvrModel(
            support_vectors=sv,
            dual_coeffs=np.array(payload["dual_coeffs"], dtype=np.float64),
            bias=float(payload["bias"]),
            feature_shift=np.array(payload["feature_shift"], dtype=np.float64),
            feature_scale=np.array(payload["feature_scale"], dtype=np.float64),
            hyperparams=tuple(map(float, payload["hyperparams"])),
            fingerprint=payload.get("fingerprint", ""),
        )
        numbers = (sv, model.dual_coeffs, model.bias, model.feature_shift,
                   model.feature_scale, model.hyperparams)
        if not all(np.isfinite(a).all() for a in numbers):
            raise ValueError("numbers must be finite")
        if not (model.feature_scale > 0).all():
            raise ValueError("feature_scale must be > 0")
        if sv.shape != (len(model.dual_coeffs), d):
            raise ValueError(f"support_vectors must be ({len(model.dual_coeffs)}, {d}), got {sv.shape}")
        if model.feature_scale.shape != (d,):
            raise ValueError(f"feature_scale must be ({d},), got {model.feature_scale.shape}")
        _, _, gamma = model.hyperparams
        if float(payload["kernel_gamma"]) != gamma:
            raise ValueError("kernel_gamma differs from hyperparams[2]")
    except KeyError as e:
        raise ValueError(f"{path}: model file lacks field {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed model file: {e}") from e
    return model
