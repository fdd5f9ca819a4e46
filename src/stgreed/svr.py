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


def _rbf(gamma, a, b):
    d = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(d, 0.0))


@dataclass(frozen=True)
class SmoResult:
    """One SMO solve: the dual solution and the work it took.

    converged is True when the loop stopped on gap <= _SMO_TOL (or an empty
    up/low set), False when it ran out of max_iter steps.
    """

    beta: np.ndarray
    bias: float
    iterations: int
    converged: bool


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

    Returns an SmoResult with beta = alpha - alpha*.
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
        gap = v_up.item(i) - v_low.item(j)  # -inf when either set is empty
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

    bias = np.mean(y) if np.isinf(gap) else 0.5 * (v_up[i] + v_low[j])
    lam = np.array(lam)
    return SmoResult(lam[:n] - lam[n:], float(bias), it, gap <= _SMO_TOL)


def train_svr(features, labels, hyperparams, fingerprint=""):
    """Train an RBF epsilon-SVR on standardized features.

    hyperparams is (C, epsilon, kernel_gamma). A degenerate all-equal label
    set yields a constant-predicting model with no support vectors, which
    reports 0 SMO iterations and converged.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and labels must be finite")
    C, epsilon, gamma = (float(v) for v in hyperparams)

    shift = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xn = (X - shift) / scale

    empty = np.zeros((0, X.shape[1]))
    if np.ptp(y) == 0.0:
        return SvrModel(empty, np.zeros(0), float(y[0]), shift, scale,
                        (C, epsilon, gamma), fingerprint, (0, True))

    fit = _solve_smo(_rbf(gamma, Xn, Xn), y, C, epsilon)
    sv = np.abs(fit.beta) > 1e-12
    return SvrModel(Xn[sv].copy(), fit.beta[sv].copy(), fit.bias, shift, scale,
                    (C, epsilon, gamma), fingerprint, (fit.iterations, fit.converged))


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


def grid_search(train_xy, val_xy, grid=None):
    """Pick the (C, epsilon, kernel_gamma) maximizing validation rank correlation.

    Ties break toward smaller C, then larger epsilon.
    """
    from .evaluate import srocc

    grid = DEFAULT_GRID if grid is None else list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    X_tr, y_tr = train_xy
    X_val, y_val = val_xy

    def key(hp):
        C, eps, _ = hp
        score = srocc(predict(train_svr(X_tr, y_tr, hp), X_val), y_val)
        return (-np.inf if score is None else score, -C, eps)

    return tuple(max(grid, key=key))  # the first entry of a full tie


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
        n_dim = len(payload["feature_shift"])
        sv = np.array(payload["support_vectors"], dtype=np.float64).reshape(-1, n_dim)
        model = SvrModel(
            support_vectors=sv,
            dual_coeffs=np.array(payload["dual_coeffs"], dtype=np.float64),
            bias=float(payload["bias"]),
            feature_shift=np.array(payload["feature_shift"], dtype=np.float64),
            feature_scale=np.array(payload["feature_scale"], dtype=np.float64),
            hyperparams=tuple(map(float, payload["hyperparams"])),
            fingerprint=payload.get("fingerprint", ""),
        )
        _, _, gamma = model.hyperparams
        if float(payload["kernel_gamma"]) != gamma:
            raise ValueError("kernel_gamma differs from hyperparams[2]")
    except KeyError as e:
        raise ValueError(f"{path}: model file lacks field {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed model file: {e}") from e
    return model
