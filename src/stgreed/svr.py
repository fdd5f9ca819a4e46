"""Epsilon-SVR with RBF kernel: SMO training, prediction, grid search, serialization."""

import json
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT = "stgreed-svr"
MODEL_VERSION = 1
_SMO_TOL = 1e-3  # the SMO loop stops once the violating pair's gap is at most this
_FACE_EVERY = 300  # SMO steps between two face steps
_FACE_ROUNDS = 10  # blocked moves, each pinning one row, per face step
_CG_ITERS = 20     # kernel matvecs per round of a face step's conjugate gradients

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
    smo: tuple = None            # (iterations, converged, last gap) of the fit; not saved


def _sq_dist(a, b):
    d = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def _rbf(gamma, a, b):
    return np.exp(-gamma * _sq_dist(a, b))


def _dual(beta, K_beta, y, epsilon):
    """The dual objective 0.5 beta'K beta - y'beta + epsilon |beta|_1, to minimize."""
    return 0.5 * (beta @ K_beta) - y @ beta + epsilon * np.abs(beta).sum()


def _face_step(K, y, C, epsilon, beta):
    """Minimize the dual over the face of beta's free rows.

    The face is the free rows F (0 < |beta_p| < C) with their signs held,
    the bound rows held and sum(beta) kept, so on it the dual is a quadratic
    with gradient (K beta - y + epsilon sign(beta))_F. Each round runs
    projected conjugate gradients (at most _CG_ITERS matvecs with K_FF, from
    the current beta_F) toward the face's minimum, moves toward that point
    and stops the move at the first row to reach 0 or C in magnitude; that
    row is pinned there and the next round works on the rest (More &
    Toraldo, "On the solution of large quadratic programming problems with
    bound constraints", SIAM J. Optim. 1991). A round whose move reaches its
    point, or _FACE_ROUNDS rounds, end the step.

    Only matvecs: a LAPACK solve of K_FF gives other bytes under another
    BLAS thread count. Returns (beta, K @ beta) for the new point if it
    lowers the dual objective, else None.
    """
    K_beta = K @ beta
    free = np.flatnonzero((beta != 0.0) & (np.abs(beta) < C))
    if len(free) < 2:
        return None
    sign = np.sign(beta[free])
    lo = np.where(sign > 0.0, 0.0, -C)
    hi = lo + C
    A = K[np.ix_(free, free)]
    b = beta[free]
    g = K_beta[free] - y[free] + epsilon * sign
    on = np.ones(len(free))  # 1.0 on rows not yet pinned
    m = len(free)

    def project(v):  # onto the moves with no pinned row and a zero sum
        v = on * v
        return v - on * (v.sum() / m)

    for _ in range(_FACE_ROUNDS):
        r = -project(g)
        d, Ad, p, rr = np.zeros(len(free)), np.zeros(len(free)), r, r @ r
        for _ in range(_CG_ITERS):
            # The free rows' scores then differ by at most _SMO_TOL / 2.
            if np.abs(r).max() <= 0.25 * _SMO_TOL:
                break
            Ap = A @ p
            pAp = p @ Ap
            if not pAp > 0.0:  # no curvature left along p (duplicated rows)
                break
            a = rr / pAp
            d += a * p
            Ad += a * Ap
            r = r - a * project(Ap)
            rr, rr_old = r @ r, rr
            p = r + (rr / rr_old) * p
        d = project(d)  # sum(d) drifts from 0 over the iterations
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(d > 0.0, (hi - b) / d, np.where(d < 0.0, (lo - b) / d, np.inf))
        k = int(reach.argmin())
        t = min(reach[k], 1.0)
        b = np.clip(b + t * d, lo, hi)
        g = g + t * Ad
        if t == 1.0:
            break
        b[k] = hi[k] if d[k] > 0.0 else lo[k]
        on[k] = 0.0
        m -= 1  # one row left cannot move: its round reaches its point

    new = beta.copy()
    new[free] = b
    K_new = K @ new
    if _dual(new, K_new, y, epsilon) < _dual(beta, K_beta, y, epsilon):
        return new, K_new
    return None


def _smo_state(beta, K_beta, y, C, epsilon):
    """_solve_smo's loop state for beta: lam and the (2, 2n) masked scores.

    v = u - epsilon on the alpha half and u + epsilon on the -alpha* half,
    with u = y - K beta; see _solve_smo for the boxes and the masks.
    """
    alpha = np.maximum(beta, 0.0)
    lam = np.concatenate([alpha, beta - alpha])  # beta - alpha = -alpha*, exactly
    lo, hi = np.repeat([0.0, -C], len(y)), np.repeat([C, 0.0], len(y))
    u = y - K_beta
    v = np.concatenate([u - epsilon, u + epsilon])
    return lam.tolist(), np.array([np.where(lam < hi, v, -np.inf), np.where(lam > lo, v, np.inf)])


def _solve_smo(K, y, C, epsilon, max_iter=200000, beta0=None):
    """Two-coordinate dual ascent with most-violating-pair selection.

    The variables are the stacked (alpha, -alpha*) vector lam, entry t
    belonging to training row t % n and boxed in [lo_t, hi_t]: [0, C] on
    the alpha half, [-C, 0] on the -alpha* half. Then beta = alpha - alpha*
    is lam[:n] + lam[n:], and every update, which moves one entry up and
    another down by the same amount, keeps the equality constraint
    sum(beta) = 0, up to rounding.

    The loop state is the score v = -G (G the dual's gradient in lam) in
    two masked copies, the rows of one (2, 2n) array: v_up holds v_t where
    t may move up (lam_t < hi_t) and -inf elsewhere, v_low holds v_t where
    t may move down (lam_t > lo_t) and +inf elsewhere. Because C > 0 every
    entry is in at least one set, so one copy always holds v_t. A step on
    the pair (i, j) adds u to lam_i and takes u from lam_j, and moves every
    half of both copies by the same d = (K[:, p_i] - K[:, p_j]) * u; +-inf
    entries stay +-inf. Only entries i and j can change sets: i, which
    moved up, can leave the up set and join the low set, and j the other
    way round. So a step is one kernel row difference, one in-place
    subtraction and two re-masked entries.

    Every step is positive, so the loop needs no zero-step exit: the pair
    has gap > _SMO_TOL > 0, the curvature is floored at 1e-12, and both box
    room hi_i - lam_i and lam_j - lo_j are positive because i is in the up
    set and j in the low set.

    Neither set is ever empty, so the loop needs no empty-set exit: an empty
    up set would need every lam_t = hi_t, that is every alpha_t = C and
    every alpha*_t = 0, so sum(beta) = nC > 0, which no update allows. The
    same argument covers the low set.

    Pair steps zigzag where C is large and the kernel ill-conditioned, with
    most rows strictly inside their box. So after every _FACE_EVERY steps
    the loop takes one face step (_face_step) and, if that lowered the
    dual objective, rebuilds lam and both score copies from the new beta
    and K @ beta (_smo_state); the pair steps then go on from there. A fit
    of fewer than _FACE_EVERY steps takes no face step, and one of
    `iterations` steps takes iterations // _FACE_EVERY of them.

    The loop starts from beta0, or from beta = 0 when it is None. beta0
    must be feasible for this C: |beta0| <= C and sum(beta0) = 0, as any
    solution for the same K, y and C is, whatever its epsilon.

    Returns (beta, bias, iterations, gap) with beta = alpha - alpha* and
    gap the last violating pair's; the loop stopped on gap <= _SMO_TOL
    (converged) or ran out of max_iter steps.
    """
    n = len(y)
    Kr = np.ascontiguousarray(K.T)  # Kr[p] is column p of K, read as a row
    diag = K.diagonal().tolist()
    lo, hi = [0.0] * n + [-C] * n, [C] * n + [0.0] * n
    beta = np.zeros(n) if beta0 is None else beta0
    lam, scores = _smo_state(beta, K @ beta, y, C, epsilon)
    v_up, v_low = scores
    halves = scores.reshape(4, n)

    for it in range(max_iter + 1):
        if it and not it % _FACE_EVERY:
            lam_a = np.array(lam)
            face = _face_step(K, y, C, epsilon, lam_a[:n] + lam_a[n:])
            if face is not None:
                lam, scores[:] = _smo_state(*face, y, C, epsilon)
        i, j = int(v_up.argmax()), int(v_low.argmin())
        gap = v_up.item(i) - v_low.item(j)
        if it == max_iter or gap <= _SMO_TOL:
            break
        pi, pj = i % n, j % n
        a = diag[pi] + diag[pj] - 2.0 * Kr.item(pj, pi)
        u = min(gap / max(a, 1e-12), hi[i] - lam[i], lam[j] - lo[j])
        lam[i] += u
        lam[j] -= u
        d = Kr[pi] - Kr[pj]
        d *= u
        halves -= d
        # v_i now sits in v_up and v_j in v_low
        if lam[i] > lo[i]:
            v_low[i] = v_up[i]
        if not lam[i] < hi[i]:
            v_up[i] = -np.inf
        if lam[j] < hi[j]:
            v_up[j] = v_low[j]
        if not lam[j] > lo[j]:
            v_low[j] = np.inf

    lam = np.array(lam)
    return lam[:n] + lam[n:], float(0.5 * (v_up[i] + v_low[j])), it, gap


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


def _check_hyperparams(C, epsilon, gamma):
    """Raise unless C and kernel_gamma are finite and > 0 and epsilon is finite and >= 0."""
    if not 0 < C < np.inf:
        raise ValueError(f"C must be finite and > 0, got {C}")
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"kernel_gamma must be finite and > 0, got {gamma}")


def _fit(K, Xn, y, shift, scale, hyperparams, fingerprint="", beta0=None):
    """Fit one model on kernel K, from beta0 (see _solve_smo); returns (model, beta)."""
    C, epsilon, gamma = hyperparams
    if np.ptp(y) == 0.0:
        return SvrModel(np.zeros((0, Xn.shape[1])), np.zeros(0), float(y[0]), shift, scale,
                        (C, epsilon, gamma), fingerprint, (0, True, 0.0)), np.zeros(len(y))
    beta, bias, iterations, gap = _solve_smo(K, y, C, epsilon, beta0=beta0)
    sv = np.abs(beta) > 1e-12
    return SvrModel(Xn[sv].copy(), beta[sv].copy(), bias, shift, scale, (C, epsilon, gamma),
                    fingerprint, (iterations, gap <= _SMO_TOL, gap)), beta


def train_svr(features, labels, hyperparams, fingerprint=""):
    """Train an RBF epsilon-SVR on standardized features.

    hyperparams is (C, epsilon, kernel_gamma). A degenerate all-equal label
    set yields a constant-predicting model with no support vectors, which
    reports 0 SMO iterations, converged and a gap of 0.
    """
    hp = tuple(float(v) for v in hyperparams)
    _check_hyperparams(*hp)
    Xn, y, shift, scale = _standardize(features, labels)
    return _fit(_rbf(hp[2], Xn, Xn), Xn, y, shift, scale, hp, fingerprint)[0]


def predict(model, x):
    """Predict quality for one 16-D feature vector (or a batch of rows)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[-1] != len(model.feature_shift):
        raise ValueError(f"got {x.shape[-1]} feature values, model takes "
                         f"{len(model.feature_shift)}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature input")
    xn = (x - model.feature_shift) / model.feature_scale
    # With no support vectors K is (m, 0) and K @ dual_coeffs is zeros.
    K = _rbf(model.hyperparams[2], xn, model.support_vectors)
    out = K @ model.dual_coeffs + model.bias
    return float(out[0]) if single else out


def _grid_chain(fits, chain):
    """Fit the grid points chain lists, each from the last one's beta; returns [(k, key, smo)].

    The points of a chain share C and gamma, so each fit's solution is a
    feasible start for the next (see _solve_smo). fits is (dist, Xn, y,
    shift, scale, X_val, y_val, points, kernel), and kernel holds
    exp(-gamma * dist) for the last gamma this process fitted.
    """
    from .evaluate import srocc

    dist, Xn, y, shift, scale, X_val, y_val, points, kernel = fits
    gamma = points[chain[0]][2]
    if gamma not in kernel:
        kernel.clear()  # free the last gamma's kernel before building this one
        kernel[gamma] = np.exp(-gamma * dist)
    out, beta = [], None
    for k in chain:
        C, epsilon, _ = hp = points[k]
        model, beta = _fit(kernel[gamma], Xn, y, shift, scale, hp, beta0=beta)
        score = srocc(predict(model, X_val), y_val)
        out.append((k, (-np.inf if score is None else score, -C, epsilon), model.smo))
    return out


_worker_fits = None  # a pool worker's grid_search arguments, set at its start


def _init_worker(fits):
    global _worker_fits
    _worker_fits = fits


def _pooled_grid_chain(chain):
    return _grid_chain(_worker_fits, chain)


def _fit_chains(fits, chains, jobs):
    """Yield _grid_chain's list for each chain in chains, in that order.

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
                yield from pool.map(_pooled_grid_chain, chains)
            return
    for chain in chains:
        yield _grid_chain(fits, chain)


def grid_search(train_xy, val_xy, grid=None, work=None):
    """Pick the (C, epsilon, kernel_gamma) maximizing validation rank correlation.

    Ties break toward smaller C, then larger epsilon. The points of one
    (C, kernel_gamma) are fitted as one chain, in descending epsilon, each
    fit starting from the last one's solution. One worker process per core
    this process may run on (os.sched_getaffinity; 1 where the platform
    cannot tell), and no more than the grid has chains, fits the chains,
    the slowest first. The pick does not depend on the worker count.

    A dict passed as work receives the solver's work summed over the grid's
    fits: grid_smo_iterations (SMO steps), grid_face_steps (face steps,
    one per _FACE_EVERY steps of a fit) and grid_unconverged (fits that
    stopped on the iteration cap rather than the tolerance).
    """
    import os

    grid = DEFAULT_GRID if grid is None else list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    points = [tuple(float(v) for v in hp) for hp in grid]
    for hp in points:
        _check_hyperparams(*hp)
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    X_val, y_val = val_xy
    Xn, y, shift, scale = _standardize(*train_xy)
    # Every fit trains on the same rows: standardize them and take their
    # squared distances once. Small gamma, then large C, takes the most SMO
    # steps: fit the chains in that order, so that the last to finish is a
    # short one and each process builds each gamma's kernel once, holding
    # one. A chain runs in descending epsilon, which took fewer SMO steps
    # than ascending on the protocol table.
    chains = {}
    for k in sorted(range(len(points)),
                    key=lambda k: (points[k][2], -points[k][0], -points[k][1])):
        chains.setdefault(points[k][::2], []).append(k)  # (C, gamma)
    fits = (_sq_dist(Xn, Xn), Xn, y, shift, scale, X_val, y_val, points, {})
    keys, smo = [None] * len(grid), []
    for fitted in _fit_chains(fits, list(chains.values()), min(jobs, len(chains))):
        for k, key, fit_smo in fitted:
            keys[k] = key
            smo.append(fit_smo)
    if work is not None:
        work.update(grid_smo_iterations=sum(it for it, _, _ in smo),
                    grid_face_steps=sum(it // _FACE_EVERY for it, _, _ in smo),
                    grid_unconverged=sum(not converged for _, converged, _ in smo))
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
        if model.dual_coeffs.ndim != 1:
            raise ValueError(f"dual_coeffs must be (n_sv,), got {model.dual_coeffs.shape}")
        if sv.shape != (len(model.dual_coeffs), d):
            raise ValueError(f"support_vectors must be ({len(model.dual_coeffs)}, {d}), got {sv.shape}")
        if model.feature_scale.shape != (d,):
            raise ValueError(f"feature_scale must be ({d},), got {model.feature_scale.shape}")
        C, epsilon, gamma = model.hyperparams
        if float(payload["kernel_gamma"]) != gamma:
            raise ValueError("kernel_gamma differs from hyperparams[2]")
        _check_hyperparams(C, epsilon, gamma)
    except KeyError as e:
        raise ValueError(f"{path}: model file lacks field {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed model file: {e}") from e
    return model
