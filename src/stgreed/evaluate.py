"""Evaluation protocol: rank/linear correlations, logistic mapping, split trials."""

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .svr import grid_search, predict, train_svr
from .video import _as_fraction


@dataclass(frozen=True)
class LogisticFit:
    plcc: float          # None when undefined (constant input)
    rmse: float
    converged: bool = True


@dataclass(frozen=True)
class DatasetRow:
    content_id: str
    ref: str
    dist: str
    fps: Fraction
    dmos: float


@dataclass
class EvalReport:
    srocc: float
    krocc: float
    plcc: float
    rmse: float
    n_trials: int
    per_trial: dict = field(default_factory=dict)


def _midranks(x):
    # c tied values ending at 1-based sorted position e share mid-rank e - (c - 1) / 2
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _finite_pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length vectors of length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("rank correlation needs finite input")
    return x, y


def _pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0.0:
        return None
    return float(np.sum(xc * yc) / denom)


def srocc(x, y):
    """Spearman rank correlation with mid-rank tie handling; None if undefined."""
    x, y = _finite_pair(x, y)
    return _pearson(_midranks(x), _midranks(y))


def krocc(x, y):
    """Kendall tau-b (tie-corrected); None if undefined."""
    x, y = _finite_pair(x, y)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(len(x), k=1)
    sx, sy = dx[iu], dy[iu]
    n0 = len(sx)
    n1 = np.count_nonzero(sx == 0)
    n2 = np.count_nonzero(sy == 0)
    denom = np.sqrt(float(n0 - n1) * float(n0 - n2))
    if denom == 0.0:
        return None
    return float(np.sum(sx * sy) / denom)


def logistic(b, x):
    """Four-parameter logistic mapping of predicted scores; b = (b1, b2, b3, b4)."""
    b1, b2, b3, b4 = b
    x = np.asarray(x, dtype=np.float64)
    spread = max(abs(b4), 1e-12)
    z = np.clip(-(x - b3) / spread, -500.0, 500.0)
    return b2 + (b1 - b2) / (1.0 + np.exp(z))


class _CallLimit(Exception):
    pass


def _nelder_mead(f, x0, maxiter=10000, maxfev=10000):
    """Minimize f from x0 by the Nelder-Mead simplex; returns (x, success).

    A port of scipy.optimize.minimize(method="Nelder-Mead") without bounds,
    adaptive coefficients or a callback, step for step, so x comes out
    bit-identical to scipy's. success is False when maxfev calls or maxiter
    iterations ran out, as scipy's res.success is.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025  # scipy's nonzdelt and zdelt
        sim[k + 1] = y
    fsim = np.full(N + 1, np.inf)
    calls = 0

    def func(x):
        # The call count is checked before each evaluation; running out
        # abandons the rest of the iteration, leaving its moves so far.
        nonlocal calls
        if calls >= maxfev:
            raise _CallLimit
        calls += 1
        return f(x)

    try:
        for k in range(N + 1):
            fsim[k] = func(sim[k])
    except _CallLimit:
        pass
    # scipy sorts twice here; argsort's default kind need not be stable, so
    # the second sort can reorder tied vertices.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-8  # scipy's xatol and fatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-10):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = func(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = func(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = func(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
            iterations += 1
        except _CallLimit:
            pass
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], calls < maxfev and iterations < maxiter


def plcc_rmse(pred, dmos):
    """Fit the logistic non-linearity, then Pearson correlation and RMSE.

    Nelder-Mead on the four parameters; non-convergence is reported via the
    flag with the best parameters found.
    """
    pred = np.asarray(pred, dtype=np.float64)
    dmos = np.asarray(dmos, dtype=np.float64)
    if len(pred) != len(dmos) or len(pred) < 5:
        raise ValueError("need two equal-length vectors of length >= 5")

    if np.ptp(pred) == 0.0:
        m = float(np.mean(dmos))
        rmse = float(np.sqrt(np.mean((dmos - m) ** 2)))
        return LogisticFit(None, rmse)

    def sse(b):
        q = logistic(b, pred)
        return float(np.sum((q - dmos) ** 2))

    x0 = np.array([dmos.max(), dmos.min(), pred.mean(), pred.std()])
    b, converged = _nelder_mead(sse, x0)
    q = logistic(b, pred)
    rmse = float(np.sqrt(np.mean((q - dmos) ** 2)))
    return LogisticFit(_pearson(q, dmos), rmse, converged)


def read_manifest(path):
    """Read a dataset manifest CSV (content_id, ref, dist, fps, tag, dmos).

    tag is a required free-text column; it is checked for but not read.
    """
    rows = []
    # utf-8-sig also reads the byte-order mark that spreadsheet programs write.
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        required = {"content_id", "ref", "dist", "fps", "tag", "dmos"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: manifest must have columns {sorted(required)}")
        for r in reader:
            where = f"{path}:{reader.line_num}"
            if any(r[k] is None for k in required):
                raise ValueError(f"{where}: manifest row has too few fields")
            try:
                row = DatasetRow(r["content_id"], r["ref"], r["dist"],
                                 _as_fraction(r["fps"]), float(r["dmos"]))
                if not np.isfinite(row.dmos):
                    raise ValueError(f"dmos must be finite, got {r['dmos']!r}")
            except ValueError as e:
                raise ValueError(f"{where}: bad manifest row: {e}") from e
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty manifest")
    return rows


def split_contents(contents, rng):
    """Content-disjoint 70/15/15 split; the rounding remainder goes to train."""
    contents = sorted(contents)
    perm = rng.permutation(len(contents))
    n = len(contents)
    n_val = int(0.15 * n)
    n_test = int(0.15 * n)
    if n_val == 0 or n_test == 0:
        n_val = n_test = 1
    test = {contents[i] for i in perm[:n_test]}
    val = {contents[i] for i in perm[n_test:n_test + n_val]}
    train = {contents[i] for i in perm[n_test + n_val:]}
    return train, val, test


def _table(rows, features):
    """Sorted content ids (a split needs 3), then each row's content id, features and DMOS."""
    contents = sorted({r.content_id for r in rows})
    if len(contents) < 3:
        raise ValueError(f"need at least 3 contents, got {len(contents)}")
    missing = [(r.ref, r.dist) for r in rows if (r.ref, r.dist) not in features]
    if missing:
        listing = "\n".join(f"  {ref} / {dist}" for ref, dist in missing)
        raise ValueError(f"missing cached features for {len(missing)} pairs:\n{listing}")
    return (contents, [r.content_id for r in rows],
            np.array([features[(r.ref, r.dist)]["values"] for r in rows]),
            np.array([r.dmos for r in rows]))


def _masks(ids, where, **parts):
    """One row mask per named content subset, in manifest order."""
    masks = []
    for name, part in parts.items():
        # Not np.isin: a numpy str array drops trailing NULs, merging "a" and "a\0".
        masks.append(np.array([c in part for c in ids]))
        # An SVR fit and grid_search's validation srocc need 2 rows, plcc_rmse 5.
        n, need = np.count_nonzero(masks[-1]), 5 if name == "test" else 2
        if n < need:
            raise ValueError(f"{where}: {name} split has {n} rows, needs at least {need}")
    return masks


def _check_counts(seed=0, trials=1, bins=2):
    """Checks of counts that need no input: the protocol's trials and seed, a histogram's bins."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if bins < 2:
        raise ValueError("need at least 2 bins")


def train_model(rows, features, seed=0, grid=None, fingerprint=""):
    """Tune (C, epsilon, kernel_gamma) on one content split, then fit every row.

    The split is split_contents under default_rng([seed, 0]); the grid
    search trains on its train and test parts and scores on validation.
    """
    _check_counts(seed)
    contents, ids, X, y = _table(rows, features)
    train, val, test = split_contents(contents, np.random.default_rng([seed, 0]))
    fit, val = _masks(ids, "tuning split", training=train | test, validation=val)
    hp = grid_search((X[fit], y[fit]), (X[val], y[val]), grid)
    return train_svr(X, y, hp, fingerprint=fingerprint)


def _trial(X, y, masks, grid):
    """Grid search on validation, fit on training, score the test rows."""
    train, val, test = masks
    work = {}
    hp = grid_search((X[train], y[train]), (X[val], y[val]), grid, work=work)
    model = train_svr(X[train], y[train], hp)
    pred = predict(model, X[test])
    s, k, fit = srocc(pred, y[test]), krocc(pred, y[test]), plcc_rmse(pred, y[test])
    return {"srocc": s, "krocc": k, "plcc": fit.plcc, "rmse": fit.rmse,
            "hyperparams": model.hyperparams, "smo_iterations": model.smo[0],
            "smo_converged": model.smo[1], "smo_gap": model.smo[2],
            "logistic_converged": fit.converged, **work}


def run_protocol(rows, features, trials=200, seed=0, grid=None):
    """Repeated content-disjoint 70/15/15 trials; reports per-metric medians.

    Per trial: grid search on the validation set, train on the training set,
    metrics on the test set with the logistic refit per trial. Deterministic
    for a fixed seed; trial RNG streams derive from (seed, trial_index).
    Every split is drawn before the first fit; one too small raises ValueError.
    per_trial also records each trial's chosen (C, epsilon, kernel_gamma),
    the SMO iterations of its final fit, whether that solve converged and
    its last violating pair's gap (smo_gap), whether its logistic fit
    converged, and its grid search's solver work (grid_smo_iterations,
    grid_face_steps, grid_unconverged; see grid_search).
    """
    _check_counts(seed, trials)
    contents, ids, X, y = _table(rows, features)
    splits = [split_contents(contents, np.random.default_rng([seed, t])) for t in range(trials)]
    masks = [_masks(ids, f"trial {t}", training=train, validation=val, test=test)
             for t, (train, val, test) in enumerate(splits)]
    records = [_trial(X, y, m, grid) for m in masks]
    per_trial = {key: [r[key] for r in records] for key in records[0]}

    def med(key):
        vals = [v for v in per_trial[key] if v is not None]
        return float(np.median(vals)) if vals else None

    return EvalReport(med("srocc"), med("krocc"), med("plcc"), med("rmse"), trials, per_trial)


def dump_histogram(coeffs, bins):
    """Unit-area histogram of band-pass coefficients over a symmetric range.

    Returns (bin_centers, density) suitable for external plotting.
    """
    _check_counts(bins=bins)
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    if bins > coeffs.size:  # an empty stack too; checked before np.histogram allocates the bins
        raise ValueError(f"bins must be <= the {coeffs.size} coefficients, got {bins}")
    r = float(np.max(np.abs(coeffs)))
    if r == 0.0:
        r = 0.5
    density, edges = np.histogram(coeffs, bins=bins, range=(-r, r), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def format_histogram(centers, density):
    return "".join(f"{c:.9g}\t{d:.9g}\n" for c, d in zip(centers, density))
