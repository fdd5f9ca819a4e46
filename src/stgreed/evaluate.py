"""Evaluation protocol: rank/linear correlations, logistic mapping, split trials."""

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .svr import grid_search, predict, train_svr


@dataclass(frozen=True)
class LogisticParams:
    b1: float
    b2: float
    b3: float
    b4: float


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
    tag: str
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
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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


def logistic(params, x):
    """Four-parameter logistic mapping of predicted scores."""
    x = np.asarray(x, dtype=np.float64)
    spread = max(abs(params.b4), 1e-12)
    z = np.clip(-(x - params.b3) / spread, -500.0, 500.0)
    return params.b2 + (params.b1 - params.b2) / (1.0 + np.exp(z))


def plcc_rmse(pred, dmos):
    """Fit the logistic non-linearity, then Pearson correlation and RMSE.

    Nelder-Mead on the four parameters; non-convergence is reported via the
    flag with the best parameters found.
    """
    # Imported here so that `import stgreed` leaves scipy.optimize unloaded.
    from scipy.optimize import minimize

    pred = np.asarray(pred, dtype=np.float64)
    dmos = np.asarray(dmos, dtype=np.float64)
    if len(pred) != len(dmos) or len(pred) < 5:
        raise ValueError("need two equal-length vectors of length >= 5")

    if np.ptp(pred) == 0.0:
        m = float(np.mean(dmos))
        rmse = float(np.sqrt(np.mean((dmos - m) ** 2)))
        return LogisticFit(None, rmse)

    def sse(b):
        q = logistic(LogisticParams(*b), pred)
        return float(np.sum((q - dmos) ** 2))

    x0 = np.array([dmos.max(), dmos.min(), pred.mean(), pred.std()])
    res = minimize(sse, x0, method="Nelder-Mead",
                   options={"maxiter": 10000, "maxfev": 10000,
                            "xatol": 1e-8, "fatol": 1e-10})
    q = logistic(LogisticParams(*res.x), pred)
    rmse = float(np.sqrt(np.mean((q - dmos) ** 2)))
    return LogisticFit(_pearson(q, dmos), rmse, bool(res.success))


def read_manifest(path):
    """Read a dataset manifest CSV (content_id, ref, dist, fps, tag, dmos)."""
    rows = []
    with open(path, newline="") as f:
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
                                 Fraction(r["fps"]), r["tag"], float(r["dmos"]))
                if not np.isfinite(row.dmos):
                    raise ValueError(f"dmos must be finite, got {r['dmos']!r}")
            except (ValueError, ZeroDivisionError) as e:
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


def _gather(rows, features, subset):
    X, y = [], []
    for row in rows:
        if row.content_id in subset:
            X.append(features[(row.ref, row.dist)]["values"])
            y.append(row.dmos)
    return np.array(X), np.array(y)


def _check_complete(rows, features):
    missing = [(r.ref, r.dist) for r in rows if (r.ref, r.dist) not in features]
    if missing:
        listing = "\n".join(f"  {ref} / {dist}" for ref, dist in missing)
        raise ValueError(f"missing cached features for {len(missing)} pairs:\n{listing}")


def train_model(rows, features, seed=0, grid=None, fingerprint=""):
    """Tune (C, epsilon, kernel_gamma) on one content split, then fit every row.

    The split is split_contents under default_rng([seed, 0]); the grid
    search trains on its train and test parts and scores on validation.
    """
    _check_complete(rows, features)
    contents = sorted({r.content_id for r in rows})
    if len(contents) < 3:
        raise ValueError("need at least 3 contents to tune hyperparameters")
    train, val, test = split_contents(contents, np.random.default_rng([seed, 0]))
    hp = grid_search(_gather(rows, features, train | test),
                     _gather(rows, features, val), grid)
    X, y = _gather(rows, features, set(contents))
    return train_svr(X, y, hp, fingerprint=fingerprint)


def run_protocol(rows, features, trials=200, seed=0, grid=None):
    """Repeated content-disjoint 70/15/15 trials; reports per-metric medians.

    Per trial: grid search on the validation set, train on the training set,
    metrics on the test set with the logistic refit per trial. Deterministic
    for a fixed seed; trial RNG streams derive from (seed, trial_index).
    per_trial also records each trial's chosen (C, epsilon, kernel_gamma),
    the SMO iterations of its final fit and whether that solve converged,
    and whether its logistic fit converged.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    contents = sorted({r.content_id for r in rows})
    if len(contents) < 3:
        raise ValueError(f"need at least 3 contents, got {len(contents)}")
    _check_complete(rows, features)

    per_trial = {"srocc": [], "krocc": [], "plcc": [], "rmse": [],
                 "hyperparams": [], "smo_iterations": [], "smo_converged": [],
                 "logistic_converged": []}
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        train, val, test = split_contents(contents, rng)
        X_tr, y_tr = _gather(rows, features, train)
        X_val, y_val = _gather(rows, features, val)
        X_te, y_te = _gather(rows, features, test)

        hp = grid_search((X_tr, y_tr), (X_val, y_val), grid)
        model = train_svr(X_tr, y_tr, hp)
        pred = predict(model, X_te)

        per_trial["srocc"].append(srocc(pred, y_te))
        per_trial["krocc"].append(krocc(pred, y_te))
        fit = plcc_rmse(pred, y_te)
        per_trial["plcc"].append(fit.plcc)
        per_trial["rmse"].append(fit.rmse)
        per_trial["hyperparams"].append(model.hyperparams)
        per_trial["smo_iterations"].append(model.smo[0])
        per_trial["smo_converged"].append(model.smo[1])
        per_trial["logistic_converged"].append(fit.converged)

    def med(vals):
        vals = [v for v in vals if v is not None]
        return float(np.median(vals)) if vals else None

    return EvalReport(med(per_trial["srocc"]), med(per_trial["krocc"]),
                      med(per_trial["plcc"]), med(per_trial["rmse"]),
                      trials, per_trial)


def hfr_vmaf(vmaf_of_pr_dist, greed_score):
    """Average an externally computed (inverted) VMAF score with the model score."""
    if not 0.0 <= vmaf_of_pr_dist <= 100.0:
        raise ValueError(f"vmaf score {vmaf_of_pr_dist} outside [0, 100]")
    return 0.5 * ((100.0 - vmaf_of_pr_dist) + greed_score)


def dump_histogram(coeffs, bins):
    """Unit-area histogram of band-pass coefficients over a symmetric range.

    Returns (bin_centers, density) suitable for external plotting.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    if coeffs.size == 0:
        raise ValueError("empty coefficient stack")
    r = float(np.max(np.abs(coeffs)))
    if r == 0.0:
        r = 0.5
    density, edges = np.histogram(coeffs, bins=bins, range=(-r, r), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def format_histogram(centers, density):
    return "".join(f"{c:.9g}\t{d:.9g}\n" for c, d in zip(centers, density))
