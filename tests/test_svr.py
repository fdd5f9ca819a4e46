import json
import multiprocessing
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import stgreed
from stgreed import svr
from stgreed.evaluate import srocc
from stgreed.svr import (_FACE_EVERY, _SMO_TOL, DEFAULT_GRID, _dual, _rbf, _solve_smo,
                         grid_search, load_model, predict, save_model, train_svr)


def _toy_problem(rng, n=60, d=4):
    X = rng.normal(size=(n, d))
    y = 3.0 * np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


def test_constant_labels_constant_model(rng):
    X = rng.normal(size=(10, 3))
    model = train_svr(X, np.full(10, 42.0), (10.0, 0.1, 0.5))
    assert len(model.dual_coeffs) == 0
    assert model.smo == (0, True, 0.0)
    assert predict(model, rng.normal(size=3)) == 42.0
    assert np.all(predict(model, rng.normal(size=(5, 3))) == 42.0)


def test_training_fit_within_epsilon_tube(rng):
    X, y = _toy_problem(rng)
    eps = 0.5
    model = train_svr(X, y, (1000.0, eps, 0.5))
    resid = np.abs(predict(model, X) - y)
    # stopping tolerance allows a small excursion past the tube edge
    assert resid.max() <= eps + 0.05


def test_dual_coefficients_sum_to_zero(rng):
    X, y = _toy_problem(rng)
    model = train_svr(X, y, (10.0, 0.5, 0.5))
    assert abs(model.dual_coeffs.sum()) < 1e-9
    assert np.all(np.abs(model.dual_coeffs) <= 10.0 + 1e-9)


def test_predict_is_continuous(rng):
    X, y = _toy_problem(rng)
    model = train_svr(X, y, (100.0, 0.2, 0.5))
    x0 = rng.normal(size=4)
    p0 = predict(model, x0)
    p1 = predict(model, x0 + 1e-7)
    assert abs(p1 - p0) < 1e-4


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3)])
def test_predict_rejects_the_wrong_feature_count(rng, shape):
    X, y = _toy_problem(rng)
    model = train_svr(X, y, (10.0, 0.5, 0.5))
    with pytest.raises(ValueError, match=f"got {shape[-1]} feature values, model takes 4"):
        predict(model, np.zeros(shape))


def test_feature_standardization_invariance(rng):
    X, y = _toy_problem(rng)
    shift = rng.normal(size=4) * 100.0
    scale = rng.uniform(0.5, 50.0, size=4)
    m1 = train_svr(X, y, (100.0, 0.2, 0.5))
    m2 = train_svr(X * scale + shift, y, (100.0, 0.2, 0.5))
    probes = rng.normal(size=(20, 4))
    np.testing.assert_allclose(
        predict(m1, probes), predict(m2, probes * scale + shift), atol=1e-8)


def test_capacity_monotone_in_c(rng):
    X, y = _toy_problem(rng)
    errs = []
    for C in (0.1, 10.0, 1000.0):
        model = train_svr(X, y, (C, 0.1, 0.5))
        errs.append(np.mean((predict(model, X) - y) ** 2))
    assert errs[0] >= errs[1] >= errs[2]


def test_train_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        train_svr(np.zeros((1, 4)), [1.0], (1.0, 0.1, 0.5))
    X = rng.normal(size=(4, 2))
    y = np.array([1.0, np.nan, 2.0, 3.0])
    with pytest.raises(ValueError):
        train_svr(X, y, (1.0, 0.1, 0.5))
    with pytest.raises(ValueError):
        predict(train_svr(X, np.arange(4.0), (1.0, 0.1, 0.5)),
                np.array([np.inf, 0.0]))


_OUT_OF_DOMAIN = [
    pytest.param((0.0, 0.1, 0.5), "C must be finite and > 0, got 0.0", id="C=0"),
    pytest.param((-1.0, 0.1, 0.5), "C must be finite and > 0, got -1.0", id="C<0"),
    pytest.param((float("nan"), 0.1, 0.5), "C must be finite and > 0, got nan", id="C=nan"),
    pytest.param((float("inf"), 0.1, 0.5), "C must be finite and > 0, got inf", id="C=inf"),
    pytest.param((10.0, -0.5, 0.5), "epsilon must be finite and >= 0, got -0.5", id="epsilon<0"),
    pytest.param((10.0, float("nan"), 0.5), "epsilon must be finite and >= 0, got nan",
                 id="epsilon=nan"),
    pytest.param((10.0, 0.1, -2.0), "kernel_gamma must be finite and > 0, got -2.0", id="gamma<0"),
    pytest.param((10.0, 0.1, 0.0), "kernel_gamma must be finite and > 0, got 0.0", id="gamma=0"),
    pytest.param((10.0, 0.1, float("inf")), "kernel_gamma must be finite and > 0, got inf",
                 id="gamma=inf"),
]


@pytest.mark.parametrize("hp, error", _OUT_OF_DOMAIN)
def test_train_svr_rejects_hyperparameters_outside_their_domain(rng, hp, error):
    X, y = _toy_problem(rng, n=20)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        train_svr(X, y, hp)


@pytest.mark.parametrize("hp, error", _OUT_OF_DOMAIN)
def test_grid_search_rejects_a_point_outside_its_domain_before_any_fit(monkeypatch, rng, hp,
                                                                       error):
    def no_fits(*args):
        raise AssertionError("grid_search fitted before checking its grid")
        yield

    monkeypatch.setattr(svr, "_fit_chains", no_fits)
    X, y = _toy_problem(rng, n=20)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        grid_search((X, y), (X, y), grid=[(10.0, 0.1, 0.5), hp])


def test_grid_search_single_point(rng):
    X, y = _toy_problem(rng, n=30)
    assert grid_search((X, y), (X, y), grid=[(7.0, 0.3, 0.25)]) == (7.0, 0.3, 0.25)


def test_grid_search_rejects_an_empty_grid(rng):
    X, y = _toy_problem(rng, n=20)
    with pytest.raises(ValueError, match="^empty hyperparameter grid$"):
        grid_search((X, y), (X, y), grid=[])


def test_grid_search_recovers_useful_setting(rng):
    X, y = _toy_problem(rng, n=80)
    X_val, y_val = _toy_problem(rng, n=40)
    # plant one clearly good setting among hopeless ones
    grid = [(1e-4, 2.0, 1e-6), (100.0, 0.1, 0.5), (1e-4, 2.0, 100.0)]
    assert grid_search((X, y), (X_val, y_val), grid=grid) == (100.0, 0.1, 0.5)


def test_grid_search_breaks_ties_toward_smaller_c_then_larger_eps(rng):
    # Constant labels: every model predicts a constant, every SROCC is None
    # and every entry ties on score.
    X = rng.normal(size=(12, 3))
    y = np.full(12, 5.0)
    grid = [(10.0, 2.0, 1.0), (1.0, 0.1, 1.0), (1.0, 2.0, 0.5), (10.0, 0.1, 2.0),
            (1.0, 2.0, 4.0), (1.0, 1.0, 1.0)]
    assert grid_search((X, y), (X[:6], y[:6]), grid=grid) == (1.0, 2.0, 0.5)


def test_grid_search_deterministic(rng):
    X, y = _toy_problem(rng, n=40)
    X_val, y_val = _toy_problem(rng, n=20)
    grid = DEFAULT_GRID[::12]
    first = grid_search((X, y), (X_val, y_val), grid=grid)
    assert grid_search((X, y), (X_val, y_val), grid=grid) == first


def _grid_keys(train_xy, val_xy, grid):
    """Score each grid point with its own train_svr fit."""
    X_val, y_val = val_xy
    keys = []
    for C, eps, gamma in grid:
        score = srocc(predict(train_svr(*train_xy, (C, eps, gamma)), X_val), y_val)
        keys.append((-np.inf if score is None else score, -C, eps))
    return keys


@pytest.mark.parametrize("n_val, grid", [
    (20, DEFAULT_GRID[::5]),
    # Four validation rows allow few distinct SROCC values, so scores tie.
    (4, DEFAULT_GRID),
    # gamma out of order, repeated and split apart; duplicate points.
    (4, [(1.0, 0.1, 0.5), (10.0, 1.0, 2.0), (1.0, 2.0, 0.5), (1.0, 2.0, 0.5),
         (100.0, 0.1, 2.0), (1.0, 2.0, 0.125), (10.0, 2.0, 0.5)]),
], ids=["spread", "tied", "unordered"])
@pytest.mark.parametrize("seed, cores", [(s, c) for c in (2, 1) for s in (0, 1, 2)],
                         ids=[f"{s}" for s in (0, 1, 2)] + [f"{s}-1core" for s in (0, 1, 2)])
def test_grid_search_picks_what_separate_fits_pick(pin_cores, seed, cores, n_val, grid):
    # Two workers finish the fits out of grid order; the pick must not move.
    pin_cores(cores)
    rng = np.random.default_rng(seed)
    train_xy, val_xy = _toy_problem(rng, n=40), _toy_problem(rng, n=n_val)
    keys = _grid_keys(train_xy, val_xy, grid)
    want = grid[max(range(len(grid)), key=keys.__getitem__)]
    if n_val == 4:
        assert len({k[0] for k in keys}) < len(grid)  # the case has tied scores
    assert grid_search(train_xy, val_xy, grid) == tuple(want)


def test_grid_search_reports_its_fits_work(monkeypatch, pin_cores, rng):
    train_xy, val_xy = _toy_problem(rng, n=60), _toy_problem(rng, n=20)
    grid = [(1000.0, 0.01, 2.0 ** -4), (1000.0, 0.1, 2.0 ** -6), (1.0, 0.1, 0.5)]
    solve = svr._solve_smo  # cap the fits so that the first stops unconverged
    monkeypatch.setattr(svr, "_solve_smo", lambda *a, **kw: solve(*a, **kw, max_iter=10000))
    smo = [train_svr(*train_xy, point).smo for point in grid]
    assert smo[0][:2] == (10000, False) and smo[0][2] > _SMO_TOL
    assert smo[1][0] > _FACE_EVERY and smo[2][0] < _FACE_EVERY
    want = {"grid_smo_iterations": sum(it for it, _, _ in smo),
            "grid_face_steps": sum(it // _FACE_EVERY for it, _, _ in smo), "grid_unconverged": 1}
    for cores in (1, 2):
        pin_cores(cores)
        work = {}
        assert grid_search(train_xy, val_xy, grid, work=work) == grid_search(train_xy, val_xy, grid)
        assert work == want


def _no_process_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def test_grid_search_forks_only_on_more_than_one_core(monkeypatch, pin_cores, rng):
    train_xy, val_xy = _toy_problem(rng, n=30), _toy_problem(rng, n=10)
    grid = DEFAULT_GRID[::7]
    started, get_context = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: started.append(method) or get_context(method))
    pin_cores(2)
    want = grid_search(train_xy, val_xy, grid)
    assert started == ["fork"]
    _no_process_pool(monkeypatch)
    pin_cores(1)
    assert grid_search(train_xy, val_xy, grid) == want
    pin_cores(8)  # a one-point grid gets one worker
    assert grid_search(train_xy, val_xy, grid[:1]) == grid[0]


@pytest.mark.parametrize("obstacle", ["no fork", "another thread"])
def test_grid_search_fits_in_process_where_it_cannot_fork(monkeypatch, pin_cores, rng, obstacle):
    train_xy, val_xy = _toy_problem(rng, n=30), _toy_problem(rng, n=10)
    grid = DEFAULT_GRID[::7]
    pin_cores(1)
    want = grid_search(train_xy, val_xy, grid)
    _no_process_pool(monkeypatch)
    pin_cores(2)
    if obstacle == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert grid_search(train_xy, val_xy, grid) == want
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(grid_search, train_xy, val_xy, grid).result() == want


_DYING_WORKER = """
import os
import numpy as np
from stgreed import svr
os.sched_getaffinity = lambda pid: {0, 1}
fit = svr._grid_chain
svr._grid_chain = lambda fits, chain: os._exit(1) if 0 in chain else fit(fits, chain)
X = np.random.default_rng(0).normal(size=(30, 4))
svr.grid_search((X, X[:, 0]), (X, X[:, 0]), svr.DEFAULT_GRID[::7])
"""


def test_grid_search_raises_when_a_worker_dies():
    # In a child with a timeout: a pool that lost the fit would wait forever.
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER], capture_output=True, text=True,
                          cwd=str(Path(stgreed.__file__).parents[1]), timeout=60)
    assert proc.returncode == 1
    assert "BrokenProcessPool" in proc.stderr


def test_model_round_trip(tmp_path, rng):
    X, y = _toy_problem(rng)
    model = train_svr(X, y, (100.0, 0.2, 0.5), fingerprint="abcd" * 4)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.fingerprint == "abcd" * 4
    assert model.smo is not None and loaded.smo is None  # solver work is not saved
    assert loaded.hyperparams == model.hyperparams
    probes = rng.normal(size=(100, 4))
    np.testing.assert_allclose(predict(loaded, probes), predict(model, probes),
                               atol=1e-12)


def test_load_model_rejects_bad_files(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    with pytest.raises(ValueError, match="not a"):
        load_model(p)
    p.write_text("")
    with pytest.raises(ValueError, match="line 1"):
        load_model(p)
    p.write_text('{"format": "stgreed-svr", "version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_model(p)
    p.write_text("[1, 2]")
    with pytest.raises(ValueError, match="m.json: not a stgreed-svr model file"):
        load_model(p)


def _saved_payload(tmp_path, rng):
    X, y = _toy_problem(rng, n=20)
    path = tmp_path / "model.json"
    save_model(train_svr(X, y, (10.0, 0.1, 0.5)), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("drop", ["feature_shift", "kernel_gamma", "hyperparams",
                                  "support_vectors", "bias"])
def test_load_model_rejects_missing_field(tmp_path, rng, drop):
    path, payload = _saved_payload(tmp_path, rng)
    del payload[drop]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"model.json: model file lacks field '{drop}'"):
        load_model(path)


@pytest.mark.parametrize("change, error", [
    ({"kernel_gamma": 0.25}, "kernel_gamma differs from hyperparams"),
    ({"hyperparams": [10.0, 0.1]}, "not enough values"),
    ({"bias": "x"}, "could not convert"),
    ({"feature_shift": 5}, "has no len"),
    ({"bias": float("nan")}, "numbers must be finite"),
    ({"bias": float("inf")}, "numbers must be finite"),
    ({"dual_coeffs": [float("nan")] * 3}, "numbers must be finite"),
    ({"hyperparams": [10.0, float("inf"), 0.5]}, "numbers must be finite"),
    ({"feature_scale": [1.0, 0.0, 1.0, 1.0]}, "feature_scale must be > 0"),
    ({"feature_scale": [1.0, 1.0, -2.0, 1.0]}, "feature_scale must be > 0"),
    # Two rows of 2 * 4 values would reshape to the four rows dual_coeffs asks for.
    ({"support_vectors": [[0.5] * 8] * 2, "dual_coeffs": [1.0, -1.0, 0.5, -0.5]},
     r"support_vectors must be \(4, 4\), got \(2, 8\)"),
    ({"support_vectors": [[0.5] * 4] * 3, "dual_coeffs": [1.0, -1.0]},
     r"support_vectors must be \(2, 4\), got \(3, 4\)"),
    ({"feature_scale": [1.0, 1.0, 1.0]}, r"feature_scale must be \(4,\), got \(3,\)"),
    ({"hyperparams": [0.0, 0.1, 0.5]}, "C must be finite and > 0, got 0.0"),
    ({"hyperparams": [10.0, -0.5, 0.5]}, "epsilon must be finite and >= 0, got -0.5"),
    ({"hyperparams": [10.0, 0.1, -2.0], "kernel_gamma": -2.0},
     "kernel_gamma must be finite and > 0, got -2.0"),
    # A column of dual coefficients would make predict return a column too.
    ({"support_vectors": [[0.5] * 4] * 2, "dual_coeffs": [[1.0], [-1.0]]},
     r"dual_coeffs must be \(n_sv,\), got \(2, 1\)"),
    ({"dual_coeffs": 1.0}, r"dual_coeffs must be \(n_sv,\), got \(\)"),
    # A column would broadcast against a feature vector and score it wrong.
    ({"feature_shift": [[0.0]] * 4}, r"feature_shift must be \(4,\), got \(4, 1\)"),
])
def test_load_model_rejects_malformed_fields(tmp_path, rng, change, error):
    path, payload = _saved_payload(tmp_path, rng)
    path.write_text(json.dumps({**payload, **change}))
    with pytest.raises(ValueError, match=f"model.json: malformed model file: .*{error}"):
        load_model(path)


def test_saved_kernel_gamma_is_hyperparams_gamma(tmp_path, rng):
    path, payload = _saved_payload(tmp_path, rng)
    assert payload["kernel_gamma"] == payload["hyperparams"][2] == 0.5
    assert load_model(path).hyperparams == (10.0, 0.1, 0.5)


def test_solve_smo_reports_iterations_and_convergence(rng):
    X, y = _toy_problem(rng, n=30)
    Xn = (X - X.mean(axis=0)) / X.std(axis=0)  # as train_svr standardizes
    K = _rbf(0.5, Xn, Xn)
    _, _, iterations, gap = _solve_smo(K, y, 10.0, 0.1, max_iter=1)
    assert iterations == 1 and gap > _SMO_TOL
    _, _, iterations, gap = _solve_smo(K, y, 10.0, 0.1)
    assert gap <= _SMO_TOL and 1 < iterations < 200000
    model = train_svr(X, y, (10.0, 0.1, 0.5))
    assert model.smo == (iterations, True, gap)


def _reference_smo(K, y, C, epsilon, tol=1e-3, max_iter=200000):
    """The masked-scan SMO loop with a separate beta accumulator.

    Returns (beta, bias, steps).
    """
    n = len(y)
    lam = np.zeros(2 * n)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    idx = np.concatenate([np.arange(n), np.arange(n)])
    beta = np.zeros(n)
    # G_t = s_t * ((K beta)_p - y_p) + epsilon; beta starts at 0
    G = np.concatenate([-y, y]) + epsilon

    steps = 0
    for _ in range(max_iter):
        neg_sG = -s * G
        up = np.where(s > 0, lam < C, lam > 0)
        low = np.where(s > 0, lam > 0, lam < C)
        if not up.any() or not low.any():
            break
        m_val = np.max(neg_sG[up])
        M_val = np.min(neg_sG[low])
        if m_val - M_val <= tol:
            break
        i = int(np.flatnonzero(up)[np.argmax(neg_sG[up])])
        j = int(np.flatnonzero(low)[np.argmin(neg_sG[low])])
        pi, pj = idx[i], idx[j]

        a = K[pi, pi] + K[pj, pj] - 2.0 * K[pi, pj]
        slope = s[i] * G[i] - s[j] * G[j]  # < 0 for a violating pair
        u = -slope / max(a, 1e-12)
        u_max_i = (C - lam[i]) if s[i] > 0 else lam[i]
        u_max_j = lam[j] if s[j] > 0 else (C - lam[j])
        u = float(np.clip(u, 0.0, min(u_max_i, u_max_j)))
        if u <= 0.0:
            break

        lam[i] += s[i] * u if s[i] > 0 else -u
        lam[j] -= u if s[j] > 0 else -u
        beta[pi] += u
        beta[pj] -= u
        G += s * (K[idx, pi] - K[idx, pj]) * u
        steps += 1

    neg_sG = -s * G
    up = np.where(s > 0, lam < C, lam > 0)
    low = np.where(s > 0, lam > 0, lam < C)
    if up.any() and low.any():
        bias = 0.5 * (np.max(neg_sG[up]) + np.min(neg_sG[low]))
    else:
        bias = float(np.mean(y))
    return beta, float(bias), steps


def _smo_problem(n, d, n_dup, gamma, seed):
    """Kernel and labels of n seeded rows, n_dup of them copies of others."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(50.0, 10.0, size=n)
    dup = rng.integers(0, n, size=(min(n_dup, n - 1), 2))
    X[dup[:, 0]] = X[dup[:, 1]]
    y[dup[:, 0]] = y[dup[:, 1]]
    return _rbf(gamma, X, X), y


def _kkt_gap(K, y, C, epsilon, beta):
    """The most violating pair's gap, recomputed from beta and K @ beta."""
    u = y - K @ beta
    alpha, alpha_s = np.maximum(beta, 0.0), np.maximum(-beta, 0.0)
    up = np.concatenate([np.where(alpha < C, u - epsilon, -np.inf),
                         np.where(alpha_s > 0.0, u + epsilon, -np.inf)])
    low = np.concatenate([np.where(alpha > 0.0, u - epsilon, np.inf),
                          np.where(alpha_s < C, u + epsilon, np.inf)])
    return up.max() - low.min()


def _assert_smo_contract(K, y, C, epsilon, beta_ref, beta0=None):
    """_solve_smo's fit from beta0 is feasible, optimal to _SMO_TOL and no worse than beta_ref.

    The loop steers by scores it updates in place, so the gap recomputed
    from K @ beta may differ from the one it stopped on by their
    accumulated rounding (1e-6 is orders above it).

    Neither fit reaches the optimum, so the fit's dual objective f may
    exceed beta_ref's by what its gap allows. Write either fit as the
    feasible lam = (alpha, -alpha*) with alpha = max(beta, 0) and
    alpha* = max(-beta, 0), whose objective _dual gives, and d = lam_ref -
    lam. As f is convex, f(lam) - f(lam_ref) <= v . d with v = -grad f(lam),
    the scores _kkt_gap reads. d_t > 0 only where lam_t < lam_ref_t <= hi_t,
    in the up set, and d_t < 0 only in the low set, and sum(d) = 0 as both
    sum to 0. So v . d <= max_up(v) * sum(d+) - min_low(v) * sum(d-), with
    sum(d+) = sum(d-) = |d|_1 / 2: the bound is gap * |d|_1 / 2, gap the
    fit's own. On top of it 1e-12 relative covers the rounding of the two
    objectives and of sum(beta) (asserted to 1e-14 C n above).
    """
    beta, _, _, gap = _solve_smo(K, y, C, epsilon, beta0=beta0)
    assert gap <= _SMO_TOL
    assert np.abs(beta).max() <= C * (1.0 + 1e-12)  # alpha = max(beta, 0), alpha* = max(-beta, 0)
    assert abs(beta.sum()) <= 1e-14 * C * len(y)
    kkt_gap = _kkt_gap(K, y, C, epsilon, beta)
    assert kkt_gap <= _SMO_TOL + 1e-6
    f, f_ref = _dual(beta, K @ beta, y, epsilon), _dual(beta_ref, K @ beta_ref, y, epsilon)
    d = np.abs(np.maximum(beta_ref, 0.0) - np.maximum(beta, 0.0)).sum() \
        + np.abs(np.maximum(-beta_ref, 0.0) - np.maximum(-beta, 0.0)).sum()
    assert f - f_ref <= 0.5 * max(kkt_gap, 0.0) * d + 1e-12 * abs(f_ref)


# Duplicate rows give equal gradients, so selection must break ties the way
# the reference does.
_smo_cases = given(st.integers(2, 80), st.integers(1, 5), st.integers(0, 40),
                   st.sampled_from([0.1, 10.0, 1000.0]), st.sampled_from([0.0, 0.1, 2.0]),
                   st.sampled_from([0.01, 0.5, 4.0]), st.sampled_from([1, 7, None]),
                   st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@_smo_cases
def test_solve_smo_matches_reference(n, d, n_dup, C, eps, gamma, max_iter, seed):
    # Fewer than _FACE_EVERY steps take no face step: the pair loop alone. A
    # fit the reference runs longer is compared over its first
    # _FACE_EVERY - 1 steps.
    K, y = _smo_problem(n, d, n_dup, gamma, seed)
    cap = _FACE_EVERY - 1 if max_iter is None else max_iter
    beta_ref, bias_ref, _ = _reference_smo(K, y, C, eps, max_iter=cap)
    beta, bias, _, _ = _solve_smo(K, y, C, eps, max_iter=cap)
    assert bias == bias_ref
    np.testing.assert_allclose(beta, beta_ref, rtol=0, atol=1e-12 * C)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@_smo_cases
# Its objective is 1.9e-8 relative above the reference's, within the gap's bound.
@example(n=74, d=2, n_dup=11, C=1000.0, eps=0.1, gamma=0.01, max_iter=None, seed=10678)
def test_solve_smo_keeps_its_contract_past_a_face_step(n, d, n_dup, C, eps, gamma, max_iter,
                                                       seed):
    # The reference's longer fits, where face steps change the path. Capped
    # below the first face step the solver is the reference's loop (the test
    # above), so it finds them at a tenth of the reference's cost.
    assume(max_iter is None)
    K, y = _smo_problem(n, d, n_dup, gamma, seed)
    assume(_solve_smo(K, y, C, eps, max_iter=_FACE_EVERY - 1)[3] > _SMO_TOL)
    beta_ref, _, steps = _reference_smo(K, y, C, eps)
    assert steps >= _FACE_EVERY
    _assert_smo_contract(K, y, C, eps, beta_ref)


@settings(max_examples=10, deadline=None)
@given(st.integers(40, 120), st.integers(1, 4), st.integers(0, 20),
       st.sampled_from([2.0 ** -6, 2.0 ** -5, 2.0 ** -4]), st.integers(0, 2 ** 32 - 1))
def test_solve_smo_contract_on_ill_conditioned_kernels(n, d, n_dup, gamma, seed):
    # C = 1000 with a small gamma and epsilon = 0 is where fits run long and
    # most rows are free; duplicated rows make K_FF singular.
    K, y = _smo_problem(n, d, n_dup, gamma, seed)
    beta_ref, _, _ = _reference_smo(K, y, 1000.0, 0.0)
    _assert_smo_contract(K, y, 1000.0, 0.0, beta_ref)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 80), st.integers(1, 5), st.integers(0, 40),
       st.sampled_from([0.1, 10.0, 1000.0]), st.sampled_from([0.0, 0.1, 1.0, 2.0]),
       st.sampled_from([0.0, 0.1, 1.0, 2.0]), st.sampled_from([0.01, 0.5, 4.0]),
       st.integers(0, 2 ** 32 - 1))
def test_solve_smo_keeps_its_contract_from_another_epsilons_solution(n, d, n_dup, C, eps_from,
                                                                      eps, gamma, seed):
    # grid_search starts each fit of a chain from the solution at the same K
    # and C and another epsilon; the result must be as good as a cold fit's.
    K, y = _smo_problem(n, d, n_dup, gamma, seed)
    beta0 = _solve_smo(K, y, C, eps_from)[0]
    beta_ref, _, _ = _reference_smo(K, y, C, eps)
    _assert_smo_contract(K, y, C, eps, beta_ref, beta0=beta0)
