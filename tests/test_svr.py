import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgreed.evaluate import srocc
from stgreed.svr import (DEFAULT_GRID, _rbf, _solve_smo, grid_search, load_model,
                         predict, save_model, train_svr)


def _toy_problem(rng, n=60, d=4):
    X = rng.normal(size=(n, d))
    y = 3.0 * np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


def test_constant_labels_constant_model(rng):
    X = rng.normal(size=(10, 3))
    model = train_svr(X, np.full(10, 42.0), (10.0, 0.1, 0.5))
    assert len(model.dual_coeffs) == 0
    assert model.smo == (0, True)
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


def test_grid_search_single_point(rng):
    X, y = _toy_problem(rng, n=30)
    assert grid_search((X, y), (X, y), grid=[(7.0, 0.3, 0.25)]) == (7.0, 0.3, 0.25)


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
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_search_picks_what_separate_fits_pick(seed, n_val, grid):
    rng = np.random.default_rng(seed)
    train_xy, val_xy = _toy_problem(rng, n=40), _toy_problem(rng, n=n_val)
    keys = _grid_keys(train_xy, val_xy, grid)
    want = grid[max(range(len(grid)), key=keys.__getitem__)]
    if n_val == 4:
        assert len({k[0] for k in keys}) < len(grid)  # the case has tied scores
    assert grid_search(train_xy, val_xy, grid) == tuple(want)


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
    assert _solve_smo(K, y, 10.0, 0.1, max_iter=1)[2:] == (1, False)
    _, _, iterations, converged = _solve_smo(K, y, 10.0, 0.1)
    assert converged and 1 < iterations < 200000
    model = train_svr(X, y, (10.0, 0.1, 0.5))
    assert model.smo == (iterations, True)


def _reference_smo(K, y, C, epsilon, tol=1e-3, max_iter=200000):
    """The masked-scan SMO loop with a separate beta accumulator."""
    n = len(y)
    lam = np.zeros(2 * n)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    idx = np.concatenate([np.arange(n), np.arange(n)])
    beta = np.zeros(n)
    # G_t = s_t * ((K beta)_p - y_p) + epsilon; beta starts at 0
    G = np.concatenate([-y, y]) + epsilon

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

    neg_sG = -s * G
    up = np.where(s > 0, lam < C, lam > 0)
    low = np.where(s > 0, lam > 0, lam < C)
    if up.any() and low.any():
        bias = 0.5 * (np.max(neg_sG[up]) + np.min(neg_sG[low]))
    else:
        bias = float(np.mean(y))
    return beta, float(bias)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 80), st.integers(1, 5), st.integers(0, 40),
       st.sampled_from([0.1, 10.0, 1000.0]), st.sampled_from([0.0, 0.1, 2.0]),
       st.sampled_from([0.01, 0.5, 4.0]), st.sampled_from([1, 7, None]),
       st.integers(0, 2 ** 32 - 1))
def test_solve_smo_matches_reference(n, d, n_dup, C, eps, gamma, max_iter, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    # Duplicate rows give equal gradients, so selection must break ties the
    # way the reference does.
    y = rng.normal(50.0, 10.0, size=n)
    dup = rng.integers(0, n, size=(min(n_dup, n - 1), 2))
    X[dup[:, 0]] = X[dup[:, 1]]
    y[dup[:, 0]] = y[dup[:, 1]]
    K = _rbf(gamma, X, X)
    kw = {} if max_iter is None else {"max_iter": max_iter}
    beta, bias, _, _ = _solve_smo(K, y, C, eps, **kw)
    beta_ref, bias_ref = _reference_smo(K, y, C, eps, **kw)
    assert bias == bias_ref
    np.testing.assert_allclose(beta, beta_ref, rtol=0, atol=1e-12 * C)
