import ast
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stgreed
from stgreed.evaluate import (DatasetRow, _nelder_mead, dump_histogram,
                              format_histogram, krocc, logistic,
                              plcc_rmse, read_manifest, run_protocol,
                              split_contents, srocc, train_model)
from stgreed.svr import _FACE_EVERY, DEFAULT_GRID, grid_search, predict, train_svr


def test_rank_correlations_perfect_and_reversed():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert srocc(x, x) == pytest.approx(1.0)
    assert srocc(x, x[::-1]) == pytest.approx(-1.0)
    assert krocc(x, x) == pytest.approx(1.0)
    assert krocc(x, x[::-1]) == pytest.approx(-1.0)


def _srocc_oracle(x, y):
    # definitional: Pearson correlation of mid-ranks via scipy-free formulas
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        return np.array([(np.sum(v < t) + np.sum(v <= t) + 1) / 2.0 for t in v])

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))


def _krocc_oracle(x, y):
    conc = disc = tx = ty = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            a = np.sign(x[i] - x[j])
            b = np.sign(y[i] - y[j])
            if a == 0:
                tx += 1
            if b == 0:
                ty += 1
            if a * b > 0:
                conc += 1
            elif a * b < 0:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / np.sqrt((n0 - tx) * (n0 - ty))


def test_rank_correlations_match_oracles(rng):
    for _ in range(20):
        x = rng.integers(0, 5, size=8).astype(float)  # force ties
        y = rng.integers(0, 5, size=8).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert srocc(x, y) == pytest.approx(_srocc_oracle(x, y), abs=1e-12)
        assert krocc(x, y) == pytest.approx(_krocc_oracle(x, y), abs=1e-12)


def test_rank_correlations_monotone_invariance(rng):
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    assert srocc(np.exp(x), y) == pytest.approx(srocc(x, y), abs=1e-12)
    assert krocc(x ** 3, y) == pytest.approx(krocc(x, y), abs=1e-12)


def test_rank_correlations_degenerate_input():
    assert srocc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert krocc([2.0, 2.0], [1.0, 5.0]) is None
    with pytest.raises(ValueError):
        srocc([1.0], [2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corr", [srocc, krocc])
def test_rank_correlations_reject_non_finite_input(corr, bad):
    x = [1.0, 2.0, bad, 4.0]
    with pytest.raises(ValueError, match="finite"):
        corr(x, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="finite"):
        corr([1.0, 2.0, 3.0, 4.0], x)


def test_logistic_limits_and_midpoint():
    p = (90.0, 10.0, 50.0, 12.0)
    assert logistic(p, np.array([50.0]))[0] == pytest.approx(50.0)
    assert logistic(p, np.array([1e6]))[0] == pytest.approx(90.0)
    assert logistic(p, np.array([-1e6]))[0] == pytest.approx(10.0)


def test_plcc_recovers_planted_logistic(rng):
    planted = (90.0, 10.0, 50.0, 12.0)
    pred = rng.uniform(0.0, 100.0, size=200)
    dmos = logistic(planted, pred)
    fit = plcc_rmse(pred, dmos)
    assert fit.plcc > 0.9999
    assert fit.rmse < 0.01 * np.ptp(dmos)


def test_plcc_identity_mapping(rng):
    dmos = rng.uniform(0.0, 100.0, size=80)
    fit = plcc_rmse(dmos, dmos)
    assert fit.plcc > 0.999


def test_plcc_constant_predictions(rng):
    dmos = rng.uniform(0.0, 100.0, size=10)
    fit = plcc_rmse(np.full(10, 3.0), dmos)
    assert fit.plcc is None
    assert fit.rmse == pytest.approx(dmos.std())


def test_logistic_fit_at_least_raw_pearson(rng):
    pred = rng.uniform(0.0, 100.0, size=100)
    dmos = logistic((80.0, 20.0, 40.0, 8.0), pred) \
        + rng.normal(0.0, 3.0, size=100)
    raw = np.corrcoef(pred, dmos)[0, 1]
    assert plcc_rmse(pred, dmos).plcc >= raw - 1e-6


def _logistic_problem(seed, n, noise, decimals):
    """sse and plcc_rmse's start point for a noisy logistic fit."""
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 100.0, size=n)
    if decimals is not None:
        pred = np.round(pred, decimals)  # ties among the predictions
    planted = (rng.uniform(60.0, 95.0), rng.uniform(5.0, 40.0), rng.uniform(20.0, 80.0),
               rng.uniform(2.0, 20.0))
    dmos = logistic(planted, pred) + rng.normal(0.0, noise, size=n)

    def sse(b):
        return float(np.sum((logistic(b, pred) - dmos) ** 2))

    return sse, np.array([dmos.max(), dmos.min(), pred.mean(), pred.std()])


def _scipy_nelder_mead(f, x0, maxiter=10000, maxfev=10000):
    from scipy.optimize import minimize

    res = minimize(f, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "maxfev": maxfev,
                            "xatol": 1e-8, "fatol": 1e-10})
    return res.x, res.success


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(5, 120), st.floats(0.1, 20.0),
       st.sampled_from([None, 1, 0, -1]), st.sampled_from([None, 0, 1, 2, 3]),
       st.sampled_from([{}, {"maxfev": 40}, {"maxfev": 150}, {"maxiter": 20},
                        {"maxiter": 90}]))
def test_nelder_mead_matches_scipy_bit_for_bit(seed, n, noise, decimals, zero_at, limits):
    sse, x0 = _logistic_problem(seed, n, noise, decimals)
    if zero_at is not None:
        x0[zero_at] = 0.0  # the simplex steps this entry by zdelt, not 5%
    x, ok = _nelder_mead(sse, x0, **limits)
    want_x, want_ok = _scipy_nelder_mead(sse, x0, **limits)
    assert x.tobytes() == want_x.tobytes()
    assert ok is bool(want_ok)


@pytest.mark.parametrize("limits", [{"maxfev": 3}, {"maxfev": 23}, {"maxiter": 2},
                                    {"maxiter": 15}])
def test_nelder_mead_reports_either_limit_as_failure(limits):
    # maxfev 3 runs out while the simplex is built and maxfev 23 after some
    # iterations; maxiter stops the loop between iterations.
    sse, x0 = _logistic_problem(3, 40, 5.0, 0)
    x0[2] = 0.0
    x, ok = _nelder_mead(sse, x0, **limits)
    want_x, want_ok = _scipy_nelder_mead(sse, x0, **limits)
    assert not ok and not want_ok
    assert x.tobytes() == want_x.tobytes()


def test_read_manifest(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("content_id,ref,dist,fps,tag,dmos\n"
                 "c01,r.y4m,d.y4m,30000/1001,crf30,55.5\n")
    rows = read_manifest(p)
    assert rows[0].fps == Fraction(30000, 1001)
    assert rows[0].dmos == 55.5

    p.write_text("content_id,ref\nc01,r\n")
    with pytest.raises(ValueError, match="columns"):
        read_manifest(p)
    p.write_text("content_id,ref,dist,fps,tag,dmos\n")
    with pytest.raises(ValueError, match="empty"):
        read_manifest(p)


def test_read_manifest_accepts_a_byte_order_mark(tmp_path):
    # Spreadsheet programs save "CSV UTF-8" with a leading BOM.
    p = tmp_path / "m.csv"
    p.write_bytes("\ufeffcontent_id,ref,dist,fps,tag,dmos\n"
                  "c01,r.y4m,d.y4m,60,crf30,55.5\n".encode("utf-8"))
    (row,) = read_manifest(p)
    assert (row.content_id, row.fps, row.dmos) == ("c01", Fraction(60), 55.5)


def test_split_contents_disjoint_and_sized():
    contents = [f"c{i:02d}" for i in range(20)]
    train, val, test = split_contents(contents, np.random.default_rng(3))
    assert len(val) == len(test) == 3
    assert len(train) == 14
    assert not (train & val or train & test or val & test)
    assert train | val | test == set(contents)

    # tiny pools still get one content in each subset
    train, val, test = split_contents(["a", "b", "c"], np.random.default_rng(3))
    assert len(train) == len(val) == len(test) == 1


def _synthetic_dataset(rng, n_contents=10, per_content=6, noise=0.2):
    rows, features = [], {}
    for c in range(n_contents):
        for k in range(per_content):
            x = rng.normal(size=16)
            dmos = 20.0 + 6.0 * x[0] + 2.0 * x[3] + rng.normal(0, noise)
            ref, dist = f"r{c}.y4m", f"d{c}_{k}.y4m"
            rows.append(DatasetRow(f"c{c:02d}", ref, dist, Fraction(30), dmos))
            features[(ref, dist)] = {"values": x}
    return rows, features


def test_run_protocol_learns_planted_relation(rng):
    rows, features = _synthetic_dataset(rng)
    grid = [(100.0, 0.1, g) for g in (2.0 ** -4, 2.0 ** -2)]
    report = run_protocol(rows, features, trials=5, seed=7, grid=grid)
    assert report.srocc > 0.8
    assert report.plcc > 0.8
    assert report.n_trials == 5
    assert len(report.per_trial["srocc"]) == 5


def test_run_protocol_deterministic(rng):
    rows, features = _synthetic_dataset(rng, n_contents=6, per_content=5)
    grid = [(100.0, 0.1, 0.0625)]
    r1 = run_protocol(rows, features, trials=3, seed=11, grid=grid)
    r2 = run_protocol(rows, features, trials=3, seed=11, grid=grid)
    assert r1.per_trial == r2.per_trial
    r3 = run_protocol(rows, features, trials=3, seed=12, grid=grid)
    assert r1.per_trial != r3.per_trial


def test_run_protocol_and_train_model_do_not_depend_on_the_core_count(rng, pin_cores):
    rows, features = _synthetic_dataset(rng, n_contents=8, per_content=5)
    grid = DEFAULT_GRID[::9]

    def exact(model):
        return (model.hyperparams, float.hex(model.bias),
                [float.hex(float(b)) for b in model.dual_coeffs])

    reports, models = [], []
    for cores in (1, 2):  # fits in-process, then in two workers
        pin_cores(cores)
        reports.append(repr(run_protocol(rows, features, trials=2, seed=3, grid=grid).per_trial))
        models.append(exact(train_model(rows, features, seed=3, grid=grid)))
    assert reports[0] == reports[1]
    assert models[0] == models[1]


_THREADS_CHILD = """
import json, os, sys
from fractions import Fraction
cores = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cores))  # as the pin_cores fixture does
from stgreed.evaluate import DatasetRow, run_protocol, train_model
data = json.load(sys.stdin)
rows = [DatasetRow(c, ref, dist, Fraction(30), dmos) for c, ref, dist, dmos in data["rows"]]
features = {(r.ref, r.dist): {"values": v} for r, v in zip(rows, data["values"])}
print(repr(run_protocol(rows, features, trials=1, seed=2, grid=data["grid"]).per_trial))
model = train_model(rows, features, seed=2, grid=data["grid"])
print(repr((model.hyperparams, float.hex(model.bias),
            [float.hex(float(b)) for b in model.dual_coeffs])))
"""


def test_run_protocol_and_train_model_do_not_depend_on_blas_threads_or_cores(rng):
    # The kernels' matmuls and the face steps' matvecs run in BLAS, whose
    # thread count taskset changes; their bytes must not follow it, in the
    # protocol's report or in train_model's model. The grid's C = 1000 fit
    # runs long enough to take face steps.
    rows, features = _synthetic_dataset(rng, n_contents=10, per_content=12, noise=5.0)
    data = {"rows": [(r.content_id, r.ref, r.dist, r.dmos) for r in rows],
            "values": [list(features[(r.ref, r.dist)]["values"]) for r in rows],
            "grid": [(1000.0, 0.1, 2.0 ** -6), (10.0, 2.0, 2.0 ** -6)]}
    src = str(Path(stgreed.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):  # with one core, then two grid workers
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        reports.append(subprocess.run([sys.executable, "-c", _THREADS_CHILD, threads], cwd=src,
                                      env=env, check=True, input=json.dumps(data),
                                      capture_output=True, text=True, timeout=120).stdout)
    assert ast.literal_eval(reports[0].splitlines()[0])["grid_face_steps"][0] > 0
    assert reports[0] == reports[1]


@pytest.mark.parametrize("call", [run_protocol, train_model])
def test_protocol_checks_seed_before_the_table(rng, call):
    rows, features = _synthetic_dataset(rng, n_contents=4, per_content=2)
    del features[(rows[0].ref, rows[0].dist)]  # the table's own check would fail later
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        call(rows, features, seed=-1)


def test_run_protocol_missing_features(rng):
    rows, features = _synthetic_dataset(rng, n_contents=4, per_content=2)
    del features[(rows[0].ref, rows[0].dist)]
    with pytest.raises(ValueError, match="missing cached features"):
        run_protocol(rows, features, trials=1)


def test_dump_histogram_zero_coefficients():
    centers, density = dump_histogram(np.zeros((4, 3, 3)), 11)
    assert density[5] > 0  # everything lands in the middle bin
    assert np.count_nonzero(density) == 1
    np.testing.assert_allclose(centers[5], 0.0, atol=1e-12)


def test_dump_histogram_unit_area(rng):
    coeffs = rng.normal(size=(6, 10, 10))
    centers, density = dump_histogram(coeffs, 64)
    widths = np.diff(centers)[0]
    assert np.sum(density) * widths == pytest.approx(1.0)
    assert centers[0] == pytest.approx(-centers[-1])


def test_dump_histogram_matches_gaussian(rng):
    coeffs = rng.normal(size=200_000)
    centers, density = dump_histogram(coeffs, 101)
    expect = np.exp(-centers ** 2 / 2) / np.sqrt(2 * np.pi)
    mid = np.abs(centers) < 2.0
    np.testing.assert_allclose(density[mid], expect[mid], rtol=0.1)


def test_dump_histogram_has_at_most_one_bin_per_coefficient():
    coeffs = np.arange(36.0).reshape(4, 3, 3)
    centers, density = dump_histogram(coeffs, 36)
    assert len(centers) == len(density) == 36
    with pytest.raises(ValueError, match=r"^bins must be <= the 36 coefficients, got 37$"):
        dump_histogram(coeffs, 37)


def test_format_histogram():
    out = format_histogram(np.array([-0.5, 0.5]), np.array([0.25, 0.75]))
    lines = out.strip().split("\n")
    assert lines == ["-0.5\t0.25", "0.5\t0.75"]


def _gather(rows, features, subset):
    """The rows of the contents in subset as (X, y), in manifest order."""
    picked = [r for r in rows if r.content_id in subset]
    return (np.array([features[(r.ref, r.dist)]["values"] for r in picked]),
            np.array([r.dmos for r in picked]))


def test_train_model_matches_split_grid_search_and_fit(rng):
    rows, features = _synthetic_dataset(rng, n_contents=8, per_content=5)
    # At seed 1 this grid picks a different point if the split's test part
    # is left out of training, if validation and test swap, or if the split
    # draws from another RNG stream.
    grid = [(C, 0.1, 2.0 ** e) for C in (1.0, 10.0, 100.0) for e in (-6, -4, -2, 0)]
    model = train_model(rows, features, seed=1, grid=grid, fingerprint="f00d")

    contents = sorted({r.content_id for r in rows})
    train, val, test = split_contents(contents, np.random.default_rng([1, 0]))
    hp = grid_search(_gather(rows, features, train | test), _gather(rows, features, val), grid)
    X, y = _gather(rows, features, set(contents))
    expect = train_svr(X, y, hp, fingerprint="f00d")
    assert model.hyperparams == expect.hyperparams
    assert model.fingerprint == "f00d"
    np.testing.assert_array_equal(predict(model, X), predict(expect, X))


def test_run_protocol_matches_trials_recomputed_by_hand(rng):
    # Uneven versions per content, with the manifest's rows shuffled so that
    # contents interleave: each split's rows must reach the fits in manifest
    # order for every entry to come out equal. The last content's id is the
    # first's with a trailing NUL, and the two must stay apart.
    rows, features = [], {}
    for c, versions in enumerate((5, 7, 6, 9, 5, 8, 6, 10)):
        content = "c00\0" if c == 7 else f"c{c:02d}"
        for k in range(versions):
            x = rng.normal(size=16)
            ref, dist = f"r{c}.y4m", f"d{c}_{k}.y4m"
            rows.append(DatasetRow(content, ref, dist, Fraction(30),
                                   20.0 + 6.0 * x[0] + 2.0 * x[3] + rng.normal(0, 2.0)))
            features[(ref, dist)] = {"values": x}
    rows = [rows[i] for i in rng.permutation(len(rows))]
    grid = [(C, 0.1, 2.0 ** e) for C in (1.0, 100.0) for e in (-4, -2)]
    per_trial = run_protocol(rows, features, trials=2, seed=11, grid=grid).per_trial

    contents = sorted({r.content_id for r in rows})
    for trial in range(2):
        train, val, test = split_contents(contents, np.random.default_rng([11, trial]))
        (X_tr, y_tr), (X_te, y_te) = _gather(rows, features, train), _gather(rows, features, test)
        hp = grid_search((X_tr, y_tr), _gather(rows, features, val), grid)
        model = train_svr(X_tr, y_tr, hp)
        pred = predict(model, X_te)
        fit = plcc_rmse(pred, y_te)
        # The grid's fits are train_svr fits of its points on the training rows.
        grid_smo = [train_svr(X_tr, y_tr, point).smo for point in grid]
        want = {"srocc": srocc(pred, y_te), "krocc": krocc(pred, y_te),
                "plcc": fit.plcc, "rmse": fit.rmse, "hyperparams": model.hyperparams,
                "smo_iterations": model.smo[0], "smo_converged": model.smo[1],
                "smo_gap": model.smo[2], "logistic_converged": fit.converged,
                "grid_smo_iterations": sum(it for it, _, _ in grid_smo),
                "grid_face_steps": sum(it // _FACE_EVERY for it, _, _ in grid_smo),
                "grid_unconverged": sum(not converged for _, converged, _ in grid_smo)}
        assert {key: values[trial] for key, values in per_trial.items()} == want
    assert list(per_trial) == list(want)


def test_train_model_needs_three_contents(rng):
    rows, features = _synthetic_dataset(rng, n_contents=2, per_content=3)
    with pytest.raises(ValueError, match="at least 3 contents"):
        train_model(rows, features)
    # run_protocol shares the check and its message.
    with pytest.raises(ValueError, match="^need at least 3 contents, got 2$"):
        run_protocol(rows, features, trials=1)


def test_run_protocol_lists_every_missing_pair(rng):
    rows, features = _synthetic_dataset(rng, n_contents=4, per_content=2)
    for r in rows[1:4]:
        del features[(r.ref, r.dist)]
    with pytest.raises(ValueError, match="missing cached features for 3 pairs") as exc:
        run_protocol(rows, features, trials=1)
    for r in rows[1:4]:
        assert f"  {r.ref} / {r.dist}" in str(exc.value)


def test_run_protocol_reports_hyperparams_and_logistic_convergence(rng):
    rows, features = _synthetic_dataset(rng, n_contents=6, per_content=5)
    grid = [(100.0, 0.1, 0.0625), (10.0, 0.1, 0.25)]
    report = run_protocol(rows, features, trials=3, seed=5, grid=grid)
    assert len(report.per_trial["hyperparams"]) == 3
    assert all(hp in grid for hp in report.per_trial["hyperparams"])
    assert [type(c) for c in report.per_trial["logistic_converged"]] == [bool] * 3


_PROTOCOL_CHILD = """
import json, sys
from fractions import Fraction
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # importing scipy or any submodule now fails
from stgreed.evaluate import DatasetRow, run_protocol
data = json.load(sys.stdin)
rows = [DatasetRow(c, ref, dist, Fraction(30), dmos) for c, ref, dist, dmos in data["rows"]]
features = {(r.ref, r.dist): {"values": v} for r, v in zip(rows, data["values"])}
report = run_protocol(rows, features, trials=2, seed=4, grid=data["grid"])
print(repr(report.per_trial))
print(" ".join(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


@pytest.mark.parametrize("mode", ["block", "free"])
def test_run_protocol_needs_no_scipy(rng, mode):
    rows, features = _synthetic_dataset(rng, n_contents=6, per_content=5)
    grid = [(100.0, 0.1, 0.0625), (10.0, 1.0, 0.25)]
    data = {"rows": [(r.content_id, r.ref, r.dist, r.dmos) for r in rows],
            "values": [list(features[(r.ref, r.dist)]["values"]) for r in rows],
            "grid": grid}
    src = str(Path(stgreed.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PROTOCOL_CHILD, mode], cwd=src, check=True,
                         input=json.dumps(data), capture_output=True, text=True).stdout
    per_trial, loaded = out.split("\n")[:2]
    assert loaded == ""
    want = run_protocol(rows, features, trials=2, seed=4, grid=grid).per_trial
    assert per_trial == repr(want)
