"""Tests of the benchmark itself: python3 -m pytest perfbench (from the repository root)."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import stgreed  # noqa: E402
import tracer  # noqa: E402
from stgreed import bandpass, features, svr, video  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

SMALL = dict(width=192, height=160, n_ref=20, ref_fps=120, dist_fps=(120, 82, 60))


def _write(tmp_path, name, seed, ten_bit):
    out = tmp_path / name
    out.mkdir()
    return gen.write_videos(seed, str(out), ten_bit=ten_bit, **SMALL)


def _read_all(paths):
    files = [paths["ref"]] + [p for _, p in paths["dists"]]
    return [open(p, "rb").read() for p in files]


@pytest.mark.parametrize("ten_bit", [False, True])
def test_generator_is_deterministic_per_seed(tmp_path, ten_bit):
    a = _write(tmp_path, "a", 5, ten_bit)
    b = _write(tmp_path, "b", 5, ten_bit)
    c = _write(tmp_path, "c", 6, ten_bit)
    assert _read_all(a) == _read_all(b)
    assert _read_all(a)[0] != _read_all(c)[0]

    ref = video.load_y4m(a["ref"])
    assert (ref.num_frames, ref.height, ref.width, ref.fps) == (20, 160, 192, 120)
    for fps, path in a["dists"]:
        dist = video.load_y4m(path)
        assert dist.fps == fps
        assert dist.num_frames == len(gen.kept_indices(20, 120, fps))


def test_protocol_table_is_fixed():
    a, b = gen.protocol_table(), gen.protocol_table()
    assert len(a) == 16 * 30 and len({r[0] for r in a}) == 16
    assert len({r[2] for r in a}) == len(a)
    for ra, rb in zip(a, b):
        assert ra[:5] == rb[:5] and ra[6] == rb[6]
        assert np.array_equal(ra[5], rb[5]) and ra[5].shape == (16,)


def test_protocol_inputs_order_records_by_seed(tmp_path):
    cfg = features.GreedConfig()

    def write(name, seed):
        out = tmp_path / name
        out.mkdir()
        paths = gen.make_protocol_inputs(seed, str(out), features.append_cache_record,
                                         lambda v: features.GreedFeatures(np.asarray(v), cfg))
        return [open(paths[k]).read().splitlines() for k in ("manifest", "cache")]

    a, b, c = write("a", 5), write("b", 5), write("c", 6)
    assert a == b
    assert a != c and all(sorted(x) == sorted(y) for x, y in zip(a, c))


def test_band_pass_coefficients_are_heavy_tailed():
    # A Gaussian has kurtosis 3; natural video's band-pass coefficients more.
    frames = gen.reference_frames(7, 960, 540, 12).astype(np.float64)

    def kurtosis(x):
        x = x - x.mean()
        return float(np.mean(x ** 4) / np.mean(x ** 2) ** 2)

    assert kurtosis(bandpass.spatial_ms(frames[0])) > 4.0
    bank = bandpass.build_packet_filters("bior2.2", 3)
    assert kurtosis(bandpass.temporal_filter(frames, bank.filters[6]).coeffs) > 3.5


def _pair(tmp_path):
    paths = _write(tmp_path, "pair", 9, False)
    return paths["ref"], paths["dists"][2][1]


def test_tracer_wraps_caller_names_and_restores_them(tmp_path):
    original = video.downsample
    tracer = Tracer()
    tracer.install()
    try:
        assert features.downsample is video.downsample is stgreed.downsample
        assert video.downsample is not original
        assert video.downsample.__wrapped__ is original
        assert not hasattr(svr._rbf, "__wrapped__")
    finally:
        tracer.uninstall()
    assert features.downsample is original and stgreed.downsample is original


@pytest.mark.parametrize("jobs", [1, 2])
def test_self_times_add_up(tmp_path, jobs):
    ref_path, dist_path = _pair(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        ref = stgreed.load_y4m(ref_path)
        dist = stgreed.load_y4m(dist_path)
        features.compute_features(ref, dist, jobs=jobs)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    own = self_times(spans)
    assert all(v >= -1e-9 for v in own.values())
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["video.load_y4m", "video.load_y4m",
                                      "features.compute_features"]
    compute = roots[-1]
    assert all(s.parent is not None for s in spans if s not in roots)
    if jobs == 1:
        # On one thread, children nest inside their parent and never overlap.
        total = sum(s.t1 - s.t0 for s in roots)
        assert sum(own.values()) == pytest.approx(total, rel=1e-9)
    else:
        assert own[compute.id] <= compute.t1 - compute.t0

    t0, t1 = min(s.t0 for s in spans), max(s.t1 for s in spans)
    m = layer_metrics(spans, t0, t1)
    assert m["video.downsample.calls"] == 6
    assert m["video.downsample.dup_ratio"] > 1.0
    assert m["features.compute_features.self_s"] == pytest.approx(own[compute.id])
    assert m["trace.unattributed_s"] >= 0.0
    assert m["svr.train_svr.calls"] == 0 and m["svr.train_svr.s"] == 0


def _feature_result(values):
    return {"ops": [{"name": "60fps", "ok": True, "features": values}]}


def test_perturbed_feature_counts_failed():
    want = {"60fps": [0.25, 0.5, 1.0e-3]}
    assert checks.check_pass("pair_1080p_hfr", ["60fps"], _feature_result(list(want["60fps"])),
                             want)[:2] == (1, 0)
    perturbed = list(want["60fps"])
    perturbed[1] *= 1.0 + 1e-6
    assert checks.check_pass("pair_1080p_hfr", ["60fps"], _feature_result(perturbed),
                             want)[:2] == (1, 1)
    # Without a record only finiteness and sign are checked.
    assert checks.check_pass("pair_1080p_hfr", ["60fps"], _feature_result(perturbed))[:2] == (1, 0)
    assert checks.check_pass("pair_1080p_hfr", ["60fps"],
                             _feature_result([0.1, float("nan")]))[:2] == (1, 1)


def test_raised_missing_and_uncached_operations_count_failed(tmp_path):
    ops = ["120fps", "60fps"]
    raised = {"ops": [{"name": "120fps", "ok": False, "error": "Traceback"}]}
    assert checks.check_pass("ladder_540p", ops, raised)[:2] == (2, 2)
    assert checks.check_pass("ladder_540p", ops, None)[:2] == (2, 2)
    both = {"ops": [{"name": n, "ok": True, "features": [0.1, 0.2]} for n in ops]}
    cache = tmp_path / "features.jsonl"
    cache.write_text('{"values": [0.1, 0.2]}\n')
    assert checks.check_pass("ladder_540p", ops, both, None, str(cache))[:2] == (2, 1)


def test_protocol_checks():
    def result(metrics):
        return {"ops": [{"name": "protocol", "ok": True,
                         "per_trial": {k: [v] for k, v in metrics.items()}}]}

    def failed(metrics, want=None):
        attempted, failed, _ = checks.check_pass("protocol_480", ["protocol"], result(metrics),
                                                 want)
        assert attempted == 1
        return failed

    rec = {"srocc": 0.88, "plcc": 0.89, "rmse": 5.5}
    near_tie = {"srocc": 0.87, "plcc": 0.88, "rmse": 5.8}
    want = {"protocol": [rec, near_tie]}
    assert failed(rec, want) == 0
    assert failed(near_tie, want) == 0
    for metric, tol in checks.PROTOCOL_TOL.items():
        assert failed(dict(rec, **{metric: rec[metric] + 0.5 * tol}), want) == 0
        assert failed(dict(rec, **{metric: rec[metric] - 2.0 * tol}), want) == 1
    # Each metric must match the same candidate.
    assert failed(dict(rec, rmse=near_tie["rmse"]), want) == 1
    assert failed(dict(rec, srocc=None), want) == 1
    # Without a record, the floor applies.
    assert failed(rec) == 0
    assert failed(dict(rec, srocc=checks.PROTOCOL_FLOOR["srocc"] - 0.01)) == 1
    assert failed(dict(rec, plcc=checks.PROTOCOL_FLOOR["plcc"] - 0.01)) == 1
    assert failed(dict(rec, rmse=checks.PROTOCOL_FLOOR["rmse"] + 0.1)) == 1


def test_failing_attribute_hook_leaves_the_call_alone(tmp_path, monkeypatch):
    ref_path, _ = _pair(tmp_path)

    def broken(args, kwargs, out):
        raise AttributeError("the result changed shape")

    monkeypatch.setattr(tracer, "TARGETS",
                        tuple((m, f, broken if hook else None) for m, f, hook in tracer.TARGETS))
    t = Tracer()
    t.install()
    try:
        ref = stgreed.load_y4m(ref_path)
    finally:
        t.uninstall()
    assert ref.num_frames == SMALL["n_ref"]
    (span,) = t.spans
    assert span.attrs is None
    m = layer_metrics(t.spans, span.t0, span.t1)
    assert m["trace.attrs_missing"] == 1
    assert m["video.load_y4m.mb_out"] == 0 and m["video.downsample.dup_ratio"] == 0
