import json
import math
import re
import threading
from fractions import Fraction

import numpy as np
import pytest

from stgreed import features, ggd
from stgreed.bandpass import build_packet_filters
from stgreed.features import (EntropyField, GreedConfig,
                              append_cache_record, average_reference_entropies,
                              block_entropies, compute_features, read_cache,
                              sgreed_frame, tgreed_frame)
from stgreed.video import LumaVideo, kept_indices, load_y4m, make_pseudo_reference

from conftest import write_y4m


def test_block_entropies_all_zero_frame():
    field = block_entropies(np.zeros((2, 10, 10)), 0.1)
    assert field.values.shape == (2, 4)  # a 2x2 grid of 5x5 patches per frame
    assert np.all(field.frame_betas == ggd.BETA_MAX)
    alpha = ggd.alpha_from_sigma_beta(math.sqrt(0.1), ggd.BETA_MAX)
    expect = math.log1p(0.1) * ggd.ggd_entropy(alpha, ggd.BETA_MAX)
    np.testing.assert_allclose(field.values, expect, atol=1e-12)


def test_block_entropies_gaussian_frames(rng):
    # variance 100 so the 0.1 noise correction barely moves the kurtosis
    frames = 10.0 * rng.normal(size=(4, 100, 100))
    field = block_entropies(frames, 0.1)
    assert np.all((field.frame_betas > 1.8) & (field.frame_betas < 2.2))
    alpha = ggd.alpha_from_sigma_beta(math.sqrt(100.1), 2.0)
    expect = math.log1p(100.1) * ggd.ggd_entropy(alpha, 2.0)
    assert abs(field.values.mean() - expect) < 0.05 * abs(expect)


def test_block_entropies_noise_tempers_low_variance(rng):
    # the same unit-variance Gaussian yields a larger beta once the noise
    # correction deflates the kurtosis: 3 * (1 / 1.1)^2 -> beta above 2
    frames = rng.normal(size=(2, 100, 100))
    field = block_entropies(frames, 0.1)
    assert np.all(field.frame_betas > 2.5)


def test_block_entropies_scaling_recompute_oracle(rng):
    frames = rng.normal(size=(2, 40, 40)) * 20.0
    f1 = block_entropies(frames, 0.1)
    f2 = block_entropies(2.0 * frames, 0.1)
    # betas nearly agree; the noise term breaks exact scale invariance
    np.testing.assert_allclose(f1.frame_betas, f2.frame_betas, rtol=1e-2)

    # recompute each patch entropy directly from the moment formulas
    for t in range(2):
        beta = f2.frame_betas[t]
        blocks = (2.0 * frames[t]).reshape(8, 5, 8, 5)
        var = blocks.var(axis=(1, 3)).ravel()
        sigma = np.sqrt(var + 0.1)
        const = math.sqrt(ggd.gamma_fn(1 / beta) / ggd.gamma_fn(3 / beta))
        expect = np.log1p(var + 0.1) * (ggd.ggd_entropy(1.0, beta) + np.log(sigma * const))
        np.testing.assert_allclose(f2.values[t], expect, rtol=1e-9)


def test_each_call_takes_one_beta_bisection(monkeypatch):
    # One bisection over all the frames of the call's tables: per scale, the
    # reference's 8 rows of 24 frames and the pseudo reference's 7 and the
    # distorted video's 8 of 12 on the first call, the distorted video's
    # alone after.
    rng = np.random.default_rng(4)
    frames = rng.uniform(0, 255, size=(24, 64, 64))
    frames.setflags(write=False)
    ref = LumaVideo(frames, 60)
    dist = LumaVideo(np.clip(frames[::2] + rng.normal(0, 9, (12, 64, 64)), 0, 255), 30)
    lanes = []
    beta_from_kurtosis = ggd.beta_from_kurtosis
    monkeypatch.setattr(ggd, "beta_from_kurtosis",
                        lambda kappa: lanes.append(kappa.shape) or beta_from_kurtosis(kappa))
    cfg = GreedConfig(scales=(1, 2))
    first = compute_features(ref, dist, cfg).values
    assert lanes == [(2 * (8 * 24 + 7 * 12 + 8 * 12),)]
    lanes.clear()
    assert np.array_equal(compute_features(ref, dist, cfg).values, first)
    assert lanes == [(2 * 8 * 12,)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_features_starts_no_thread(rng, monkeypatch, jobs):
    def start(thread):
        raise AssertionError("compute_features started a thread")

    ref = LumaVideo(rng.uniform(0, 255, size=(24, 32, 32)), 60)
    dist = LumaVideo(rng.uniform(0, 255, size=(12, 32, 32)), 30)
    monkeypatch.setattr(threading.Thread, "start", start)
    assert compute_features(ref, dist, GreedConfig(scales=(1, 2)), jobs=jobs).values.shape == (16,)


def test_block_entropies_of_no_stacks_is_an_empty_list():
    assert block_entropies(iter([]), 0.1) == []


def test_block_entropies_rejects_small_frames():
    with pytest.raises(ValueError):
        block_entropies(np.zeros((1, 4, 4)), 0.1)
    with pytest.raises(ValueError, match="frames smaller than one 5x5 patch"):
        block_entropies(iter([np.zeros((1, 5, 5)), np.zeros((1, 4, 5))]), 0.1)


@pytest.mark.parametrize("noise_var", [0, -1, math.inf, math.nan])
@pytest.mark.parametrize("shape", [(2, 3, 10, 10), (2, 0, 10, 10), (1, 4, 4)])
def test_block_entropies_rejects_bad_noise_var_first(noise_var, shape):
    # Checked before any array work: also with no frames, and before the size check.
    with pytest.raises(ValueError, match=re.escape(
            f"noise variance must be finite and > 0, got {noise_var}")):
        block_entropies(np.zeros(shape), noise_var)


def _field(values):
    values = np.asarray(values, dtype=np.float64)
    return EntropyField(values, np.full(values.shape[0], 2.0))


def test_average_reference_identity():
    f = _field([[1.0], [3.0], [5.0]])
    out = average_reference_entropies(f, 1, n_out=3)
    np.testing.assert_array_equal(out.values, f.values)


def test_average_reference_pairwise():
    f = _field([[1.0], [3.0], [5.0], [7.0]])
    out = average_reference_entropies(f, 2, n_out=2)
    np.testing.assert_allclose(out.values, [[2.0], [6.0]])


def test_average_reference_non_integer():
    ratio = Fraction(120, 82)
    f = _field(np.arange(120.0)[:, None])
    out = average_reference_entropies(f, ratio, n_out=82)
    assert out.values.shape[0] == 82
    bounds = [int(i * ratio) for i in range(83)]
    lengths = np.diff(bounds)
    assert set(lengths) <= {1, 2}
    assert lengths.sum() == 120
    for i in range(82):
        np.testing.assert_allclose(
            out.values[i, 0], np.mean(np.arange(bounds[i], bounds[i + 1])))


def test_average_reference_rejects_upsampling():
    with pytest.raises(ValueError):
        average_reference_entropies(_field([[1.0]]), Fraction(1, 2), n_out=1)


def test_tgreed_frame_examples():
    assert tgreed_frame([2.0, 3.0], [2.0, 3.0], [2.0, 3.0]) == 0.0
    assert abs(tgreed_frame([2.0], [1.0], [3.0]) - 3.5) < 1e-12
    # distorted equals the subsampled reference but not the reference
    val = tgreed_frame([2.0, 4.0], [1.0, 3.0], [1.0, 3.0])
    expect = 0.5 * (abs(3.0 / 2.0 - 1) + abs(5.0 / 4.0 - 1))
    assert abs(val - expect) < 1e-12
    assert val > 0


def test_tgreed_frame_length_mismatch():
    with pytest.raises(ValueError):
        tgreed_frame([1.0], [1.0, 2.0], [1.0])


def test_sgreed_frame_examples():
    assert sgreed_frame([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(sgreed_frame([1.0, 2.0], [2.0, 4.0]) - 1.5) < 1e-12
    a = np.array([0.3, 1.7, 2.9])
    b = np.array([1.1, 0.2, 3.4])
    perm = [2, 0, 1]
    assert abs(sgreed_frame(a, b) - sgreed_frame(a[perm], b[perm])) < 1e-12


def test_compute_features_self_is_zero(rng):
    frames = rng.uniform(0, 255, size=(20, 64, 64))
    v = LumaVideo(frames, 60)
    cfg = GreedConfig(wavelet="haar", scales=(1, 2))
    feats = compute_features(v, v, cfg)
    assert feats.values.shape == (16,)
    assert np.abs(feats.values).max() <= 1e-9


def test_compute_features_validates_inputs(rng):
    a = LumaVideo(rng.uniform(0, 255, size=(8, 32, 32)), 60)
    b = LumaVideo(rng.uniform(0, 255, size=(8, 16, 16)), 60)
    with pytest.raises(ValueError, match="resolution"):
        compute_features(a, b, GreedConfig(scales=(1,)))
    c = LumaVideo(rng.uniform(0, 255, size=(8, 32, 32)), 120)
    with pytest.raises(ValueError, match="fps"):
        compute_features(a, c, GreedConfig(scales=(1,)))


def test_bior22_bank_needs_nine_frames(rng):
    # compute_features needs 4 * T >= the longest filter, 36 taps for bior2.2
    cfg = GreedConfig(scales=(1,))
    assert max(len(f) for f in build_packet_filters(cfg.wavelet, cfg.levels).filters) == 36
    frames = rng.uniform(0, 255, size=(9, 24, 24))
    v = LumaVideo(frames, 60)
    assert np.all(compute_features(v, v, cfg).values == 0.0)
    short = LumaVideo(frames[:8], 60)
    with pytest.raises(ValueError, match="video too short for the temporal filter bank"):
        compute_features(short, short, cfg)


def test_short_clip_rejected_before_the_bank_is_built(rng, monkeypatch):
    # bior2.2 at 9 levels has 2556 taps; building them for 8 frames is waste
    def must_not_build(*args):
        raise AssertionError("filter bank built for a clip it cannot fit")

    monkeypatch.setattr(features, "build_packet_filters", must_not_build)
    v = LumaVideo(rng.uniform(0, 255, size=(8, 24, 24)), 60)
    with pytest.raises(ValueError, match="2556 taps need at least 639 frames, got 8"):
        compute_features(v, v, GreedConfig(scales=(1,), levels=9))


def test_filter_bank_guard_counts_the_frame_dropped_reference(rng, monkeypatch):
    # 9 frames at 60 fps dropped to 30 fps keep 5, too few for 36 taps, even
    # though both inputs have 9 frames: the guard fires before any pooling.
    frames = rng.uniform(0, 255, size=(9, 24, 24))
    ref, dist = LumaVideo(frames, 60), LumaVideo(frames, 30)
    pooled = []
    monkeypatch.setattr(features, "downsample", lambda video, s: pooled.append(s))
    with pytest.raises(ValueError, match="video too short for the temporal filter bank"):
        compute_features(ref, dist, GreedConfig(scales=(1,)))
    assert pooled == []


def test_compute_features_finite_and_non_negative(rng):
    ref = LumaVideo(rng.uniform(0, 255, size=(16, 64, 64)), 60)
    pr = make_pseudo_reference(ref, 30)
    values = compute_features(ref, pr.video, GreedConfig(wavelet="db2", scales=(1, 2))).values
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_compute_features_rejects_non_positive_jobs(rng, jobs):
    v = LumaVideo(rng.uniform(0, 255, size=(16, 32, 32)), 60)
    with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
        compute_features(v, v, GreedConfig(scales=(1,)), jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -3])
def test_compute_features_checks_jobs_before_downsampling(rng, monkeypatch, jobs):
    pooled = []
    monkeypatch.setattr(features, "downsample", lambda video, s: pooled.append(s))
    v = LumaVideo(rng.uniform(0, 255, size=(16, 32, 32)), 60)
    with pytest.raises(ValueError):
        compute_features(v, v, GreedConfig(scales=(1,)), jobs=jobs)
    assert pooled == []


def test_additive_noise_raises_sgreed(rng):
    base = rng.uniform(20, 235, size=(10, 80, 80))
    ref = LumaVideo(base, 30)
    cfg = GreedConfig(wavelet="haar", scales=(1,))
    sgreeds = []
    for sigma in (2.0, 5.0, 10.0):
        noisy = np.clip(base + rng.normal(0, sigma, size=base.shape), 0, 255)
        feats = compute_features(ref, LumaVideo(noisy, 30), cfg)
        sgreeds.append(feats.values[0])
    assert sgreeds[0] < sgreeds[1] < sgreeds[2]


def test_feature_cache_round_trip(tmp_path, rng):
    cfg = GreedConfig()
    values = rng.normal(size=16)
    feats = type("F", (), {"values": values, "config": cfg})()
    path = tmp_path / "cache.jsonl"
    append_cache_record(path, "r.y4m", "d.y4m", "c01", feats)
    append_cache_record(path, "r.y4m", "d2.y4m", "c01", feats)
    cache = read_cache(path, fingerprint=cfg.fingerprint())
    assert set(cache) == {("r.y4m", "d.y4m"), ("r.y4m", "d2.y4m")}
    np.testing.assert_array_equal(cache[("r.y4m", "d.y4m")]["values"], values)
    # wrong fingerprint filters records out
    assert read_cache(path, fingerprint="0" * 16) == {}


def test_feature_cache_corrupt_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"fingerprint": "x"\n')
    with pytest.raises(ValueError, match=":1:"):
        read_cache(path)


def _record(values, fingerprint="f" * 16, dist="d.y4m"):
    return json.dumps({"fingerprint": fingerprint, "ref": "r.y4m", "dist": dist,
                       "content": "c01", "values": values}) + "\n"


@pytest.mark.parametrize("n_other", [15, 17])
def test_feature_cache_rejects_a_record_of_another_length(tmp_path, n_other):
    path = tmp_path / "cache.jsonl"
    path.write_text(_record([0.5] * 16) + _record([1] * 16, dist="d2.y4m")
                    + _record([0.5] * n_other, dist="d3.y4m"))
    with pytest.raises(ValueError, match=re.escape(
            f"cache.jsonl:3: cache record has {n_other} values, but the record on line 1 "
            "has 16")):
        read_cache(path)
    # Records of another configuration are skipped, whatever their length.
    cache = read_cache(path, fingerprint="0" * 16)
    assert cache == {}


def test_feature_cache_reads_values_as_float64(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_record([1, 2, 3]) + _record([2 ** 60, 0.5, 1e308], dist="d2.y4m"))
    cache = read_cache(path)
    assert cache[("r.y4m", "d.y4m")]["values"].dtype == np.float64
    assert cache[("r.y4m", "d2.y4m")]["values"].tolist() == [2.0 ** 60, 0.5, 1e308]


def test_feature_cache_skips_blank_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("\n" + _record([0.5] * 16) + "  \n\n" + _record([1.5] * 16, dist="d2.y4m"))
    cache = read_cache(path)
    assert set(cache) == {("r.y4m", "d.y4m"), ("r.y4m", "d2.y4m")}
    assert cache[("r.y4m", "d2.y4m")]["values"].tolist() == [1.5] * 16


@pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), 2 ** 1024],
                         ids=["1e400", "-1e400", "2**1024"])
def test_feature_cache_rejects_an_int_beyond_float64(tmp_path, big):
    path = tmp_path / "cache.jsonl"
    path.write_text(_record([0.5] * 16) + _record([0.5] * 15 + [big], dist="d2.y4m"))
    with pytest.raises(ValueError, match=re.escape(
            "cache.jsonl:2: cache record's values must be a non-empty list of finite numbers")):
        read_cache(path)


def test_config_fingerprint_distinguishes():
    a = GreedConfig()
    assert a.fingerprint() == GreedConfig().fingerprint()
    assert a.fingerprint() != GreedConfig(wavelet="haar").fingerprint()
    assert a.fingerprint() != GreedConfig(noise_var=0.2).fingerprint()


@pytest.mark.parametrize("field, value, error", [
    ("noise_var", math.inf, "noise variance must be finite and > 0, got inf"),
    ("noise_var", math.nan, "noise variance must be finite and > 0, got nan"),
    ("noise_var", 0.0, "noise variance must be finite and > 0, got 0.0"),
    ("patch_size", 0, "patch size must be >= 1, got 0"),
    ("wavelet", "db4", "unknown wavelet 'db4'"),
    ("levels", 0, "levels must be >= 1"),
    ("scales", (), "scales must not be empty"),
    ("scales", (4, -1), "scale exponent must be >= 0"),
])
def test_config_rejects_bad_fields_when_built(field, value, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        GreedConfig(**{field: value})


def test_fingerprint_changes_with_feature_version(monkeypatch):
    before = GreedConfig().fingerprint()
    monkeypatch.setattr(features, "FEATURE_VERSION", features.FEATURE_VERSION + 1)
    assert GreedConfig().fingerprint() != before


def test_feature_cache_skips_unterminated_final_record(tmp_path):
    cfg = GreedConfig()
    feats = type("F", (), {"values": np.arange(16.0), "config": cfg})()
    path = tmp_path / "cache.jsonl"
    append_cache_record(path, "r.y4m", "d.y4m", "c01", feats)
    with open(path, "a") as f:  # a write cut short by a crash
        f.write('{"fingerprint": "%s", "ref": "r.y4m", "di' % cfg.fingerprint())
    with pytest.warns(UserWarning, match=":2: skipping unterminated"):
        cache = read_cache(path, fingerprint=cfg.fingerprint())
    assert set(cache) == {("r.y4m", "d.y4m")}
    np.testing.assert_array_equal(cache[("r.y4m", "d.y4m")]["values"], np.arange(16.0))


@pytest.mark.parametrize("dist_fps", [Fraction(120), Fraction(60), Fraction(82)])
def test_uint8_frames_score_as_their_float64_values(tmp_path, rng, dist_fps):
    ref = rng.integers(0, 256, size=(30, 160, 192)).astype(np.uint8)
    kept = kept_indices(30, 120, dist_fps)
    dist = np.clip(ref[kept] + rng.normal(0, 12, size=(len(kept), 160, 192)), 0, 255)
    write_y4m(tmp_path / "ref.y4m", ref, fps_num=120)
    write_y4m(tmp_path / "dist.y4m", np.rint(dist), fps_num=dist_fps)
    ref8, dist8 = load_y4m(tmp_path / "ref.y4m"), load_y4m(tmp_path / "dist.y4m")
    assert ref8.frames.dtype == dist8.frames.dtype == np.uint8
    got = compute_features(ref8, dist8).values
    want = compute_features(LumaVideo(ref8.frames.astype(np.float64), 120),
                            LumaVideo(dist8.frames.astype(np.float64), dist_fps)).values
    assert np.array_equal(got, want)
