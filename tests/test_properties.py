"""Invariants of pooling, frame dropping and self-scoring, checked as properties."""

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import convolve1d

from stgreed import ggd
from stgreed.bandpass import (_MS_WINDOW_1D, WAVELETS, build_packet_filters, spatial_ms,
                              temporal_filter)
from stgreed.features import GreedConfig, block_entropies, compute_features
from stgreed.video import LumaVideo, downsample, kept_indices, load_y4m, make_pseudo_reference

from conftest import (block_entropies_frame_by_frame, kept_by_floor, padded_loop_filter,
                      scalar_beta_from_kurtosis, write_y4m)

_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def videos(draw, min_frames=1, max_frames=6, min_side=1, max_side=70):
    t = draw(st.integers(min_frames, max_frames))
    h = draw(st.integers(min_side, max_side))
    w = draw(st.integers(min_side, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # 10-bit codes on the 8-bit scale: non-integer samples in [0, 255].
    frames = rng.integers(0, 1024, size=(t, h, w)) * (255.0 / 1023.0)
    return LumaVideo(frames, draw(st.sampled_from([24, 30, 60, 120])))


@_SETTINGS
@given(videos(), st.integers(0, 6))
def test_one_shot_pooling_equals_repeated_halving(v, s):
    assume((v.height >> s) >= 1 and (v.width >> s) >= 1)
    halved = v
    for _ in range(s):
        halved = downsample(halved, 1)
    got = downsample(v, s)
    assert got.frames.shape == (v.num_frames, v.height >> s, v.width >> s)
    np.testing.assert_allclose(got.frames, halved.frames, rtol=1e-12, atol=0)


@_SETTINGS
@given(st.integers(1, 3), st.integers(1, 70), st.integers(1, 70), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_uint8_pooling_equals_float64_pooling(t, h, w, s, seed):
    assume((h >> s) >= 1 and (w >> s) >= 1)
    samples = np.random.default_rng(seed).integers(0, 256, size=(t, h, w)).astype(np.uint8)
    got = downsample(LumaVideo(samples, 30), s).frames
    assert got.dtype == np.float64
    assert np.array_equal(got, downsample(LumaVideo(samples.astype(np.float64), 30), s).frames)


@_SETTINGS
@given(st.integers(1, 3), st.integers(1, 70), st.integers(1, 70), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_ten_bit_pooling_equals_scaled_float64_pooling(t, h, w, s, seed):
    # 10-bit codes are scaled once, after the exact integer block sum, so
    # they match the scaled codes pooled as float64 to rounding.
    assume((h >> s) >= 1 and (w >> s) >= 1)
    codes = np.random.default_rng(seed).integers(0, 1024, size=(t, h, w)).astype("<u2")
    got = downsample(LumaVideo(codes, 30), s).frames
    want = downsample(LumaVideo(codes * (255.0 / 1023.0), 30), s).frames
    assert got.dtype == np.float64
    if s == 0:
        assert np.array_equal(got, want)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@_SETTINGS
@given(videos(max_frames=30, min_side=8), st.integers(1, 120), st.integers(0, 3))
def test_frame_dropping_commutes_with_pooling(v, dist_fps, s):
    dist_fps = Fraction(min(dist_fps, v.fps))
    pr = make_pseudo_reference(v, dist_fps)
    np.testing.assert_array_equal(downsample(pr.video, s).frames,
                                  downsample(v, s).frames[pr.kept_indices])


# Integer rates and NTSC-style ones such as 30000/1001.
_FRAME_RATES = st.integers(1, 240).flatmap(
    lambda f: st.sampled_from([Fraction(f), Fraction(1000 * f, 1001)]))


@_SETTINGS
@given(st.integers(1, 5), st.integers(1, 40), st.integers(1, 40), _FRAME_RATES,
       st.integers(0, 2 ** 32 - 1))
def test_y4m_round_trip_preserves_video(t, h, w, fps, seed):
    frames = np.random.default_rng(seed).integers(0, 256, size=(t, h, w)).astype(np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.y4m")
        write_y4m(path, frames, fps.numerator, fps.denominator)
        back = load_y4m(path)
    np.testing.assert_array_equal(back.frames, frames)
    assert back.fps == fps


@_SETTINGS
@given(st.integers(1, 500), st.integers(1, 240), st.integers(1, 240))
def test_kept_indices_is_floor_rule(n_ref, a, b):
    ref_fps, dist_fps = max(a, b), min(a, b)
    assert kept_indices(n_ref, ref_fps, dist_fps) == kept_by_floor(n_ref, ref_fps, dist_fps)


@settings(max_examples=15, deadline=None)
@given(videos(min_frames=2, max_frames=10, min_side=20, max_side=40))
def test_self_score_is_zero(v):
    feats = compute_features(v, v, GreedConfig(wavelet="haar", scales=(1, 2)))
    assert feats.values.shape == (16,)
    assert np.all(feats.values == 0.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(18, 24), st.integers(20, 40), st.integers(20, 40),
       st.sampled_from([1, 2]), st.floats(-50.0, 50.0), st.integers(0, 2 ** 32 - 1))
def test_luma_offset_leaves_features_unchanged(t, h, w, ratio, c, seed):
    # The temporal bands have zero DC and spatial_ms subtracts the local mean,
    # so a constant added to both videos, without clipping, cancels.
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 1024, size=(t, h, w)) * (255.0 / 1023.0)
    dist = ref[::ratio] + rng.normal(0.0, 8.0, size=ref[::ratio].shape)
    cfg = GreedConfig(scales=(1, 2))

    def score(offset):
        return compute_features(LumaVideo(ref + offset, 60),
                                LumaVideo(dist + offset, Fraction(60, ratio)), cfg).values

    np.testing.assert_allclose(score(c), score(0.0), rtol=1e-9, atol=0)


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("wavelet", WAVELETS)
@_SETTINGS
@given(st.data())
def test_temporal_filter_matches_padded_loop(wavelet, levels, data):
    bank = build_packet_filters(wavelet, levels)
    n = data.draw(st.integers(2, 2 * max(len(f) for f in bank.filters) + 4), label="frames")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    frames = rng.integers(0, 1024, size=(n, 3, 4)) * (255.0 / 1023.0)
    # Error relative to the input scale: band outputs on short clips can
    # cancel to rounding noise, so their own maximum is no yardstick.
    for taps in bank.filters:
        if 4 * n < len(taps):
            continue
        bound = 1e-12 * np.abs(frames).max() * np.abs(taps).sum()
        np.testing.assert_allclose(temporal_filter(frames, taps).coeffs,
                                   padded_loop_filter(frames, taps), rtol=0, atol=bound)



def _draw_samples(data, shape):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    return rng.integers(0, 1024, size=shape) * (255.0 / 1023.0)


# Lengths reach past the filters' 64-row blocks, and taps up to the 4n that
# temporal_filter accepts, so sources wrap the mirror more than once.
@_SETTINGS
@given(st.data())
def test_temporal_filter_matches_scipy_reflect_convolution(data):
    n = data.draw(st.integers(2, 200), label="frames")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="taps seed"))
    taps = rng.standard_normal(data.draw(st.integers(1, 4 * n), label="taps"))
    shape = data.draw(st.sampled_from([(n, 5), (n, 3, 4)]), label="shape")
    frames = _draw_samples(data, shape)
    bound = 1e-12 * np.abs(frames).max() * np.abs(taps).sum()
    np.testing.assert_allclose(temporal_filter(frames, taps).coeffs,
                               convolve1d(frames, taps, axis=0, mode="reflect"),
                               rtol=0, atol=bound)


@_SETTINGS
@given(st.data())
def test_spatial_ms_matches_scipy_reflect_convolution(data):
    h, w = data.draw(st.integers(1, 150), label="h"), data.draw(st.integers(1, 150), label="w")
    shape = data.draw(st.sampled_from([(h, w), (2, h, w)]), label="shape")
    frames = _draw_samples(data, shape)
    local_mean = convolve1d(frames, _MS_WINDOW_1D, axis=-2, mode="reflect")
    local_mean = convolve1d(local_mean, _MS_WINDOW_1D, axis=-1, mode="reflect")
    np.testing.assert_allclose(spatial_ms(frames), frames - local_mean,
                               rtol=0, atol=1e-12 * np.abs(frames).max())


@_SETTINGS
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_block_entropies_of_a_stack_equal_separate_calls(b, t, h, w, patch, seed):
    assume(h >= patch and w >= patch)
    rng = np.random.default_rng(seed)
    # Band-pass-like coefficients of varied spread and tails, and flat frames.
    stack = rng.standard_t(rng.uniform(2.5, 30.0), size=(b, t, h, w))
    stack *= rng.choice([0.0, 0.01, 1.0, 40.0], size=(b, t, 1, 1))
    got = block_entropies(stack, 0.1, patch)
    assert got.values.shape == (b, t, (h // patch) * (w // patch))
    assert got.frame_betas.shape == (b, t)
    for i in range(b):
        want = block_entropies(stack[i], 0.1, patch)
        assert np.array_equal(got.values[i], want.values)
        assert np.array_equal(got.frame_betas[i], want.frame_betas)


@_SETTINGS
@given(st.integers(1, 3), st.integers(0, 6), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 12), st.sampled_from([1e-6, 0.1, 3.0, 100.0]),
       st.integers(0, 2 ** 32 - 1))
@example(2, 3, 23, 12, 12, 0.1, 7)  # one patch wide, patch 12: the reshape path
@example(2, 3, 14, 15, 7, 0.1, 7)  # two patches wide, patch 7: the patch-major path
@example(2, 3, 16, 17, 8, 0.1, 7)  # two patches wide, patch 8: the reshape path
@example(2, 3, 5, 3, 2, 0.1, 7)  # one patch wide, patch 2: the reshape path
@example(2, 3, 9, 13, 7, 0.1, 7)  # one patch wide, patch 7: the reshape path
def test_block_entropies_equal_the_frame_by_frame_loop(b, t, h, w, patch, noise_var, seed):
    # Bit for bit at every patch size: below patch 8, on frames at least two
    # patches wide, the patch-major sums add in the order numpy's mean adds 7
    # or fewer terms; every other shape is numpy's own reshape-and-mean. The
    # examples sit on both sides of that boundary in every run.
    assume(h >= patch and w >= patch)
    rng = np.random.default_rng(seed)
    # Heavy- and light-tailed frames of varied spread, flat frames, and offsets.
    stack = rng.standard_t(rng.uniform(2.1, 30.0, size=(b, t, 1, 1)), size=(b, t, h, w))
    stack *= rng.choice([0.0, 1e-3, 1.0, 40.0], size=(b, t, 1, 1))
    stack += rng.choice([0.0, 128.3], size=(b, t, 1, 1))
    got = block_entropies(stack, noise_var, patch)
    want = block_entropies_frame_by_frame(stack, noise_var, patch)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.frame_betas, want.frame_betas)


@_SETTINGS
@given(st.data(), st.integers(1, 12), st.sampled_from([1e-6, 0.1, 3.0, 100.0]))
def test_block_entropies_of_batched_stacks_equal_separate_calls(data, patch, noise_var):
    # Stacks of their own layer count, length and frame size share one
    # bisection; each must still get what a call of its own gives.
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 6),
                                          st.integers(patch, 30), st.integers(patch, 30)),
                                max_size=4), label="shapes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stacks = []
    for layers, t, h, w in shapes:
        stack = rng.standard_t(rng.uniform(2.1, 30.0, size=(layers, t, 1, 1)),
                               size=(layers, t, h, w))
        stack *= rng.choice([0.0, 1e-3, 1.0, 40.0], size=(layers, t, 1, 1))
        stacks.append(stack)
    got = block_entropies(iter(stacks), noise_var, patch)
    assert isinstance(got, list) and len(got) == len(stacks)
    for field, stack in zip(got, stacks):
        want = block_entropies(stack, noise_var, patch)
        assert field.values.shape == want.values.shape
        assert np.array_equal(field.values, want.values)
        assert np.array_equal(field.frame_betas, want.frame_betas)


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("wavelet", WAVELETS)
@_SETTINGS
@given(st.data())
def test_bank_product_equals_temporal_filter_per_band(wavelet, levels, data):
    # Lengths reach past the 64-row blocks; every band is written straight
    # into a slice of a larger stack, as compute_features builds a table.
    taps = np.array(build_packet_filters(wavelet, levels).filters)
    n = data.draw(st.integers(max(2, -(-taps.shape[1] // 4)), 200), label="frames")
    frames = _draw_samples(data, (n, 3, 4))
    table = np.full((1 + len(taps), n, 3, 4), np.nan)
    got = temporal_filter(frames, taps, out=table[1:]).coeffs
    assert got.shape == (len(taps), n, 3, 4) and np.shares_memory(got, table)
    assert np.isnan(table[0]).all()
    for k in range(len(taps)):
        assert np.array_equal(table[1 + k], temporal_filter(frames, taps[k]).coeffs)


_EDGE_KURTOSES = [0.0, -0.0, math.inf, -math.inf, 3.0, 6.0,
                  ggd._KURT_AT_MIN, ggd._KURT_AT_MAX,
                  math.nextafter(ggd._KURT_AT_MIN, 0), math.nextafter(ggd._KURT_AT_MIN, math.inf),
                  math.nextafter(ggd._KURT_AT_MAX, 0), math.nextafter(ggd._KURT_AT_MAX, math.inf)]
_KURTOSES = st.one_of(st.floats(allow_nan=False), st.floats(1.5, 400.0),
                      st.sampled_from(_EDGE_KURTOSES))


@_SETTINGS
@given(st.lists(_KURTOSES, max_size=60), st.sampled_from([(-1,), (-1, 1), (1, -1, 1)]))
def test_beta_from_kurtosis_on_an_array_equals_scalar_calls(kurtoses, shape):
    kappa = np.array(kurtoses, dtype=np.float64).reshape(shape)
    got = ggd.beta_from_kurtosis(kappa)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == kappa.shape
    want = [scalar_beta_from_kurtosis(k).hex() for k in kurtoses]
    assert [g.hex() for g in got.ravel().tolist()] == want


@pytest.mark.parametrize("kappa", [*_EDGE_KURTOSES, 0, -30, 3, 6, 400, 10 ** 6, 4.5, 1e-300])
def test_beta_from_kurtosis_keeps_the_scalar_return_types(kappa):
    # One path for every input: a scalar still gives a float, a 0-d array a
    # 0-d array, both the oracle's value.
    want = scalar_beta_from_kurtosis(kappa).hex()
    for scalar in (kappa, np.float64(kappa)):
        got = ggd.beta_from_kurtosis(scalar)
        assert type(got) is float and got.hex() == want
    got = ggd.beta_from_kurtosis(np.array(kappa))
    assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.float64
    assert float(got).hex() == want


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
def test_beta_from_kurtosis_of_an_empty_array_is_empty(shape):
    got = ggd.beta_from_kurtosis(np.empty(shape))
    assert got.shape == shape and got.dtype == np.float64


@_SETTINGS
@given(st.lists(st.floats(1.5, 400.0), min_size=1, max_size=20), st.data())
def test_beta_from_kurtosis_rejects_a_nan_anywhere_in_an_array(kurtoses, data):
    kurtoses[data.draw(st.integers(0, len(kurtoses) - 1), label="nan at")] = math.nan
    with pytest.raises(ValueError, match="^kurtosis is NaN$"):
        ggd.beta_from_kurtosis(np.array(kurtoses))
