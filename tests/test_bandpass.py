import re

import numpy as np
import pytest

from stgreed.bandpass import (build_packet_filters, check_band, check_bank_fits, spatial_ms,
                              temporal_filter, _gaussian_window)

from conftest import padded_loop_filter


def test_haar_level1_is_frame_difference():
    bank = build_packet_filters("haar", 1)
    assert len(bank.filters) == 1
    np.testing.assert_allclose(bank.filters[0], [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_haar_level3_shape_and_norms():
    bank = build_packet_filters("haar", 3)
    assert len(bank.filters) == 7
    for f in bank.filters:
        assert len(f) == 8
        assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def test_db2_level3_lengths_and_dc():
    bank = build_packet_filters("db2", 3)
    for f in bank.filters:
        assert len(f) == 22  # sum over stages of 2^j (L-1), plus 1
        assert abs(f.sum()) < 1e-10


@pytest.mark.parametrize("wavelet", ["haar", "db2", "bior2.2"])
def test_zero_dc_and_frequency_order(wavelet):
    bank = build_packet_filters(wavelet, 3)
    assert all(abs(f.sum()) < 1e-10 for f in bank.filters)
    # energy centroid of each magnitude response over [0, pi]
    power = np.abs(np.fft.rfft(bank.filters, 4096)) ** 2
    centroids = power @ np.linspace(0.0, np.pi, power.shape[1]) / power.sum(axis=1)
    assert np.all(np.diff(centroids) > 0)


@pytest.mark.parametrize("levels", [1, 2, 3, 5])
@pytest.mark.parametrize("wavelet", ["haar", "db2", "bior2.2"])
def test_check_bank_fits_knows_every_band_length(wavelet, levels):
    bank = build_packet_filters(wavelet, levels)
    length = max(len(f) for f in bank.filters)
    assert all(len(f) == length for f in bank.filters)
    fewest = -(-length // 4)  # temporal_filter takes up to 4 taps per frame
    check_bank_fits(wavelet, levels, fewest)
    temporal_filter(np.zeros((max(fewest, 2), 1, 1)), bank.filters[-1])
    with pytest.raises(ValueError, match=f"{length} taps need at least {fewest} frames"):
        check_bank_fits(wavelet, levels, fewest - 1)


@pytest.mark.parametrize("levels", [1, 3, 64, 65])
def test_check_band_knows_the_band_count(levels):
    n_bands = len(build_packet_filters("haar", levels).filters) if levels <= 5 else 2 ** levels - 1
    if levels > 64:  # no numpy axis is long enough for a bank this deep
        for band in (0, 1, n_bands, n_bands + 1):
            with pytest.raises(ValueError, match=rf"^levels must be <= 64, got {levels}$"):
                check_band(levels, band)
        return
    for band in (1, n_bands):
        check_band(levels, band)
    for band in (0, n_bands + 1):
        with pytest.raises(ValueError, match=rf"^band must be in \[1, {n_bands}\]$"):
            check_band(levels, band)


def test_equivalent_filters_match_fourier_cascade():
    # independent construction: product of stage responses in the DFT domain
    bank = build_packet_filters("db2", 3)
    lo = np.array([-0.12940952255092145, 0.22414386804185735,
                   0.836516303737469, 0.48296291314469025])
    hi = np.array([(-1.0) ** n * lo[3 - n] for n in range(4)])
    n_fft = 256
    for k, taps in enumerate(bank.filters, start=1):
        p = k ^ (k >> 1)
        resp = np.ones(n_fft, dtype=complex)
        for stage in range(3):
            bit = (p >> (2 - stage)) & 1
            stage_taps = hi if bit else lo
            up = np.zeros(4 * 2 ** stage)
            up[::2 ** stage] = stage_taps
            resp *= np.fft.fft(up, n_fft)
        oracle = np.real(np.fft.ifft(resp))[:len(taps)]
        np.testing.assert_allclose(taps, oracle, atol=1e-12)


def test_unknown_wavelet():
    with pytest.raises(ValueError, match="unknown wavelet"):
        build_packet_filters("sym4", 3)


def test_temporal_filter_constant_video():
    bank = build_packet_filters("bior2.2", 3)
    out = temporal_filter(np.full((16, 4, 4), 42.0), bank.filters[3]).coeffs
    np.testing.assert_allclose(out, 0.0, atol=1e-10)


def test_temporal_filter_rejects_a_single_frame():
    bank = build_packet_filters("haar", 1)
    with pytest.raises(ValueError, match="^temporal filtering needs at least 2 frames$"):
        temporal_filter(np.zeros((1, 4, 4)), bank.filters[0])


def test_temporal_filter_impulse_response():
    taps = build_packet_filters("haar", 3).filters[2]
    x = np.zeros((32, 1, 1))
    x[5, 0, 0] = 1.0
    out = temporal_filter(x, taps).coeffs[:, 0, 0]
    delay = len(taps) // 2
    # plain convolution: out[t] = taps[t + delay - 5] inside the tap support
    for t in range(32):
        m = t + delay - 5
        expect = taps[m] if 0 <= m < len(taps) else 0.0
        assert abs(out[t] - expect) < 1e-12, t


def test_temporal_filter_matches_naive_convolution(rng):
    frames = rng.uniform(0, 255, size=(32, 8, 8))
    taps = build_packet_filters("haar", 3).filters[3]
    got = temporal_filter(frames, taps).coeffs
    np.testing.assert_allclose(got, padded_loop_filter(frames, taps), atol=1e-9)


def test_haar_level1_alignment(rng):
    frames = rng.uniform(0, 255, size=(16, 4, 4))
    taps = build_packet_filters("haar", 1).filters[0]
    out = temporal_filter(frames, taps).coeffs
    expect = (frames[1:] - frames[:-1]) / np.sqrt(2)
    np.testing.assert_allclose(out[:-1], expect, atol=1e-12)


def test_temporal_filter_rejects_an_out_it_cannot_fill():
    taps = np.array(build_packet_filters("haar", 2).filters)
    frames = np.zeros((8, 2, 3))
    for out in (np.empty((3, 8, 2, 2)),  # wrong shape
                np.empty((3, 8, 3, 2)).transpose(0, 1, 3, 2),  # not C-contiguous
                np.empty((3, 8, 2, 3), dtype=np.float32)):
        with pytest.raises(ValueError, match=re.escape("out must be a C-contiguous float64 "
                                                       "array of shape (3, 8, 2, 3)")):
            temporal_filter(frames, taps, out=out)


def test_filter_too_long_for_video():
    with pytest.raises(ValueError, match="too long"):
        temporal_filter(np.zeros((4, 2, 2)), np.zeros(17))


def test_haar_packet_is_tight_frame():
    # undecimated orthonormal packet: responses tile the spectrum with
    # combined power 2^levels at every frequency
    bank = build_packet_filters("haar", 3)
    lowpass = np.array([1.0])
    lo = np.array([1.0, 1.0]) / np.sqrt(2)
    for stage in range(3):
        up = np.zeros(2 ** (stage + 1))
        up[::2 ** stage] = lo
        lowpass = np.convolve(lowpass, up)
    n_fft = 512
    total = np.abs(np.fft.fft(lowpass, n_fft)) ** 2
    for f in bank.filters:
        total += np.abs(np.fft.fft(f, n_fft)) ** 2
    np.testing.assert_allclose(total, 8.0, rtol=1e-6)


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
def test_subband_energy_tracks_probe_frequency(wavelet):
    # orthonormal banks only: bior2.2 has unequal band gains by design
    bank = build_packet_filters(wavelet, 3)
    t = np.arange(256)
    for k in range(7):
        f0 = (2 * (k + 1) + 1) * np.pi / 16
        x = np.sin(f0 * t)[:, None, None] * np.ones((1, 2, 2))
        energies = [np.sum(temporal_filter(x, f).coeffs[64:192] ** 2)
                    for f in bank.filters]
        assert int(np.argmax(energies)) == k  # probe sits at band k+1's center


def test_gaussian_window_normalized():
    w = _gaussian_window(7)
    assert len(w) == 15
    assert abs(w.sum() - 1.0) < 1e-12
    outer = np.outer(w, w)
    assert abs(outer.sum() - 1.0) < 1e-12


def test_spatial_ms_constant_frame():
    np.testing.assert_allclose(spatial_ms(np.full((20, 20), 9.0)), 0.0, atol=1e-10)


def _ms_oracle(frame):
    w = _gaussian_window(7)
    kernel = np.outer(w, w)
    h, wd = frame.shape

    def ext(i, n):
        period = 2 * n
        i %= period
        return i if i < n else period - 1 - i

    mean = np.zeros_like(frame)
    for i in range(h):
        for j in range(wd):
            acc = 0.0
            for a in range(-7, 8):
                for b in range(-7, 8):
                    acc += kernel[a + 7, b + 7] * frame[ext(i + a, h), ext(j + b, wd)]
            mean[i, j] = acc
    return frame - mean


def test_spatial_ms_matches_brute_force(rng):
    frame = rng.uniform(0, 255, size=(32, 32))
    np.testing.assert_allclose(spatial_ms(frame), _ms_oracle(frame), atol=1e-9)


def test_spatial_ms_removes_local_mean(rng):
    # smooth content: the residual local mean must be near zero
    x = np.arange(256)
    frame = 127.5 + 127.5 * np.outer(np.sin(2 * np.pi * x / 256),
                                     np.sin(2 * np.pi * x / 256))
    ms = spatial_ms(frame)
    w = _gaussian_window(7)
    from scipy.ndimage import convolve1d
    remean = convolve1d(convolve1d(ms, w, axis=0, mode="reflect"), w, axis=1, mode="reflect")
    assert np.abs(remean).max() <= 0.01 * np.ptp(frame)
