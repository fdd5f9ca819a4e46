import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stgreed import ggd
from stgreed.features import EntropyField
from stgreed.ggd import _KURT_AT_MAX, _KURT_AT_MIN, BETA_MAX, BETA_MIN, ggd_kurtosis

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Fail a test in tests/ that leaks a file, as CI's -W flags do.

    The marks stay off items collected elsewhere (perfbench/) when both
    directories run in one session.
    """
    for item in items:
        if item.path.is_relative_to(_TESTS):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture
def pin_cores(monkeypatch):
    """pin_cores(n) makes grid_search see n usable cores, so it starts n workers."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return pin


def sample_ggd(rng, alpha, beta, size):
    """Draw zero-mean generalized Gaussian samples.

    |X|^beta / alpha^beta is Gamma(1/beta, 1) distributed, so X is a signed
    power of a gamma variate.
    """
    g = rng.gamma(shape=1.0 / beta, scale=1.0, size=size)
    signs = rng.choice([-1.0, 1.0], size=size)
    return signs * alpha * g ** (1.0 / beta)


def scalar_beta_from_kurtosis(kappa):
    """The scalar bisection that the lane-wise ggd.beta_from_kurtosis replaced.

    Kept as the oracle: ggd.beta_from_kurtosis must give this float, bit for
    bit, for every element.
    """
    if math.isnan(kappa):
        raise ValueError("kurtosis is NaN")
    if kappa >= _KURT_AT_MIN:
        return BETA_MIN
    if kappa <= _KURT_AT_MAX:
        return BETA_MAX
    lo, hi = BETA_MIN, BETA_MAX  # kurt(lo) > kappa > kurt(hi)
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        k_mid = ggd_kurtosis(mid)
        if abs(k_mid - kappa) <= 1e-6 * kappa:
            return mid
        if k_mid > kappa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def block_entropies_frame_by_frame(frames, noise_var, patch_size):
    """block_entropies by reshape-and-mean patch variances and the scalar β
    loop over frames, which the patch-major sums and the batched bisection
    replaced; features.block_entropies must give these floats, bit for bit."""
    rows, cols = frames.shape[-2] // patch_size, frames.shape[-1] // patch_size
    blocks = frames[..., :rows * patch_size, :cols * patch_size].reshape(
        -1, rows, patch_size, cols, patch_size)
    mean = blocks.mean(axis=(2, 4))
    sq = (blocks * blocks).mean(axis=(2, 4))
    var_p = (sq - mean * mean).reshape(*frames.shape[:-2], rows * cols)
    sq = frames - frames.mean(axis=(-2, -1), keepdims=True)
    m2 = np.square(sq, out=sq).mean(axis=(-2, -1))
    m4 = np.square(sq, out=sq).mean(axis=(-2, -1))
    betas, scale, h_unit = np.empty((3, *m2.shape))
    for i in np.ndindex(m2.shape):
        kurt = m4[i] / (m2[i] * m2[i]) if m2[i] > 0 else 0.0
        _, kurt = ggd.noisy_moments(m2[i], kurt, noise_var)
        betas[i] = scalar_beta_from_kurtosis(kurt)
        scale[i] = ggd.alpha_from_sigma_beta(1.0, betas[i])
        h_unit[i] = ggd.ggd_entropy(1.0, betas[i])
    sigma = np.sqrt(var_p + noise_var)
    alpha = sigma * scale[..., None]
    h = h_unit[..., None] + np.log(alpha)
    gamma = np.log1p(var_p + noise_var)
    return EntropyField(gamma * h, betas)


def padded_loop_filter(frames, taps):
    """temporal_filter by half-sample mirror padding, then one shifted
    multiply-add per tap."""
    n, length = frames.shape[0], len(taps)
    delay = length // 2
    ext = np.pad(frames, ((length - 1, length - 1), (0, 0), (0, 0)), mode="symmetric")
    out = np.zeros(frames.shape)
    for m, c in enumerate(taps):
        start = length - 1 + delay - m
        out += c * ext[start:start + n]
    return out


def halve_repeatedly(frames, s):
    """downsample's (T, H, W) frames by s passes of 2x2 average pooling."""
    for _ in range(s):
        t, h, w = frames.shape
        h2, w2 = h // 2, w // 2
        frames = frames[:, :2 * h2, :2 * w2].reshape(t, h2, 2, w2, 2).mean(axis=(2, 4))
    return frames


def kept_by_floor(n_ref, ref_fps, dist_fps):
    """kept_indices by stepping i until floor(i * ref_fps / dist_fps) reaches n_ref."""
    ratio = Fraction(ref_fps) / Fraction(dist_fps)
    kept, i = [], 0
    while int(i * ratio) < n_ref:
        kept.append(int(i * ratio))
        i += 1
    return kept


def write_y4m(path, frames, fps_num=30, fps_den=1, chroma="420"):
    """Write an 8-bit Y4M file with mid-grey chroma planes."""
    frames = np.asarray(frames)
    t, h, w = frames.shape
    header = f"YUV4MPEG2 W{w} H{h} F{fps_num}:{fps_den} Ip A1:1 C{chroma}\n"
    cb = ((w + 1) // 2) * ((h + 1) // 2)
    with open(path, "wb") as f:
        f.write(header.encode())
        for i in range(t):
            f.write(b"FRAME\n")
            f.write(frames[i].astype(np.uint8).tobytes())
            if chroma != "mono":
                f.write(bytes([128]) * (2 * cb))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
