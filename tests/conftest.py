import math
import os
from pathlib import Path

import numpy as np
import pytest

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
