"""Temporal wavelet-packet filter bank and spatial mean-subtraction filtering."""

from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)

# Analysis (decomposition) low/high-pass pairs, convolution tap order.
_HAAR_LO = np.array([1.0, 1.0]) / _SQRT2
_HAAR_HI = np.array([1.0, -1.0]) / _SQRT2

_DB2_LO = np.array([
    -0.12940952255092145, 0.22414386804185735,
    0.836516303737469, 0.48296291314469025,
])
# QMF partner: g[n] = (-1)^n h[L-1-n]
_DB2_HI = np.array([(-1.0) ** n * _DB2_LO[len(_DB2_LO) - 1 - n]
                    for n in range(len(_DB2_LO))])

_BIOR22_LO = np.array([
    0.0, -0.17677669529663689, 0.35355339059327379,
    1.0606601717798214, 0.35355339059327379, -0.17677669529663689,
])
_BIOR22_HI = np.array([
    0.0, 0.35355339059327379, -0.70710678118654757,
    0.35355339059327379, 0.0, 0.0,
])

_WAVELETS = {
    "haar": (_HAAR_LO, _HAAR_HI),
    "db2": (_DB2_LO, _DB2_HI),
    "bior2.2": (_BIOR22_LO, _BIOR22_HI),
}
WAVELETS = tuple(_WAVELETS)
_PRINTABLE_LEVELS = 64  # past this, counts of about 2**levels are too long to print


@dataclass(frozen=True)
class FilterBank:
    """Equivalent FIR band-pass filters of a wavelet-packet tree, in frequency order."""

    filters: list


@dataclass(frozen=True)
class SubbandStack:
    """Per-frame band-pass coefficient planes for one subband."""

    coeffs: np.ndarray  # (T, H, W), same shape as the filtered input


def _upsample(taps, factor):
    out = np.zeros((len(taps) - 1) * factor + 1)
    out[::factor] = taps
    return out


def _gray(n):
    return n ^ (n >> 1)


def _analysis_pair(wavelet_name, levels):
    if wavelet_name not in _WAVELETS:
        raise ValueError(f"unknown wavelet {wavelet_name!r}; choose from {sorted(_WAVELETS)}")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return _WAVELETS[wavelet_name]


def check_bank_fits(wavelet_name, levels, n_frames):
    """Reject a clip too short for build_packet_filters(wavelet_name, levels).

    Every band has (len(lo) - 1) * (2^levels - 1) + 1 taps, and
    temporal_filter takes at most 4 taps per frame. This needs no bank,
    whose cost grows about 4x per level, so callers run it first.
    """
    lo, _ = _analysis_pair(wavelet_name, levels)
    length = (len(lo) - 1) * (2 ** levels - 1) + 1
    if 4 * n_frames < length:
        if levels > _PRINTABLE_LEVELS:
            raise ValueError(f"video too short for the temporal filter bank: {levels} levels "
                             f"need at least 2**{levels - 2} frames, got {n_frames}")
        raise ValueError(f"video too short for the temporal filter bank: {length} taps "
                         f"need at least {-(-length // 4)} frames, got {n_frames}")


def check_band(levels, band):
    """Reject a 1-based band index outside the 2**levels - 1 bands of the bank."""
    if not 1 <= band < 2 ** levels:
        top = 2 ** levels - 1 if levels <= _PRINTABLE_LEVELS else f"2**{levels} - 1"
        raise ValueError(f"band must be in [1, {top}]")


def build_packet_filters(wavelet_name, levels):
    """Compose a wavelet-packet tree into equivalent FIR band-pass filters.

    The analysis low/high pair is cascaded with dyadic upsampling between
    stages (no decimation), the leaves are reordered from natural (Paley)
    order to frequency order via the Gray-code permutation, and the
    all-low-pass leaf is dropped.
    """
    lo, hi = _analysis_pair(wavelet_name, levels)

    n_leaves = 2 ** levels
    filters = []
    for k in range(1, n_leaves):  # slot 0 is the all-low-pass leaf
        # With no decimation in the cascade, frequency slot k is the Paley
        # leaf gray(k): each high-pass stage mirrors the sub-band split.
        p = _gray(k)
        taps = np.array([1.0])
        for stage in range(levels):
            bit = (p >> (levels - 1 - stage)) & 1
            stage_taps = _upsample(hi if bit else lo, 2 ** stage)
            taps = np.convolve(taps, stage_taps)
        filters.append(taps)
    return FilterBank(filters)


_BLOCK_ROWS = 64


def _mirror_filter(x, taps, axis):
    """Convolve x with taps along axis -2 or -1, with half-sample mirror boundaries.

    The filter is an (n, n) matrix: output sample t takes tap j from source
    t + len(taps) // 2 - j (centring the taps compensates the group delay),
    mirrored back into [0, n) with period 2n. The matrix is applied in
    blocks of output rows, each reading only the input rows its sources
    span, so the cost grows as n * (len(taps) + block) rather than n^2.
    Each block is written in place, so x is never copied or moved.
    """
    n = x.shape[axis]
    t = np.arange(n)[:, None]
    src = (t + len(taps) // 2 - np.arange(len(taps))) % (2 * n)
    src = np.where(src < n, src, 2 * n - 1 - src)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (t, src), taps)
    out = np.empty(x.shape)
    for b in range(0, n, _BLOCK_ROWS):
        # Span the sources, not the nonzero taps: a block's taps can cancel.
        rows = src[b:b + _BLOCK_ROWS]
        lo, hi = rows.min(), rows.max() + 1
        block = matrix[b:b + _BLOCK_ROWS, lo:hi]
        if axis == -2:
            np.matmul(block, x[..., lo:hi, :], out=out[..., b:b + _BLOCK_ROWS, :])
        else:
            np.matmul(x[..., lo:hi], block.T, out=out[..., b:b + _BLOCK_ROWS])
    return out


def temporal_filter(frames, taps):
    """Band-pass filter along the temporal axis, one output frame per input frame.

    Symmetric (half-sample mirror) boundary extension; the filter's group
    delay is compensated so output frame t is centered on input frame t.
    """
    taps = np.asarray(taps, dtype=np.float64)
    n = frames.shape[0]
    if n < 2:
        raise ValueError("temporal filtering needs at least 2 frames")
    if len(taps) > 4 * n:
        raise ValueError(f"filter of length {len(taps)} too long for {n} frames")

    frames = np.asarray(frames, dtype=np.float64)
    out = _mirror_filter(frames.reshape(n, -1), taps, -2).reshape(frames.shape)
    return SubbandStack(out)


def _gaussian_window(half_width):
    # sampled out to 3 standard deviations, rescaled to sum 1
    sigma = half_width / 3.0
    x = np.arange(-half_width, half_width + 1, dtype=np.float64)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


_MS_WINDOW_1D = _gaussian_window(7)


def spatial_ms(frames):
    """Mean-subtracted coefficients: frames minus their Gaussian-weighted local mean.

    15x15 circularly symmetric Gaussian window (sigma = 7/3), mirror
    boundary handling. Filters over the last two axes, so a single (H, W)
    frame and a (T, H, W) stack are both accepted.
    """
    frames = np.asarray(frames, dtype=np.float64)
    local_mean = _mirror_filter(frames, _MS_WINDOW_1D, -2)
    local_mean = _mirror_filter(local_mean, _MS_WINDOW_1D, -1)
    return frames - local_mean
