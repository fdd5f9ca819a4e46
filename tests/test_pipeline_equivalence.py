"""compute_features against the per-scale, per-frame pipeline it replaced.

The oracle below pools by repeated 2x2 halving at every scale, pools a
full-resolution pseudo-reference copy separately, and walks every frame in
Python for spatial filtering, block entropies, reference averaging and
index pooling. The library pools each video once, indexes the pooled
reference for the pseudo reference and works on whole stacks; only the
rounding of sums may differ.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgreed.bandpass import build_packet_filters, spatial_ms, temporal_filter
from stgreed.features import (EntropyField, GreedConfig, average_reference_entropies,
                              compute_features)
from stgreed.video import LumaVideo

from conftest import block_entropies_frame_by_frame, halve_repeatedly, kept_by_floor


def _pseudo_reference_copy(frames, ref_fps, dist_fps):
    return frames[kept_by_floor(frames.shape[0], ref_fps, dist_fps)].copy()


def _average_per_cell(field, ratio, n_out=None):
    """Mean of reference frames [floor(i*F), floor((i+1)*F)), cut at n_ref, per output frame."""
    ratio = Fraction(ratio)
    n_ref = field.values.shape[0]
    if n_out is None:
        n_out = int(n_ref / ratio)
    values, betas = np.empty((n_out, field.values.shape[1])), np.empty(n_out)
    for i in range(n_out):
        lo, hi = int(i * ratio), min(int((i + 1) * ratio), n_ref)
        assert hi > lo
        values[i] = field.values[lo:hi].mean(axis=0)
        betas[i] = field.frame_betas[lo:hi].mean()
    return EntropyField(values, betas)


def _oracle_features(ref, dist, cfg):
    bank = build_packet_filters(cfg.wavelet, cfg.levels)
    ratio = ref.fps / dist.fps
    videos = (ref.frames, _pseudo_reference_copy(ref.frames, ref.fps, dist.fps), dist.frames)
    out, prev_s = [], 0
    for s in sorted(cfg.scales):
        videos = tuple(halve_repeatedly(v, s - prev_s) for v in videos)
        prev_s = s
        r, p, d = videos

        def spatial(frames):
            ms = np.stack([spatial_ms(frames[t]) for t in range(frames.shape[0])])
            return block_entropies_frame_by_frame(ms, cfg.noise_var, cfg.patch_size)

        theta_r, theta_d = spatial(r), spatial(d)
        n = min(theta_d.values.shape[0], int(theta_r.values.shape[0] / ratio))
        avg = _average_per_cell(theta_r, ratio, n_out=n)
        out.append(np.mean([np.mean(np.abs(theta_d.values[t] - avg.values[t]))
                            for t in range(n)]))

        for taps in bank.filters:
            eps_r, eps_p, eps_d = (
                block_entropies_frame_by_frame(temporal_filter(v, taps).coeffs,
                                               cfg.noise_var, cfg.patch_size)
                for v in (r, p, d))
            n = min(eps_p.values.shape[0], eps_d.values.shape[0],
                    int(eps_r.values.shape[0] / ratio))
            avg = _average_per_cell(eps_r, ratio, n_out=n)
            per_frame = []
            for t in range(n):
                term = ((1.0 + np.abs(eps_d.values[t] - eps_p.values[t]))
                        * (avg.values[t] + 1.0) / (eps_p.values[t] + 1.0) - 1.0)
                per_frame.append(np.mean(np.abs(term)))
            out.append(np.mean(per_frame))
    return np.array(out)


@pytest.mark.parametrize("dist_fps", [120, 60, 82])
@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_features_matches_per_frame_oracle(dist_fps, jobs):
    rng = np.random.default_rng(dist_fps)
    # 10-bit-like (non-integer on the 8-bit scale) frames with odd H and W.
    ref = LumaVideo(rng.integers(0, 1024, size=(24, 83, 101)) * (255.0 / 1023.0), 120)
    dist_frames = ref.frames[kept_by_floor(24, 120, dist_fps)]
    dist_frames = np.clip(dist_frames + rng.normal(0, 4.0, size=dist_frames.shape), 0, 255)
    dist = LumaVideo(dist_frames, dist_fps)
    cfg = GreedConfig(scales=(2, 3))

    got = compute_features(ref, dist, cfg, jobs=jobs).values
    want = _oracle_features(ref, dist, cfg)
    assert got.shape == want.shape == (16,)
    assert np.all(want > 0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_compute_features_short_last_cell_matches_per_frame_oracle():
    # 120 -> 24 fps on 47 frames: cells of 5 frames, and the last cell
    # [45, 47) is cut short. The 10 distorted frames are compared over
    # n = floor(47 / 5) = 9 cells, so averaging must stop at frame 45.
    rng = np.random.default_rng(47)
    ref = LumaVideo(rng.integers(0, 1024, size=(47, 83, 101)) * (255.0 / 1023.0), 120)
    dist_frames = ref.frames[kept_by_floor(47, 120, 24)]
    dist_frames = np.clip(dist_frames + rng.normal(0, 4.0, size=dist_frames.shape), 0, 255)
    dist = LumaVideo(dist_frames, 24)
    cfg = GreedConfig(scales=(2, 3))

    got = compute_features(ref, dist, cfg).values
    want = _oracle_features(ref, dist, cfg)
    assert dist.num_frames == 10
    assert np.all(want > 0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


_RATIOS = st.one_of(
    st.sampled_from([Fraction(120, 82), Fraction(120, 98), Fraction(5)]),
    st.tuples(st.integers(1, 240), st.integers(1, 240)).map(
        lambda ab: Fraction(max(ab), min(ab))))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), _RATIOS, st.data())
def test_average_reference_entropies_matches_per_cell_loop(n_ref, ratio, data):
    n_cells = math.ceil(n_ref / ratio)  # the last one may be cut short
    n_out = data.draw(st.one_of(st.none(), st.integers(0, n_cells)))
    lead = data.draw(st.sampled_from([(), (3,)]))  # a table of bands has one leading axis
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # Positive entropies, so the relative tolerance meets no cancellation.
    field = EntropyField(rng.uniform(0.0, 10.0, size=(*lead, n_ref, 3)),
                         rng.uniform(0.5, 2.0, size=(*lead, n_ref)))

    got = average_reference_entropies(field, ratio, n_out)
    for i in np.ndindex(lead):
        want = _average_per_cell(EntropyField(field.values[i], field.frame_betas[i]),
                                 ratio, n_out)
        assert got.values[i].shape == want.values.shape
        assert got.frame_betas[i].shape == want.frame_betas.shape
        np.testing.assert_allclose(got.values[i], want.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.frame_betas[i], want.frame_betas, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="empty averaging cell"):
        average_reference_entropies(field, ratio, n_out=n_cells + 1)
