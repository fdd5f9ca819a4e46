"""Reference-side work kept per reference video.

compute_features keeps a reference's pooled frames and entropy fields with
the reference object, keyed by config fingerprint, so later calls with the
same reference reuse them. Every memoised result must be bit-identical to
what a freshly built reference gives, whatever the call order or config,
and the memo must neither outlive the video nor survive a write to the
frames behind it.
"""

import gc
import random
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

from stgreed import features
from stgreed.features import GreedConfig, compute_features
from stgreed.video import LumaVideo, downsample, kept_indices, load_y4m

from conftest import write_y4m

REF_FPS = 120
# Ratio 1, the paper's non-integer 120/98 and 120/82, and integer 2 and 5.
DIST_FPS = (Fraction(120), Fraction(98), Fraction(82), Fraction(60), Fraction(24))
N_REF = 45  # ratio 5 leaves 9 frames, the fewest the 36-tap bank takes
CONFIGS = (GreedConfig(), GreedConfig(noise_var=0.2), GreedConfig(scales=(3,)))


def _read_only(frames):
    frames = np.array(frames, dtype=np.float64)
    frames.setflags(write=False)
    return frames


@pytest.fixture(scope="module")
def ladder():
    """A 160x192 reference and one distorted version per rate."""
    rng = np.random.default_rng(7)
    ref = _read_only(rng.uniform(0, 255, size=(N_REF, 160, 192)))
    dists = {}
    for fps in DIST_FPS:
        frames = ref[kept_indices(N_REF, REF_FPS, fps)]
        noise = rng.normal(0, 12, size=frames.shape)
        dists[fps] = LumaVideo(_read_only(np.clip(frames + noise, 0, 255)), fps)
    return ref, dists


@pytest.fixture(scope="module")
def fresh(ladder):
    """Features of every (config, rate), each against a newly built reference."""
    ref, dists = ladder
    return {(cfg, fps): compute_features(LumaVideo(ref, REF_FPS), dists[fps], cfg).values
            for cfg in CONFIGS for fps in DIST_FPS}


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_memoised_features_equal_fresh(ladder, fresh, order):
    ref_frames, dists = ladder
    calls = [(cfg, fps) for cfg in CONFIGS for fps in sorted(DIST_FPS, reverse=True)]
    if order == "shuffled":
        random.Random(3).shuffle(calls)
    ref = LumaVideo(ref_frames, REF_FPS)
    for _ in range(2):  # the second round reads every entry from the memo
        for cfg, fps in calls:
            got = compute_features(ref, dists[fps], cfg).values
            assert np.array_equal(got, fresh[cfg, fps]), (cfg, fps)
    assert set(ref._memo) == {cfg.fingerprint() for cfg in CONFIGS}


def test_concurrent_calls_share_one_reference(ladder, fresh):
    # Threads that fill the same entry at once may each compute a field; the
    # values they store and return must still be the fresh ones.
    ref_frames, dists = ladder
    ref = LumaVideo(ref_frames, REF_FPS)
    cfg = CONFIGS[0]
    rates = [fps for fps in DIST_FPS for _ in range(2)]
    results = {}

    def score(i):
        results[i] = compute_features(ref, dists[rates[i]], cfg).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(rates))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(rates)
    for i, fps in enumerate(rates):
        assert np.array_equal(results[i], fresh[cfg, fps]), fps


@pytest.mark.parametrize("fps", [Fraction(120), Fraction(82)])
def test_second_call_at_a_rate_scores_only_the_distorted_video(ladder, monkeypatch, fps):
    ref_frames, dists = ladder
    ref, cfg = LumaVideo(ref_frames, REF_FPS), GreedConfig()
    first = compute_features(ref, dists[fps], cfg).values

    # A table is one temporal_filter call on a video's pooled frames, and
    # one stack that block_entropies draws.
    filtered, drawn = [], []
    temporal_filter, block_entropies = features.temporal_filter, features.block_entropies

    def filter_and_record(frames, taps, **kwargs):
        filtered.append(np.array(frames))
        return temporal_filter(frames, taps, **kwargs)

    def draw_and_record(stacks, *args):
        return block_entropies((drawn.append(stack.shape) or stack for stack in stacks), *args)

    monkeypatch.setattr(features, "temporal_filter", filter_and_record)
    monkeypatch.setattr(features, "block_entropies", draw_and_record)
    assert np.array_equal(compute_features(ref, dists[fps], cfg).values, first)
    # One table per scale, each built from the distorted video's pooled frames.
    pooled, prev, want = dists[fps], 0, []
    for s in sorted(cfg.scales):
        pooled, prev = downsample(pooled, s - prev), s
        want.append(pooled.frames)
    assert len(filtered) == len(want)
    assert all(np.array_equal(got, frames) for got, frames in zip(filtered, want))
    assert drawn == [(8, *frames.shape) for frames in want]


def test_writable_frames_are_not_memoised(ladder):
    ref_frames, dists = ladder
    mine = np.array(ref_frames)  # the caller keeps a writeable array
    ref = LumaVideo(mine, REF_FPS)
    dist = dists[Fraction(60)]
    compute_features(ref, dist)
    mine[:, :80] = 255.0 - mine[:, :80]
    got = compute_features(ref, dist).values
    want = compute_features(LumaVideo(_read_only(mine), REF_FPS), dist).values
    assert np.array_equal(got, want)
    assert ref._memo == {}


def test_read_only_view_of_writable_array_is_not_memoised(ladder):
    ref_frames, dists = ladder
    mine = np.array(ref_frames)
    view = mine.view()
    view.setflags(write=False)
    ref = LumaVideo(view, REF_FPS)
    compute_features(ref, dists[Fraction(120)])
    assert ref._memo == {}


def test_memo_does_not_keep_the_video_alive(ladder):
    ref_frames, dists = ladder
    ref = LumaVideo(ref_frames, REF_FPS)
    alive = weakref.ref(ref)
    compute_features(ref, dists[Fraction(60)])
    assert ref._memo
    del ref
    gc.collect()
    assert alive() is None


def test_videos_hash_by_identity(ladder):
    ref_frames, dists = ladder
    a, b = LumaVideo(ref_frames, REF_FPS), LumaVideo(ref_frames, REF_FPS)
    assert hash(a) == hash(a)
    assert a != b and len({a, b}) == 2
    for v in (a, b):
        compute_features(v, dists[Fraction(120)])
    fp = GreedConfig().fingerprint()
    assert a._memo[fp] is not b._memo[fp]


def test_loaded_reference_cannot_be_unfrozen_and_stays_memoised(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    frames = rng.integers(0, 256, size=(20, 160, 192)).astype(np.uint8)
    write_y4m(tmp_path / "ref.y4m", frames, fps_num=REF_FPS)
    write_y4m(tmp_path / "dist.y4m", frames[::2], fps_num=REF_FPS // 2)
    ref, dist = load_y4m(tmp_path / "ref.y4m"), load_y4m(tmp_path / "dist.y4m")
    first = compute_features(ref, dist).values
    with pytest.raises(ValueError):
        ref.frames.setflags(write=True)

    pooled = []
    downsample = features.downsample
    monkeypatch.setattr(features, "downsample",
                        lambda video, s: pooled.append(video) or downsample(video, s))
    assert np.array_equal(compute_features(ref, dist).values, first)
    assert ref._memo
    assert len(pooled) == len(GreedConfig().scales)  # the distorted video only
    assert not any(v is ref for v in pooled)
