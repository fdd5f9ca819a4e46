"""Record tests/feature_contract.json, the features test_feature_contract.py pins.

    PYTHONPATH=src python tests/record_feature_contract.py

Computes every case in CASES and writes its config fingerprint and its
features as float.hex. Record only from a commit whose features are known
good: later commits must match these values to 1e-9 relative.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from stgreed.features import GreedConfig, compute_features
from stgreed.video import LumaVideo, kept_indices, load_raw_yuv, load_y4m

TABLE = Path(__file__).with_name("feature_contract.json")

# Each case scores a seeded 24-frame reference against a noisier version of
# its frames kept at the distorted rate, side x side pixels, with
# GreedConfig(scales, wavelet, levels, noise_var, patch). A case changes
# only the entries it names of BASE: by default a 60 fps reference against
# a 30 fps version (rate ratio 2), held in memory. Patches below 8 take the
# patch-major patch sums, 8 and up numpy's reshape-and-mean, and patch 16 at
# scale 1 of 32 x 32 leaves the frame one patch wide. A `load` case writes
# the pair as Y4M or raw 4:2:0 files, with seeded chroma, and scores what
# load_y4m or load_raw_yuv reads back.
BASE = {"bits": 8, "side": 48, "scales": (0, 1), "patch": 5, "wavelet": "bior2.2",
        "levels": 3, "noise_var": 0.1, "fps": (60, 30), "load": None}
CASES = {
    "8bit_patch1": {"patch": 1},
    "8bit_patch5": {},
    "8bit_patch7": {"patch": 7},
    "8bit_patch8": {"patch": 8},
    "8bit_patch12": {"patch": 12},
    "10bit_patch5": {"bits": 10},
    "10bit_patch8": {"bits": 10, "patch": 8},
    "8bit_one_patch_wide": {"side": 32, "patch": 16},
    "haar": {"wavelet": "haar"},
    "db2": {"wavelet": "db2"},
    "levels1": {"levels": 1},
    "levels2": {"levels": 2},
    "noise_var_0.01": {"noise_var": 0.01},
    "noise_var_5": {"noise_var": 5.0},
    "rate_ratio_1": {"fps": (60, 60)},
    "rate_ratio_120_82": {"fps": (120, 82)},
    "8bit_y4m": {"load": "y4m"},
    "10bit_y4m": {"bits": 10, "load": "y4m"},
    "8bit_raw": {"load": "raw"},
    "10bit_raw": {"bits": 10, "load": "raw"},
}


def make_pair(bits, side, fps=(60, 30)):
    """Reference and distorted LumaVideo of stored samples, uint8 or "<u2"."""
    rng = np.random.default_rng(0)
    top = 2 ** bits
    # Sample spread grows across the frame, so patch variances differ.
    half = np.linspace(top // 64, top // 2 - 1, side).astype(np.int64)
    ref = top // 2 + rng.integers(-half, half, size=(24, side, side), endpoint=True)
    kept = kept_indices(len(ref), *fps)
    noise = rng.integers(-(top // 32), top // 32, size=(len(kept), side, side), endpoint=True)
    dist = np.clip(ref[kept] + noise, 0, top - 1)
    dtype = np.uint8 if bits == 8 else np.dtype("<u2")
    return LumaVideo(ref.astype(dtype), fps[0]), LumaVideo(dist.astype(dtype), fps[1])


def _load_back(video, path, kind):
    """video written to path as Y4M or raw 4:2:0, with seeded chroma, then read back."""
    frames, fps = video.frames, int(video.fps)
    t, h, w = frames.shape
    chroma = np.random.default_rng(1).integers(0, 256 if frames.dtype == np.uint8 else 1024,
                                               size=(t, h * w // 2)).astype(frames.dtype)
    planes = [luma.tobytes() + c.tobytes() for luma, c in zip(frames, chroma)]
    if kind == "raw":
        path.write_bytes(b"".join(planes))
        pixel_format = "yuv420p" if frames.dtype == np.uint8 else "yuv420p10le"
        return load_raw_yuv(path, w, h, fps, pixel_format)
    tag = "420jpeg" if frames.dtype == np.uint8 else "420p10"
    head = f"YUV4MPEG2 W{w} H{h} F{fps}:1 Ip A1:1 C{tag}\n".encode()
    path.write_bytes(head + b"".join(b"FRAME\n" + p for p in planes))
    return load_y4m(path)


def case_features(name):
    """(config fingerprint, features) of one case."""
    case = {**BASE, **CASES[name]}
    cfg = GreedConfig(case["wavelet"], case["scales"], case["noise_var"], case["patch"],
                      case["levels"])
    pair = make_pair(case["bits"], case["side"], case["fps"])
    if case["load"]:
        with tempfile.TemporaryDirectory() as tmp:
            pair = [_load_back(video, Path(tmp) / f"{role}.{case['load']}", case["load"])
                    for video, role in zip(pair, ("ref", "dist"))]
    return cfg.fingerprint(), compute_features(*pair, cfg).values


def main():
    table = {}
    for name in CASES:
        fingerprint, values = case_features(name)
        table[name] = {"fingerprint": fingerprint, "features": [float(v).hex() for v in values]}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} cases to {TABLE}")


if __name__ == "__main__":
    main()
