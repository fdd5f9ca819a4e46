"""Record tests/feature_contract.json, the features test_feature_contract.py pins.

    PYTHONPATH=src python tests/record_feature_contract.py

Computes every case in CASES and writes its config fingerprint and its
features as float.hex. Record only from a commit whose features are known
good: later commits must match these values to 1e-9 relative.
"""

import json
from pathlib import Path

import numpy as np

from stgreed.features import GreedConfig, compute_features
from stgreed.video import LumaVideo

TABLE = Path(__file__).with_name("feature_contract.json")

# name -> (bits, side, scales, patch). Each case scores a seeded 24-frame
# 60 fps reference against a noisier 12-frame 30 fps version (rate ratio 2)
# of side x side pixels. Patches below 8 take the strided patch sums, 8 and
# up numpy's reshape-and-mean, and patch 16 at scale 1 of 32 x 32 leaves the
# frame one patch wide.
CASES = {
    "8bit_patch1": (8, 48, (0, 1), 1),
    "8bit_patch5": (8, 48, (0, 1), 5),
    "8bit_patch7": (8, 48, (0, 1), 7),
    "8bit_patch8": (8, 48, (0, 1), 8),
    "8bit_patch12": (8, 48, (0, 1), 12),
    "10bit_patch5": (10, 48, (0, 1), 5),
    "10bit_patch8": (10, 48, (0, 1), 8),
    "8bit_one_patch_wide": (8, 32, (0, 1), 16),
}


def make_pair(bits, side):
    """Reference and distorted LumaVideo of stored samples, uint8 or "<u2"."""
    rng = np.random.default_rng(0)
    top = 2 ** bits
    # Sample spread grows across the frame, so patch variances differ.
    half = np.linspace(top // 64, top // 2 - 1, side).astype(np.int64)
    ref = top // 2 + rng.integers(-half, half, size=(24, side, side), endpoint=True)
    noise = rng.integers(-(top // 32), top // 32, size=(12, side, side), endpoint=True)
    dist = np.clip(ref[::2] + noise, 0, top - 1)
    dtype = np.uint8 if bits == 8 else np.dtype("<u2")
    return LumaVideo(ref.astype(dtype), 60), LumaVideo(dist.astype(dtype), 30)


def case_features(name):
    """(config fingerprint, features) of one case."""
    bits, side, scales, patch = CASES[name]
    cfg = GreedConfig(scales=scales, patch_size=patch)
    return cfg.fingerprint(), compute_features(*make_pair(bits, side), cfg).values


def main():
    table = {}
    for name in CASES:
        fingerprint, values = case_features(name)
        table[name] = {"fingerprint": fingerprint, "features": [float(v).hex() for v in values]}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} cases to {TABLE}")


if __name__ == "__main__":
    main()
