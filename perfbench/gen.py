"""Seeded benchmark inputs: synthetic Y4M videos and a protocol table.

Videos are a pure function of (workload, seed). They pan over a
dead-leaves texture (occluding flat discs of power-law sizes, plus a faint
band-limited texture), so band-pass coefficients are heavy-tailed as in
natural video, and add Gaussian sensor noise. A distorted version drops
frames down to its rate (frame i is reference frame floor(i * ref_fps /
fps), the rule the pseudo reference uses) and adds a mild blur and coarse
quantization whose strength is drawn per version. The protocol table is
the same for every seed; the seed only orders its records.
"""

import csv
import os
from fractions import Fraction

import numpy as np

# LIVE-YT-HFR's six frame rates and its five compression levels per rate.
LADDER_FPS = (120, 98, 82, 60, 30, 24)
PROTOCOL_LEVELS = 5
PROTOCOL_CONTENTS = 16
PROTOCOL_DIMS = 16
# Rating noise of the protocol table's DMOS, in points of its 0-100 scale.
DMOS_NOISE = 5.0

WORKLOADS = {
    # name: (width, height, ref frames, ref fps, distorted fps list, 10-bit)
    "pair_1080p_hfr": (1920, 1080, 24, 120, (60,), True),
    "ladder_540p": (960, 540, 48, 120, LADDER_FPS, False),
}


def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def texture_canvas(rng, height, width, frame_height):
    """Dead-leaves occlusion of flat discs plus a faint band-limited texture.

    Disc radii follow a r^-3 law between frame_height/60 and frame_height/2,
    so flat regions meet sparse sharp edges at every scale the features
    pool to, and band-pass coefficients are heavy-tailed.
    """
    rmin, rmax = frame_height / 60.0, frame_height / 2.0
    n = int(1100 * height * width / frame_height ** 2)
    u = rng.random(n)
    radius = (rmin ** -2 - u * (rmin ** -2 - rmax ** -2)) ** -0.5
    cy, cx = rng.uniform(0, height, n), rng.uniform(0, width, n)
    level = rng.uniform(16.0, 240.0, n)
    canvas = np.full((height, width), 128.0)
    for i in np.argsort(-radius):  # small discs last, on top
        r = radius[i]
        y0, y1 = int(max(cy[i] - r, 0)), int(min(cy[i] + r + 1, height))
        x0, x1 = int(max(cx[i] - r, 0)), int(min(cx[i] + r + 1, width))
        if y1 > y0 and x1 > x0:
            dy = np.arange(y0, y1)[:, None] - cy[i]
            dx = np.arange(x0, x1)[None, :] - cx[i]
            canvas[y0:y1, x0:x1][dy * dy + dx * dx <= r * r] = level[i]

    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    f = np.hypot(fy, fx)
    amp = np.where((f > 1.0 / 256) & (f < 0.25), 1.0 / np.maximum(f, 1e-9), 0.0)
    g = np.fft.irfft2(np.fft.rfft2(rng.standard_normal((height, width))) * amp, s=(height, width))
    return canvas + 4.0 * g / g.std()


def reference_frames(seed, width, height, n_frames):
    """Integer luma in [0, 255] of the texture panning at a seeded velocity, plus noise."""
    rng = _rng(seed, 1)
    vy, vx = rng.integers(1, 4, size=2) * rng.choice([-1, 1], size=2)
    canvas = texture_canvas(rng, height + abs(vy) * n_frames, width + abs(vx) * n_frames,
                            height).astype(np.float32)
    y0 = 0 if vy > 0 else abs(vy) * n_frames
    x0 = 0 if vx > 0 else abs(vx) * n_frames
    frames = np.empty((n_frames, height, width), dtype=np.float32)
    for t in range(n_frames):
        y, x = y0 + vy * t, x0 + vx * t
        noise = rng.standard_normal((height, width), dtype=np.float32)
        np.multiply(noise, 1.5, out=frames[t])
        frames[t] += canvas[y:y + height, x:x + width]
    return np.clip(np.rint(frames, out=frames), 0, 255, out=frames)


def kept_indices(n_ref, ref_fps, fps):
    ratio = Fraction(ref_fps) / Fraction(fps)
    out, i = [], 0
    while int(i * ratio) < n_ref:
        out.append(int(i * ratio))
        i += 1
    return out


def distort(frames, strength):
    """Mild [1, 2, 1] blur blended in, then coarse quantization; strength in [0, 1]."""
    blurred = frames.copy()
    for axis in (1, 2):
        src = blurred.copy()
        lo = [slice(None)] * 3
        mid, hi = list(lo), list(lo)
        lo[axis], mid[axis], hi[axis] = slice(None, -2), slice(1, -1), slice(2, None)
        blurred[tuple(mid)] = 0.25 * (src[tuple(lo)] + src[tuple(hi)]) + 0.5 * src[tuple(mid)]
    a = np.float32(0.2 + 0.6 * strength)
    step = np.float32(1.0 + 3.0 * strength)
    out = (1 - a) * frames + a * blurred
    return np.clip(np.rint(out / step) * step, 0, 255)


def write_y4m(path, frames, fps, ten_bit):
    """Write luma plus mid-grey 4:2:0 chroma as C420jpeg or C420p10."""
    t, h, w = frames.shape
    chroma = "420p10" if ten_bit else "420jpeg"
    fps = Fraction(fps)
    c_len = 2 * ((w + 1) // 2) * ((h + 1) // 2)
    if ten_bit:
        chroma_bytes = np.full(c_len, 512, dtype="<u2").tobytes()
    else:
        chroma_bytes = bytes([128]) * c_len
    with open(path, "wb") as f:
        f.write(f"YUV4MPEG2 W{w} H{h} F{fps.numerator}:{fps.denominator} Ip A1:1 C{chroma}\n".encode())
        for i in range(t):
            f.write(b"FRAME\n")
            if ten_bit:
                f.write(np.rint(frames[i] * (1023.0 / 255.0)).astype("<u2").tobytes())
            else:
                f.write(frames[i].astype(np.uint8).tobytes())
            f.write(chroma_bytes)
        # Write back now, not while a later timed pass runs.
        f.flush()
        os.fsync(f.fileno())


def make_videos(workload, seed, out_dir):
    """Write a feature workload's videos; see write_videos."""
    return write_videos(seed, out_dir, *WORKLOADS[workload])


def write_videos(seed, out_dir, width, height, n_ref, ref_fps, dist_fps, ten_bit):
    """Write the reference and its distorted versions; return their paths.

    Returns {"ref": path, "dists": [(fps, path), ...]} in dist_fps order.
    """
    ref = reference_frames(seed, width, height, n_ref)
    ref_path = os.path.join(out_dir, "ref.y4m")
    write_y4m(ref_path, ref, ref_fps, ten_bit)
    dists = []
    for v, fps in enumerate(dist_fps):
        rng = _rng(seed, 2, v)
        strength = float(rng.uniform(0.2, 0.8))
        frames = distort(ref[kept_indices(n_ref, ref_fps, fps)], strength)
        path = os.path.join(out_dir, f"dist_{fps}fps.y4m")
        write_y4m(path, frames, fps, ten_bit)
        dists.append((fps, path))
    return {"ref": ref_path, "dists": dists}


def protocol_table():
    """Features and DMOS for 16 contents x 30 versions, 16-D, LIVE-YT-HFR-shaped.

    The table stands for the one dataset the protocol evaluates on, so it
    does not depend on the seed (see make_protocol_inputs).

    Features are log-domain: a version effect (compression level, frame-rate
    drop) along a loading, a per-content offset and independent noise, so
    the 16 columns are correlated but of full rank. DMOS is on LIVE-YT-HFR's
    0-100 scale: a saturating map of a projection of the features plus
    rating noise of DMOS_NOISE points. The noise sets how well any regressor
    can rank the table: at 5 points a protocol trial's test SROCC is
    0.83-0.93 at run_protocol seeds 1-20, around the 0.88 the source paper
    reports for ST-GREED on LIVE-YT-HFR. Returns a list of (content, ref,
    dist, fps, tag, features, dmos).
    """
    rng = _rng(0, 3)
    loading = rng.uniform(0.2, 1.0, size=PROTOCOL_DIMS)
    w = rng.normal(0.0, 1.0, size=PROTOCOL_DIMS) + 0.5
    w /= np.linalg.norm(w)
    offsets = rng.normal(0.0, 0.3, size=(PROTOCOL_CONTENTS, PROTOCOL_DIMS))
    rows = []
    for c, offset in enumerate(offsets):
        content = f"c{c:02d}"
        for fps in LADDER_FPS:
            for level in range(PROTOCOL_LEVELS):
                effect = 0.25 * level + 0.5 * np.log(120.0 / fps)
                feats = loading * effect + offset + 0.5 * rng.standard_normal(PROTOCOL_DIMS)
                dmos = (50.0 + 25.0 * np.tanh(0.7 * float(w @ feats) - 0.5)
                        + rng.normal(0.0, DMOS_NOISE))
                rows.append((content, f"{content}_ref.y4m", f"{content}_{fps}fps_crf{level}.y4m",
                             fps, f"{fps}fps_crf{level}", feats, float(dmos)))
    return rows


def make_protocol_inputs(seed, out_dir, append_cache_record, make_features):
    """Write dataset.csv and features.jsonl with the library's own cache writer.

    The seed orders the records, which must not change the trial's result.
    It does not draw the protocol's split: a trial's cost depends on its
    split (29-39 s across the splits of run_protocol seeds 1-10 on a 2-core
    x86 host), so every run scores the same split (see one_pass.py).
    """
    manifest = os.path.join(out_dir, "dataset.csv")
    cache = os.path.join(out_dir, "features.jsonl")
    rows = protocol_table()
    rows = [rows[i] for i in _rng(seed, 4).permutation(len(rows))]
    with open(manifest, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["content_id", "ref", "dist", "fps", "tag", "dmos"])
        for content, ref, dist, fps, tag, _, dmos in rows:
            w.writerow([content, ref, dist, fps, tag, repr(dmos)])
    for content, ref, dist, _, _, feats, _ in rows:
        append_cache_record(cache, ref, dist, content, make_features(feats))
    return {"manifest": manifest, "cache": cache}
