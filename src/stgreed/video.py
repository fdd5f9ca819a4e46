"""Luma video containers, Y4M / raw YUV decoding, spatial pyramid, pseudo reference."""

import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class VideoFormatError(ValueError):
    """Raised when a video file cannot be decoded."""


def _as_fraction(fps):
    """Parse a frame rate (number, Fraction or text such as "30000/1001")."""
    try:
        f = Fraction(fps)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"invalid fps {fps!r}") from e
    if f <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    return f


@dataclass(frozen=True, eq=False)
class LumaVideo:
    """A sequence of luma planes with a nominal frame rate.

    frames has shape (T, H, W) with real-valued samples in [0, 255].
    Videos compare and hash by identity, so a video can key a memo of work
    done on it (see features.compute_features).
    """

    frames: np.ndarray
    fps: Fraction

    def __post_init__(self):
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a non-empty (T, H, W) array")
        object.__setattr__(self, "fps", _as_fraction(self.fps))
        if self.frames.flags.writeable:
            # Freeze a view, so the caller's own array stays writeable; an
            # array that is already read-only is kept as it is.
            object.__setattr__(self, "frames", self.frames.view())
            self.frames.setflags(write=False)

    @property
    def num_frames(self):
        return self.frames.shape[0]

    @property
    def height(self):
        return self.frames.shape[1]

    @property
    def width(self):
        return self.frames.shape[2]


@dataclass(frozen=True)
class PseudoReference:
    """Reference video temporally subsampled to the distorted video's frame rate."""

    video: LumaVideo
    kept_indices: list = field(default_factory=list)


def _chroma_plane_bytes(width, height):
    # 4:2:0 planar, two chroma planes at half resolution (ceil for odd dims)
    return 2 * ((width + 1) // 2) * ((height + 1) // 2)


def _store_luma(buf, offset, height, width, ten_bit, out):
    """Decode one 8-bit or 10-bit little-endian luma plane into out, on [0, 255]."""
    plane = np.frombuffer(buf, dtype="<u2" if ten_bit else np.uint8,
                          count=width * height, offset=offset).reshape(height, width)
    np.multiply(plane, 255.0 / 1023.0 if ten_bit else 1.0, out=out)


_Y4M_MAGIC = b"YUV4MPEG2"


def load_y4m(path):
    """Decode a YUV4MPEG2 file, keeping the luma plane only.

    Supports 8-bit C420 variants and Cmono, plus their 10-bit "p10"
    counterparts (rescaled to the [0, 255] range on load).
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(_Y4M_MAGIC):
        raise VideoFormatError(f"{path}: not a Y4M stream (bad magic at byte 0)")
    nl = data.find(b"\n")
    if nl < 0:
        raise VideoFormatError(f"{path}: unterminated stream header at byte {len(data)}")
    header = data[len(_Y4M_MAGIC):nl].decode("ascii", errors="replace")

    tags = {tok[0]: tok[1:] for tok in header.split()}
    if not {"W", "H", "F"} <= tags.keys():
        raise VideoFormatError(f"{path}: stream header missing W/H/F tags (header ends at byte {nl})")

    def tag(key):
        try:
            if key == "F":
                num, den = tags[key].split(":")
                return _as_fraction(f"{num}/{den}")
            if int(tags[key]) > 0:
                return int(tags[key])
        except ValueError:
            pass
        raise VideoFormatError(
            f"{path}: bad {key} tag {key}{tags[key]} (header ends at byte {nl})")

    width, height, fps = tag("W"), tag("H"), tag("F")
    chroma = tags.get("C", "420")

    ten_bit = chroma.endswith("p10")
    base = chroma[:-3] if ten_bit else chroma
    if base.startswith("420"):
        mono = False
    elif base == "mono":
        mono = True
    else:
        raise VideoFormatError(f"{path}: unsupported chroma tag C{chroma}")

    bps = 2 if ten_bit else 1
    luma_bytes = width * height * bps
    frame_bytes = luma_bytes + (0 if mono else _chroma_plane_bytes(width, height) * bps)

    # Locate every frame first, so the luma planes decode straight into one
    # preallocated stack instead of a list that np.stack would copy.
    offsets = []
    pos = nl + 1
    while pos < len(data):
        fnl = data.find(b"\n", pos)
        if fnl < 0 or not data[pos:pos + 5] == b"FRAME":
            raise VideoFormatError(f"{path}: expected FRAME header at byte {pos}")
        payload = fnl + 1
        if payload + frame_bytes > len(data):
            raise VideoFormatError(
                f"{path}: truncated frame payload at byte {payload}: "
                f"expected {frame_bytes} bytes, got {len(data) - payload}")
        offsets.append(payload)
        pos = payload + frame_bytes

    if not offsets:
        raise VideoFormatError(f"{path}: stream contains no frames")
    frames = np.empty((len(offsets), height, width), dtype=np.float64)
    for t, payload in enumerate(offsets):
        _store_luma(data, payload, height, width, ten_bit, frames[t])
    frames.setflags(write=False)
    return LumaVideo(frames, fps)


def save_y4m(video, path):
    """Serialize a LumaVideo as an 8-bit monochrome Y4M stream."""
    fps = video.fps
    header = f"YUV4MPEG2 W{video.width} H{video.height} F{fps.numerator}:{fps.denominator} Ip A1:1 Cmono\n"
    data = np.rint(video.frames).clip(0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for t in range(video.num_frames):
            f.write(b"FRAME\n")
            f.write(data[t].tobytes())


def load_raw_yuv(path, width, height, fps, pixel_format="yuv420p"):
    """Decode a headerless planar YUV file with caller-supplied geometry."""
    if width <= 0 or height <= 0:
        raise ValueError(f"invalid dimensions {width}x{height}")
    fps = _as_fraction(fps)
    if pixel_format == "yuv420p":
        bps = 1
    elif pixel_format == "yuv420p10le":
        bps = 2
    else:
        raise VideoFormatError(f"unsupported pixel format {pixel_format!r}")

    luma_bytes = width * height * bps
    frame_bytes = luma_bytes + _chroma_plane_bytes(width, height) * bps
    size = os.path.getsize(path)
    if size == 0 or size % frame_bytes != 0:
        raise VideoFormatError(
            f"{path}: truncated: expected a multiple of {frame_bytes} bytes, got {size}")
    n = size // frame_bytes

    frames = np.empty((n, height, width), dtype=np.float64)
    with open(path, "rb") as f:
        for t in range(n):
            _store_luma(f.read(luma_bytes), 0, height, width, bps == 2, frames[t])
            f.seek(frame_bytes - luma_bytes, os.SEEK_CUR)
    frames.setflags(write=False)
    return LumaVideo(frames, fps)


def downsample(video, s):
    """Downsample spatially by 2**s: the mean of each 2**s x 2**s block.

    This equals s passes of 2x2 average pooling, each truncating an odd
    trailing row/column (the output is (H >> s) x (W >> s)), up to rounding.
    Frames are pooled one at a time, so temporaries stay one frame in size;
    fps is unchanged.
    """
    if s < 0:
        raise ValueError("scale exponent must be >= 0")
    s = int(s)
    if s == 0:
        return LumaVideo(video.frames, video.fps)
    t, h, w = video.frames.shape
    k = 1 << s
    h2, w2 = h >> s, w >> s
    if h2 < 1 or w2 < 1:
        raise ValueError(f"downsampling by {k} would shrink {h}x{w} below 1x1")
    out = np.empty((t, h2, w2), dtype=np.float64)
    for i, frame in enumerate(video.frames):
        rows = frame[:h2 * k, :w2 * k].reshape(h2, k, w2 * k).sum(axis=1)
        np.divide(rows.reshape(h2, w2, k).sum(axis=2), k * k, out=out[i])
    out.setflags(write=False)
    return LumaVideo(out, video.fps)


def kept_indices(n_ref, ref_fps, dist_fps):
    """Reference frames kept by frame dropping to dist_fps: floor(i * ref_fps / dist_fps).

    This is the one frame-rate alignment rule: kept frame i also starts the
    cell [kept[i], kept[i + 1]) of reference frames that distorted frame i
    is compared with, and the last cell ends at n_ref.
    """
    ref_fps, dist_fps = _as_fraction(ref_fps), _as_fraction(dist_fps)
    if dist_fps > ref_fps:
        raise ValueError(f"distorted fps {dist_fps} exceeds reference fps {ref_fps}")
    ratio = ref_fps / dist_fps
    p, q = ratio.numerator, ratio.denominator
    # i * p // q < n_ref  <=>  i < n_ref * q / p
    return [i * p // q for i in range(-(-n_ref * q // p))]


def make_pseudo_reference(ref, dist_fps):
    """Frame-drop the reference down to the distorted frame rate.

    Output frame i is source frame floor(i * ref_fps / dist_fps); when the
    rates are equal the pseudo reference is the reference itself.
    """
    dist_fps = _as_fraction(dist_fps)
    kept = kept_indices(ref.num_frames, ref.fps, dist_fps)
    frames = ref.frames if dist_fps == ref.fps else ref.frames[kept]
    return PseudoReference(LumaVideo(frames, dist_fps), kept)
