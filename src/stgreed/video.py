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

    frames has shape (T, H, W) and holds uint8 samples, "<u2" (any uint16)
    10-bit codes on [0, 1023], or finite floats on [0, 255]. Videos compare and
    hash by identity. A video keeps a memo of work derived from its frames
    (see features.compute_features), which goes when the video does.
    """

    frames: np.ndarray
    fps: Fraction
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a non-empty (T, H, W) array")
        if self.frames.dtype.kind == "f" and not np.isfinite(self.frames).all():
            raise ValueError("frames must be finite")
        object.__setattr__(self, "fps", _as_fraction(self.fps))
        if self.frames.flags.writeable:
            # Freeze a view, so the caller's own array stays writeable; an
            # array that is already read-only is kept as it is.
            object.__setattr__(self, "frames", self.frames.view())
            self.frames.setflags(write=False)

    def _memo_for(self, key):
        """The memo entry for key (a config fingerprint), created empty on
        first use; a fresh, unstored one when the frames could still change."""
        if not _frozen(self.frames):
            return {}
        return self._memo.setdefault(key, {})

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


# Samples in the two chroma planes of a W x H frame, by subsampling tag
# (the subsampled planes round odd dimensions up).
_CHROMA_SAMPLES = {
    "420": lambda w, h: 2 * ((w + 1) // 2) * ((h + 1) // 2),
    "422": lambda w, h: 2 * ((w + 1) // 2) * h,
    "444": lambda w, h: 2 * w * h,
    "mono": lambda w, h: 0,
}
PIXEL_FORMATS = ("yuv420p", "yuv420p10le")  # raw YUV input: 4:2:0, 8-bit or 10-bit codes


def _frozen(frames):
    """True when no array in frames' base chain can be written and the chain
    ends in an array that owns its memory, so work derived from frames cannot
    go stale."""
    a = frames
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _frozen_view(stack):
    """Make a stack this module allocated read-only and hand over a view of
    it, so nobody can turn writing back on beneath the view."""
    stack.setflags(write=False)
    return stack.view()


def _read_luma(f, offsets, height, width, dtype):
    """Read the luma plane at each byte offset of f into one stack of dtype,
    the file's own sample type: uint8, or "<u2" 10-bit codes, which must not
    exceed 1023."""
    frames = np.empty((len(offsets), height, width), dtype)
    for t, offset in enumerate(offsets):
        f.seek(offset)
        plane = frames[t]
        if f.readinto(plane) != plane.nbytes:
            raise VideoFormatError(f"{f.name}: truncated luma plane at byte {offset}")
        if dtype.itemsize == 2 and plane.max() > 1023:
            i = int(np.argmax(plane > 1023))
            raise VideoFormatError(
                f"{f.name}: 10-bit sample {plane.flat[i]} above 1023 at byte {offset + 2 * i}")
    return _frozen_view(frames)


_Y4M_MAGIC = b"YUV4MPEG2"
# Longest stream or FRAME header line read, newline included: far above any
# real header, so a file without a newline is not read to its end.
_Y4M_HEADER_LIMIT = 1 << 16


def load_y4m(path):
    """Decode a YUV4MPEG2 file, keeping the luma plane only.

    Supports C420 (also its 8-bit jpeg, paldv and mpeg2 sitings), C422, C444
    and Cmono, plus their 10-bit "p10" counterparts. Frames keep the stored
    samples: uint8 for 8-bit input, "<u2" codes for 10-bit input.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        line = f.readline(_Y4M_HEADER_LIMIT)
        if not line.startswith(_Y4M_MAGIC):
            raise VideoFormatError(f"{path}: not a Y4M stream (bad magic at byte 0)")
        if not line.endswith(b"\n"):
            raise VideoFormatError(f"{path}: unterminated stream header at byte {len(line)}")
        nl = len(line) - 1
        header = line[len(_Y4M_MAGIC):nl].decode("ascii", errors="replace")

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

        if chroma in ("420jpeg", "420paldv", "420mpeg2"):  # 8-bit 4:2:0 siting variants
            chroma = "420"
        ten_bit = chroma.endswith("p10")
        base = chroma[:-3] if ten_bit else chroma
        if base not in _CHROMA_SAMPLES:
            raise VideoFormatError(f"{path}: unsupported chroma tag C{chroma}")

        dtype = np.dtype("<u2" if ten_bit else np.uint8)
        frame_bytes = (width * height + _CHROMA_SAMPLES[base](width, height)) * dtype.itemsize

        # Seek from one FRAME header to the next to count the frames, so the
        # luma planes can then be read straight into one preallocated stack.
        offsets = []
        pos = nl + 1
        while pos < size:
            f.seek(pos)
            line = f.readline(_Y4M_HEADER_LIMIT)
            if not (line.startswith(b"FRAME") and line.endswith(b"\n")):
                raise VideoFormatError(f"{path}: expected FRAME header at byte {pos}")
            payload = pos + len(line)
            if payload + frame_bytes > size:
                raise VideoFormatError(
                    f"{path}: truncated frame payload at byte {payload}: "
                    f"expected {frame_bytes} bytes, got {size - payload}")
            offsets.append(payload)
            pos = payload + frame_bytes

        if not offsets:
            raise VideoFormatError(f"{path}: stream contains no frames")
        return LumaVideo(_read_luma(f, offsets, height, width, dtype), fps)


def load_raw_yuv(path, width, height, fps, pixel_format="yuv420p"):
    """Decode a headerless planar YUV file with caller-supplied geometry.

    Frames keep the stored samples: uint8 for yuv420p, "<u2" codes for
    yuv420p10le.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"invalid dimensions {width}x{height}")
    fps = _as_fraction(fps)
    if pixel_format not in PIXEL_FORMATS:
        raise VideoFormatError(f"unsupported pixel format {pixel_format!r}")
    dtype = np.dtype("<u2" if pixel_format == "yuv420p10le" else np.uint8)

    frame_bytes = (width * height + _CHROMA_SAMPLES["420"](width, height)) * dtype.itemsize
    size = os.path.getsize(path)
    if size == 0 or size % frame_bytes != 0:
        raise VideoFormatError(
            f"{path}: truncated: expected a multiple of {frame_bytes} bytes, got {size}")

    with open(path, "rb") as f:
        frames = _read_luma(f, range(0, size, frame_bytes), height, width, dtype)
    return LumaVideo(frames, fps)


def check_scale(s):
    """Reject a negative spatial scale exponent."""
    if s < 0:
        raise ValueError("scale exponent must be >= 0")


def downsample(video, s):
    """Downsample spatially by 2**s: the mean of each 2**s x 2**s block.

    This equals s passes of 2x2 average pooling, each truncating an odd
    trailing row/column (the output is (H >> s) x (W >> s)), up to rounding.
    Frames are pooled one at a time, so temporaries stay one frame in size;
    fps is unchanged. Output frames are float64 on [0, 255]: 10-bit codes
    are scaled by 255/1023 (s = 0 converts integer samples and keeps float
    frames as they are). Integer samples are pooled with exact integer block
    sums, scaled once, so uint8 frames pool to exactly the float64 result.
    """
    check_scale(s)
    s = int(s)
    frames = video.frames
    gain = 255.0 / 1023.0 if frames.dtype.kind == "u" and frames.dtype.itemsize == 2 else 1.0
    if s == 0:
        if frames.dtype.kind == "f":
            return LumaVideo(frames, video.fps)
        return LumaVideo(_frozen_view(frames * gain), video.fps)
    t, h, w = frames.shape
    h2, w2 = h >> s, w >> s
    if h2 < 1 or w2 < 1:
        raise ValueError(f"downsampling by 2**{s} would shrink {h}x{w} below 1x1")
    k = 1 << s
    # A column of k uint8 samples sums to at most 255 * k, which fits uint16
    # up to k = 257; other dtypes sum in numpy's default accumulator.
    column_dtype = np.uint16 if frames.dtype == np.uint8 and k <= 257 else None
    scale = gain / (k * k)  # 1/k^2 is a power of two: exact for 8-bit and float
    out = np.empty((t, h2, w2), dtype=np.float64)
    for i, frame in enumerate(frames):
        rows = frame[:h2 * k, :w2 * k].reshape(h2, k, w2 * k).sum(axis=1, dtype=column_dtype)
        np.multiply(rows.reshape(h2, w2, k).sum(axis=2), scale, out=out[i])
    return LumaVideo(_frozen_view(out), video.fps)


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
