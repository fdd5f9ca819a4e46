import io
from fractions import Fraction

import numpy as np
import pytest

from stgreed.video import (_Y4M_HEADER_LIMIT, LumaVideo, VideoFormatError, _read_luma,
                           downsample, load_raw_yuv, load_y4m, make_pseudo_reference)

from conftest import halve_repeatedly, write_y4m


def test_load_y4m_header(tmp_path):
    frames = (np.arange(2 * 8 * 16) % 256).astype(np.uint8).reshape(2, 8, 16)
    path = tmp_path / "v.y4m"
    write_y4m(path, frames, fps_num=30)
    v = load_y4m(path)
    assert (v.width, v.height, v.num_frames) == (16, 8, 2)
    assert v.fps == Fraction(30)


def test_load_y4m_rejects_non_y4m(tmp_path):
    path = tmp_path / "v.y4m"
    path.write_bytes(b"RIFF" + b"\x00" * 100)
    with pytest.raises(VideoFormatError, match="not a Y4M stream"):
        load_y4m(path)


def test_load_y4m_truncated_frame(tmp_path):
    frames = np.zeros((2, 8, 16), dtype=np.uint8)
    path = tmp_path / "v.y4m"
    write_y4m(path, frames)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(VideoFormatError, match="truncated"):
        load_y4m(path)


def test_load_y4m_unsupported_chroma(tmp_path):
    path = tmp_path / "v.y4m"
    path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C411\nFRAME\n" + b"\x00" * 48)
    with pytest.raises(VideoFormatError, match="unsupported chroma"):
        load_y4m(path)


def test_load_y4m_gradient_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    frames = rng.integers(0, 256, size=(4, 12, 20)).astype(np.uint8)
    path = tmp_path / "v.y4m"
    write_y4m(path, frames, fps_num=120)
    v = load_y4m(path)
    np.testing.assert_array_equal(v.frames, frames.astype(np.float64))


def test_load_raw_yuv(tmp_path):
    path = tmp_path / "v.yuv"
    rng = np.random.default_rng(9)
    luma = rng.integers(0, 256, size=(2, 8, 16)).astype(np.uint8)
    with open(path, "wb") as f:
        for t in range(2):
            f.write(luma[t].tobytes())
            f.write(bytes(64))
    assert path.stat().st_size == 384
    v = load_raw_yuv(path, 16, 8, 30, "yuv420p")
    assert v.num_frames == 2
    np.testing.assert_array_equal(v.frames, luma.astype(np.float64))


def test_load_raw_yuv_truncated(tmp_path):
    path = tmp_path / "v.yuv"
    path.write_bytes(bytes(383))
    with pytest.raises(VideoFormatError, match="truncated"):
        load_raw_yuv(path, 16, 8, 30)


def test_raw_and_y4m_agree(tmp_path):
    rng = np.random.default_rng(10)
    luma = rng.integers(0, 256, size=(2, 8, 16)).astype(np.uint8)
    y4m = tmp_path / "v.y4m"
    raw = tmp_path / "v.yuv"
    write_y4m(y4m, luma)
    with open(raw, "wb") as f:
        for t in range(2):
            f.write(luma[t].tobytes())
            f.write(bytes(64))
    np.testing.assert_array_equal(load_y4m(y4m).frames, load_raw_yuv(raw, 16, 8, 30).frames)


def test_load_y4m_ten_bit(tmp_path):
    path = tmp_path / "v.y4m"
    plane = np.full(16, 1023, dtype="<u2")
    with open(path, "wb") as f:
        f.write(b"YUV4MPEG2 W4 H4 F60:1 C420p10\nFRAME\n")
        f.write(plane.tobytes())
        f.write(np.full(8, 512, dtype="<u2").tobytes())
    v = load_y4m(path)
    assert v.frames.dtype == np.dtype("<u2")
    np.testing.assert_array_equal(v.frames, 1023)
    np.testing.assert_allclose(downsample(v, 0).frames, 255.0)


def test_load_y4m_ten_bit_frames_in_order(tmp_path):
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 1024, size=(3, 5, 7)).astype("<u2")
    chroma = np.full(2 * 3 * 4, 512, dtype="<u2")  # odd H/W: ceil-sized planes
    path = tmp_path / "v.y4m"
    with open(path, "wb") as f:
        f.write(b"YUV4MPEG2 W7 H5 F120:1 C420p10\n")
        for plane in codes:
            f.write(b"FRAME\n" + plane.tobytes() + chroma.tobytes())
    v = load_y4m(path)
    assert v.frames.dtype == np.dtype("<u2")
    np.testing.assert_array_equal(v.frames, codes)
    np.testing.assert_array_equal(downsample(v, 0).frames,
                                  codes.astype(np.float64) * (255.0 / 1023.0))


def test_downsample_constant():
    v = LumaVideo(np.full((2, 16, 16), 7.0), 30)
    for s in (1, 2, 3):
        np.testing.assert_allclose(downsample(v, s).frames, 7.0)


def test_downsample_2x2():
    v = LumaVideo(np.array([[[1.0, 3.0], [5.0, 7.0]]]), 30)
    out = downsample(v, 1)
    np.testing.assert_allclose(out.frames, [[[4.0]]])


def test_downsample_matches_brute_force(rng):
    frame = rng.uniform(0, 255, size=(23, 37))
    v = LumaVideo(frame[None], 30)
    expect = halve_repeatedly(frame[None], 2)[0]
    np.testing.assert_allclose(downsample(v, 2).frames[0], expect, atol=1e-12)


def test_downsample_composition(rng):
    frames = rng.uniform(0, 255, size=(2, 32, 48))
    v = LumaVideo(frames, 30)
    a = downsample(v, 3).frames
    b = downsample(downsample(v, 1), 2).frames
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_downsample_preserves_mean(rng):
    frames = rng.uniform(0, 255, size=(1, 32, 64))
    v = LumaVideo(frames, 30)
    assert abs(downsample(v, 3).frames.mean() - frames.mean()) < 1e-9


def test_downsample_too_small():
    v = LumaVideo(np.zeros((1, 2, 2)), 30)
    with pytest.raises(ValueError):
        downsample(v, 2)


def test_pseudo_reference_identity(rng):
    frames = rng.uniform(0, 255, size=(10, 4, 4))
    v = LumaVideo(frames, 120)
    pr = make_pseudo_reference(v, 120)
    assert pr.kept_indices == list(range(10))
    assert pr.video.frames is v.frames  # bit-identical, shared storage
    assert pr.video.fps == v.fps


def test_pseudo_reference_half_rate(rng):
    v = LumaVideo(rng.uniform(0, 255, size=(10, 4, 4)), 120)
    pr = make_pseudo_reference(v, 60)
    assert pr.kept_indices == [0, 2, 4, 6, 8]
    np.testing.assert_array_equal(pr.video.frames, v.frames[::2])
    assert pr.video.fps == Fraction(60)


def test_pseudo_reference_non_integer_ratio(rng):
    v = LumaVideo(rng.uniform(0, 255, size=(120, 2, 2)), 120)
    pr = make_pseudo_reference(v, 82)
    expect = [i * 120 // 82 for i in range(82)]
    assert pr.kept_indices == expect
    assert len(pr.kept_indices) == 82
    assert all(b > a for a, b in zip(expect, expect[1:]))


def test_pseudo_reference_rejects_upsampling():
    v = LumaVideo(np.zeros((4, 2, 2)), 30)
    with pytest.raises(ValueError):
        make_pseudo_reference(v, 60)
    with pytest.raises(ValueError):
        make_pseudo_reference(v, 0)


def test_raw_and_y4m_agree_ten_bit(tmp_path):
    rng = np.random.default_rng(12)
    luma = rng.integers(0, 1024, size=(3, 5, 9)).astype("<u2")
    chroma = np.full(2 * 3 * 5, 512, dtype="<u2").tobytes()  # two 5x3 planes
    y4m, raw = tmp_path / "v.y4m", tmp_path / "v.yuv"
    with open(y4m, "wb") as f:
        f.write(b"YUV4MPEG2 W9 H5 F30:1 C420p10\n")
        for plane in luma:
            f.write(b"FRAME\n" + plane.tobytes() + chroma)
    with open(raw, "wb") as f:
        for plane in luma:
            f.write(plane.tobytes() + chroma)
    v = load_raw_yuv(raw, 9, 5, 30, "yuv420p10le")
    assert v.frames.dtype == np.dtype("<u2")
    np.testing.assert_array_equal(v.frames, luma)
    np.testing.assert_array_equal(v.frames, load_y4m(y4m).frames)
    np.testing.assert_allclose(downsample(v, 0).frames, luma * (255.0 / 1023.0),
                               rtol=1e-15, atol=0)


def test_video_freezes_a_view_not_the_callers_array():
    a = np.zeros((2, 4, 4))
    video = LumaVideo(a, 30)
    assert a.flags.writeable
    assert not video.frames.flags.writeable
    a[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        video.frames[0, 0, 0] = 2.0


def test_eight_bit_loaders_keep_uint8_samples(tmp_path):
    rng = np.random.default_rng(13)
    luma = rng.integers(0, 256, size=(2, 8, 16)).astype(np.uint8)
    y4m, raw = tmp_path / "v.y4m", tmp_path / "v.yuv"
    write_y4m(y4m, luma)
    with open(raw, "wb") as f:
        for plane in luma:
            f.write(plane.tobytes() + bytes(64))
    for v in (load_y4m(y4m), load_raw_yuv(raw, 16, 8, 30)):
        assert v.frames.dtype == np.uint8
        np.testing.assert_array_equal(v.frames, luma)
        pooled = downsample(v, 0).frames
        assert pooled.dtype == np.float64
        np.testing.assert_array_equal(pooled, luma.astype(np.float64))


def _write_planar_y4m(path, luma, chroma_tag, chroma_samples, rng):
    """Y4M with the given luma planes and random chroma of the given size."""
    t, h, w = luma.shape
    with open(path, "wb") as f:
        f.write(f"YUV4MPEG2 W{w} H{h} F60:1 C{chroma_tag}\n".encode())
        for plane in luma:
            chroma = rng.integers(0, 1024 if luma.dtype.itemsize == 2 else 256,
                                  size=chroma_samples).astype(luma.dtype)
            f.write(b"FRAME\n" + plane.tobytes() + chroma.tobytes())


@pytest.mark.parametrize("ten_bit", [False, True])
@pytest.mark.parametrize("tag, chroma_samples", [("422", 2 * 4 * 5), ("444", 2 * 7 * 5)])
def test_load_y4m_422_and_444_luma_equals_420(tmp_path, tag, chroma_samples, ten_bit):
    rng = np.random.default_rng(14)
    dtype, suffix = ("<u2", "p10") if ten_bit else (np.uint8, "")
    luma = rng.integers(0, 1024 if ten_bit else 256, size=(3, 5, 7)).astype(dtype)
    _write_planar_y4m(tmp_path / "a.y4m", luma, "420" + suffix, 2 * 4 * 3, rng)
    _write_planar_y4m(tmp_path / "b.y4m", luma, tag + suffix, chroma_samples, rng)
    want, got = load_y4m(tmp_path / "a.y4m").frames, load_y4m(tmp_path / "b.y4m").frames
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


_Y4M_HEAD = b"YUV4MPEG2 W10 H6 F30:1 Ip A1:1 C420jpeg\n"  # 40 bytes


def _y4m_bytes(luma, frame_header):
    chroma = bytes([128]) * (2 * 3 * 5)
    return _Y4M_HEAD + b"".join(frame_header + p.tobytes() + chroma for p in luma)


@pytest.mark.parametrize("frame_header, payload_at", [(b"FRAME\n", 238),
                                                      (b"FRAME Ixyz\n", 253)])
def test_load_y4m_frame_parameters_and_truncation(tmp_path, frame_header, payload_at):
    luma = (np.arange(3 * 6 * 10) % 251).astype(np.uint8).reshape(3, 6, 10)
    data = _y4m_bytes(luma, frame_header)
    path = tmp_path / "v.y4m"
    path.write_bytes(data)
    np.testing.assert_array_equal(load_y4m(path).frames, luma)
    # Cut 37 bytes into the third frame's 90-byte payload.
    path.write_bytes(data[:payload_at + 37])
    with pytest.raises(VideoFormatError) as exc:
        load_y4m(path)
    assert str(exc.value) == (f"{path}: truncated frame payload at byte {payload_at}: "
                              "expected 90 bytes, got 37")


@pytest.mark.parametrize("third_frame", [b"FRAMX\n", b"FRAME", b"FR\nAME\n"])
def test_load_y4m_bad_frame_header_offset(tmp_path, third_frame):
    luma = np.zeros((2, 6, 10), dtype=np.uint8)
    path = tmp_path / "v.y4m"
    path.write_bytes(_y4m_bytes(luma, b"FRAME\n") + third_frame + bytes(90))
    with pytest.raises(VideoFormatError) as exc:
        load_y4m(path)
    assert str(exc.value) == f"{path}: expected FRAME header at byte 232"


class _CountingFile(io.FileIO):
    """A raw file that counts the bytes read from it."""

    bytes_read = 0

    def readinto(self, b):
        n = super().readinto(b)
        self.bytes_read += n or 0
        return n


@pytest.mark.parametrize("head, error", [
    (b"YUV4MPEG2 W16 H8 F30:1 C420",
     f"unterminated stream header at byte {_Y4M_HEADER_LIMIT}"),
    (b"YUV4MPEG2 W16 H8 F30:1 C420\n", "expected FRAME header at byte 28"),
], ids=["stream-header", "frame-header"])
def test_load_y4m_reads_a_header_without_newline_only_to_the_limit(tmp_path, monkeypatch,
                                                                    head, error):
    # A sparse 64 MiB file of zeros after the header: without a bound, the
    # header read would take all of it.
    path = tmp_path / "v.y4m"
    with open(path, "wb") as f:
        f.write(head)
        f.truncate(64 << 20)
    raw = []

    def counting_open(p, mode):
        raw.append(_CountingFile(p))
        return io.BufferedReader(raw[-1])

    monkeypatch.setattr("stgreed.video.open", counting_open, raising=False)
    with pytest.raises(VideoFormatError) as exc:
        load_y4m(path)
    assert str(exc.value) == f"{path}: {error}"
    assert len(raw) == 1 and 0 < raw[0].bytes_read <= 2 * _Y4M_HEADER_LIMIT


def test_load_y4m_stream_header_up_to_the_limit(tmp_path):
    luma = np.zeros((1, 6, 10), dtype=np.uint8)
    frame = b"FRAME\n" + luma.tobytes() + bytes(2 * 3 * 5)
    pad = _Y4M_HEADER_LIMIT - len(_Y4M_HEAD)  # an X tag filling the header to the limit
    path = tmp_path / "v.y4m"
    path.write_bytes(_Y4M_HEAD[:-1] + b" X" + b"x" * (pad - 2) + b"\n" + frame)
    np.testing.assert_array_equal(load_y4m(path).frames, luma)
    path.write_bytes(_Y4M_HEAD[:-1] + b" X" + b"x" * (pad - 1) + b"\n" + frame)
    with pytest.raises(VideoFormatError) as exc:
        load_y4m(path)
    assert str(exc.value) == (f"{path}: unterminated stream header at byte "
                              f"{_Y4M_HEADER_LIMIT}")


def test_read_luma_rejects_a_short_read(tmp_path):
    # A file that shrinks after the frame scan leaves the last plane short.
    path = tmp_path / "v.yuv"
    path.write_bytes(bytes(100))
    with open(path, "rb") as f:
        with pytest.raises(VideoFormatError, match="truncated luma plane at byte 90"):
            _read_luma(f, [0, 90], 4, 5, np.uint8)


def _stack_owners(tmp_path):
    """Videos whose stacks the loaders or downsample allocated."""
    rng = np.random.default_rng(15)
    luma = rng.integers(0, 256, size=(2, 8, 16)).astype(np.uint8)
    write_y4m(tmp_path / "v.y4m", luma)
    with open(tmp_path / "v10.y4m", "wb") as f:
        f.write(b"YUV4MPEG2 W16 H8 F30:1 C420p10\n")
        for plane in luma.astype("<u2") * 4:
            f.write(b"FRAME\n" + plane.tobytes() + bytes(2 * 64))
    with open(tmp_path / "v.yuv", "wb") as f:
        for plane in luma:
            f.write(plane.tobytes() + bytes(64))
    v8 = load_y4m(tmp_path / "v.y4m")
    return [v8, load_y4m(tmp_path / "v10.y4m"), load_raw_yuv(tmp_path / "v.yuv", 16, 8, 30),
            downsample(v8, 0), downsample(v8, 1)]


def test_loaded_frames_cannot_be_made_writeable(tmp_path):
    for video in _stack_owners(tmp_path):
        with pytest.raises(ValueError):
            video.frames.setflags(write=True)
        with pytest.raises(ValueError):
            video.frames[0, 0, 0] = 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_video_rejects_non_finite_frames(bad):
    frames = np.zeros((2, 4, 4))
    frames[1, 2, 3] = bad
    with pytest.raises(ValueError, match="frames must be finite"):
        LumaVideo(frames, 30)
    assert LumaVideo(np.zeros((2, 4, 4), dtype=np.uint8), 30).num_frames == 2
