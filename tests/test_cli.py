import argparse
import contextlib
import inspect
import io
import json
import os
import shutil
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgreed import cli, svr
from stgreed.cli import _config, build_parser, main
from stgreed.evaluate import run_protocol, split_contents, train_model
from stgreed.features import GreedConfig, append_cache_record
from stgreed.video import PIXEL_FORMATS, VideoFormatError, load_raw_yuv, load_y4m

from conftest import write_y4m


@pytest.fixture
def video_pair(tmp_path, rng):
    frames = rng.uniform(0, 255, size=(12, 32, 32)).astype(np.uint8)
    ref = tmp_path / "ref.y4m"
    dist = tmp_path / "dist.y4m"
    write_y4m(ref, frames, fps_num=60)
    write_y4m(dist, frames[::2], fps_num=30)
    return str(ref), str(dist)


def _parse_features(out):
    lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
    return np.array([float(l) for l in lines])


def test_features_self_pair_is_zero(video_pair, capsys):
    ref, _ = video_pair
    rc = main(["features", ref, ref, "--scales", "1", "--wavelet", "haar"])
    assert rc == 0
    values = _parse_features(capsys.readouterr().out)
    assert values.shape == (8,)  # one scale: SGREED + 7 TGREED bands
    assert np.abs(values).max() <= 1e-9


def test_features_missing_file_exits_2(tmp_path, capsys):
    rc = main(["features", str(tmp_path / "no.y4m"), str(tmp_path / "no.y4m")])
    assert rc == 2
    assert "does not exist" in capsys.readouterr().err


def test_features_deterministic_and_csv(video_pair, capsys):
    ref, dist = video_pair
    argv = ["features", ref, dist, "--scales", "1", "--wavelet", "haar",
            "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    values = np.array([float(v) for v in first.strip().split(",")])
    assert values.shape == (8,)
    assert np.all(np.isfinite(values))


def test_features_frees_each_dist_before_decoding_the_next(video_pair, capsys,
                                                          monkeypatch):
    ref, dist = video_pair
    load, loaded, alive_at_next_load = cli._load_video, [], []

    def tracking_load(path, args, fps_override=None):
        if loaded:
            alive_at_next_load.append(loaded[-1]() is not None)
        video = load(path, args, fps_override)
        if path != ref:
            loaded.append(weakref.ref(video))
        return video

    monkeypatch.setattr(cli, "_load_video", tracking_load)
    assert main(["features", ref, dist, dist, dist, "--scales", "1",
                 "--wavelet", "haar"]) == 0
    capsys.readouterr()
    assert len(loaded) == 3
    assert alive_at_next_load == [False, False]


@pytest.mark.parametrize("flag, value, error", [
    ("--noise-var", "inf", "noise variance must be finite and > 0, got inf"),
    ("--levels", "0", "levels must be >= 1"),
    ("--levels", "65", "levels must be <= 64, got 65"),
    ("--patch", "0", "patch size must be >= 1, got 0"),
    ("--scales", "4,-1", "scale exponent must be >= 0"),
])
def test_features_rejects_a_bad_config_before_decoding(video_pair, capsys, monkeypatch,
                                                       flag, value, error):
    ref, dist = video_pair
    loads = []
    monkeypatch.setattr(cli, "_load_video", lambda *a, **k: loads.append(a))
    assert main(["features", ref, dist, f"{flag}={value}"]) == 2
    assert error in capsys.readouterr().err
    assert loads == []


@pytest.mark.parametrize("argv, error", [
    (["features", "V", "V", "--scales", "20000", "--levels", "1", "--wavelet", "haar"],
     "downsampling by 2**20000 would shrink 16x16 below 1x1"),
    (["histdump", "V", "--scale", "20000", "--levels", "1", "--band", "1", "--wavelet", "haar"],
     "downsampling by 2**20000 would shrink 16x16 below 1x1"),
    (["features", "V", "V", "--levels", "100000"], "levels must be <= 64, got 100000"),
], ids=["features-scales", "histdump-scale", "features-levels"])
def test_huge_exponent_exits_2_naming_it(tmp_path, rng, capsys, argv, error):
    # 2**20000 has more digits than Python converts to text.
    path = tmp_path / "v.y4m"
    write_y4m(path, rng.uniform(0, 255, size=(4, 16, 16)))
    assert main([str(path) if a == "V" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _write_ten_bit_twins(stem, codes, fps):
    """A 10-bit 4:2:0 Y4M file and its headerless yuv420p10le twin."""
    _, h, w = codes.shape
    chroma = np.full(2 * ((h + 1) // 2) * ((w + 1) // 2), 512, "<u2").tobytes()
    planes = [plane.astype("<u2").tobytes() + chroma for plane in codes]
    Path(f"{stem}.y4m").write_bytes(f"YUV4MPEG2 W{w} H{h} F{fps}:1 C420p10\n".encode()
                                    + b"".join(b"FRAME\n" + p for p in planes))
    Path(f"{stem}.yuv").write_bytes(b"".join(planes))


@pytest.mark.parametrize("n_ref, halve, flags", [
    (12, False, ["--wavelet", "haar"]),
    # The default bior2.2 bank needs 9 frames. At --patch 8 the patch variances
    # are numpy's reshape-and-mean instead of the default patch's patch-major sums.
    (24, True, []),
    (24, True, ["--patch", "8"]),
], ids=["haar", "bior2.2-patch-5", "bior2.2-patch-8"])
def test_ten_bit_y4m_and_raw_twin_print_identical_features(tmp_path, rng, capsys, n_ref, halve,
                                                           flags):
    ref = rng.integers(0, 1024, size=(n_ref, 32, 32))
    if halve:
        dist = ref[::2] // 2
    else:
        dist = np.clip(ref[::2] + rng.integers(-40, 41, size=ref[::2].shape), 0, 1023)
    _write_ten_bit_twins(tmp_path / "ref", ref, 60)
    _write_ten_bit_twins(tmp_path / "dist", dist, 30)
    flags = ["--scales", "0,1", *flags, "--format", "csv"]
    assert main(["features", str(tmp_path / "ref.y4m"), str(tmp_path / "dist.y4m"),
                 *flags]) == 0
    from_y4m = capsys.readouterr().out
    assert main(["features", str(tmp_path / "ref.yuv"), str(tmp_path / "dist.yuv"),
                 *flags, "--width", "32", "--height", "32", "--fps", "60",
                 "--dist-fps", "30", "--pixel-format", "yuv420p10le"]) == 0
    from_raw = capsys.readouterr().out
    assert from_raw == from_y4m
    values = np.array([float(v) for v in from_y4m.split(",")])
    assert values.shape == (16,) and np.all(np.isfinite(values)) and np.any(values > 0)


def _check_first_code_above_1023(tmp, t, h, w, k, pos, value, seed):
    """Both loaders and `greed features` report code k * h * w + pos of a
    (t, h, w) 10-bit stack written under directory tmp."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1024, size=(t, h, w))
    first = k * h * w + pos
    codes.flat[first] = value
    # Later samples may be out of range too; the first one is reported.
    codes.flat[first + 1:] = rng.integers(0, 65536, size=codes.size - first - 1)
    frame_bytes = 2 * (h * w + 2 * ((h + 1) // 2) * ((w + 1) // 2))
    header = len(f"YUV4MPEG2 W{w} H{h} F30:1 C420p10\n")
    _write_ten_bit_twins(f"{tmp}/ref", np.zeros((t, h, w), int), 30)
    _write_ten_bit_twins(f"{tmp}/bad", codes, 30)
    for ext, offset, load, flags in [
            ("y4m", header + 6 * (k + 1) + k * frame_bytes, load_y4m, []),
            ("yuv", k * frame_bytes, lambda p: load_raw_yuv(p, w, h, 30, "yuv420p10le"),
             ["--width", str(w), "--height", str(h), "--fps", "30",
              "--pixel-format", "yuv420p10le"])]:
        path = f"{tmp}/bad.{ext}"
        error = f"{path}: 10-bit sample {value} above 1023 at byte {offset + 2 * pos}"
        with pytest.raises(VideoFormatError) as exc:
            load(path)
        assert str(exc.value) == error
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["features", f"{tmp}/ref.{ext}", path, *flags]) == 2
        assert error in err.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.data())
def test_ten_bit_code_above_1023_exits_2_with_its_byte_offset(t, h, w, data):
    k = data.draw(st.integers(0, t - 1), label="frame")
    pos = data.draw(st.integers(0, h * w - 1), label="position")
    value = data.draw(st.integers(1024, 65535), label="value")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    with tempfile.TemporaryDirectory() as tmp:
        _check_first_code_above_1023(tmp, t, h, w, k, pos, value, seed)


def test_ten_bit_code_above_1023_under_a_directory_whose_name_holds_bad(tmp_path):
    # The draws of a failure the test above once reported: its temporary
    # directory was named tmpgbadjwri, and the reference's path, then made
    # by replacing "bad" with "ref" in the whole path, named a missing
    # directory. @example cannot fill st.data(), so the example is pinned here.
    tmp = tmp_path / "tmpgbadjwri"
    tmp.mkdir()
    _check_first_code_above_1023(tmp, t=3, h=1, w=3, k=2, pos=0, value=1388, seed=1388)


def test_features_appends_cache(video_pair, tmp_path, capsys):
    ref, dist = video_pair
    cache = tmp_path / "cache.jsonl"
    assert main(["features", ref, dist, "--scales", "1", "--wavelet", "haar",
                 "--cache", str(cache), "--content-id", "c00"]) == 0
    capsys.readouterr()
    record = json.loads(cache.read_text().strip())
    assert record["content"] == "c00"
    assert len(record["values"]) == 8


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_features_many_dists_equal_single_pairs(video_pair, tmp_path, capsys, fmt):
    ref, dist = video_pair
    third = str(tmp_path / "third.y4m")
    frames = np.random.default_rng(5).uniform(0, 255, size=(4, 32, 32))
    write_y4m(third, frames, fps_num=20)
    dists = [dist, ref, third]
    flags = ["--scales", "1", "--wavelet", "haar", "--format", fmt,
             "--content-id", "c07"]

    singles, single_cache = [], tmp_path / "single.jsonl"
    for d in dists:
        assert main(["features", ref, d, *flags, "--cache", str(single_cache)]) == 0
        singles.append(capsys.readouterr().out)
    many_cache = tmp_path / "many.jsonl"
    assert main(["features", ref, *dists, *flags, "--cache", str(many_cache)]) == 0
    many = capsys.readouterr().out

    if fmt == "csv":
        assert many == "".join(singles)
    else:
        config_line = singles[0].splitlines()[0]
        assert config_line.startswith("# config ")
        expected = [config_line]
        for d, out in zip(dists, singles):
            assert out.splitlines()[0] == config_line
            expected += [f"# dist {d}", *out.splitlines()[1:]]
        assert many.splitlines() == expected
    assert many_cache.read_text() == single_cache.read_text()
    records = [json.loads(line) for line in many_cache.read_text().splitlines()]
    assert [(r["ref"], r["dist"], r["content"]) for r in records] == [
        (ref, d, "c07") for d in dists]


def _write_model(path, fingerprint, bias=42.0):
    X = np.zeros((2, 8))
    X[1] = 1.0
    model = svr.train_svr(X, [bias, bias], (1.0, 0.1, 0.5),
                          fingerprint=fingerprint)
    svr.save_model(model, path)


def test_score_with_constant_model(video_pair, tmp_path, capsys):
    ref, dist = video_pair
    model_path = str(tmp_path / "m.json")
    cfg = GreedConfig(wavelet="haar", scales=(1,))
    _write_model(model_path, cfg.fingerprint())
    rc = main(["score", ref, dist, "--model", model_path,
               "--wavelet", "haar", "--scales", "1"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 42.0


@pytest.mark.parametrize("edit, error", [
    (lambda payload: [1, 2], "not a stgreed-svr model file"),
    (lambda payload: {k: v for k, v in payload.items() if k != "feature_shift"},
     "model file lacks field 'feature_shift'"),
    (lambda payload: {**payload, "kernel_gamma": payload["kernel_gamma"] * 2},
     "kernel_gamma differs from hyperparams[2]"),
    # One row of 2 * 8 values would reshape to the two rows dual_coeffs asks for.
    (lambda payload: {**payload, "support_vectors": [[0.0] * 16], "dual_coeffs": [1.0, 1.0]},
     "support_vectors must be (2, 8), got (1, 16)"),
    (lambda payload: {**payload, "hyperparams": [1.0, 0.1, -2.0], "kernel_gamma": -2.0},
     "kernel_gamma must be finite and > 0, got -2.0"),
    (lambda payload: {**payload, "support_vectors": [[0.0] * 8], "dual_coeffs": [[1.0]]},
     "dual_coeffs must be (n_sv,), got (1, 1)"),
    # A column would broadcast against a feature vector and score it wrong.
    (lambda payload: {**payload, "feature_shift": [[v] for v in payload["feature_shift"]]},
     "feature_shift must be (8,), got (8, 1)"),
], ids=["not-an-object", "missing-field", "kernel-gamma-mismatch", "support-vector-shape",
        "negative-kernel-gamma", "dual-coeffs-column", "feature-shift-column"])
def test_score_malformed_model_exits_2(video_pair, tmp_path, capsys, edit, error):
    ref, dist = video_pair
    model_path = tmp_path / "m.json"
    _write_model(model_path, GreedConfig(wavelet="haar", scales=(1,)).fingerprint())
    model_path.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
    rc = main(["score", ref, dist, "--model", str(model_path),
               "--wavelet", "haar", "--scales", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{model_path}: " in err and error in err


def test_score_fingerprint_mismatch_exits_3(video_pair, tmp_path, capsys):
    ref, dist = video_pair
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, GreedConfig().fingerprint())
    rc = main(["score", ref, dist, "--model", model_path,
               "--wavelet", "haar", "--scales", "1"])
    assert rc == 3
    assert "config" in capsys.readouterr().err


def test_score_with_a_model_of_another_width_exits_2(video_pair, tmp_path, capsys):
    # A model saved without a fingerprint skips the config check, so the
    # 16 values of two scales reach an 8-feature model.
    ref, dist = video_pair
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, "")
    assert main(["score", ref, dist, "--model", model_path,
                 "--wavelet", "haar", "--scales", "0,1"]) == 2
    assert capsys.readouterr() == ("", "error: got 16 feature values, model takes 8\n")


def test_score_matches_features_plus_predict(video_pair, tmp_path, capsys, rng):
    ref, dist = video_pair
    assert main(["features", ref, dist, "--scales", "1", "--wavelet", "haar"]) == 0
    values = _parse_features(capsys.readouterr().out)

    X = rng.normal(size=(20, 8))
    y = X[:, 0] * 3.0 + rng.normal(size=20)
    cfg = GreedConfig(wavelet="haar", scales=(1,))
    model = svr.train_svr(X, y, (10.0, 0.1, 0.5), fingerprint=cfg.fingerprint())
    model_path = str(tmp_path / "m.json")
    svr.save_model(model, model_path)

    assert main(["score", ref, dist, "--model", model_path,
                 "--wavelet", "haar", "--scales", "1"]) == 0
    score = float(capsys.readouterr().out.strip())
    assert score == pytest.approx(svr.predict(model, values), abs=1e-12)


def _write_dataset(tmp_path, rng, n_contents=6, per_content=5):
    cfg = GreedConfig()
    manifest = tmp_path / "manifest.csv"
    cache = tmp_path / "cache.jsonl"
    lines = ["content_id,ref,dist,fps,tag,dmos"]
    for c in range(n_contents):
        for k in range(per_content):
            x = rng.normal(size=16)
            dmos = 30.0 + 8.0 * x[0] + rng.normal(0, 0.3)
            ref, dist = f"r{c}.y4m", f"d{c}_{k}.y4m"
            lines.append(f"c{c:02d},{ref},{dist},30,v{k},{dmos:.4f}")
            feats = type("F", (), {"values": x, "config": cfg})()
            append_cache_record(cache, ref, dist, f"c{c:02d}", feats)
    manifest.write_text("\n".join(lines) + "\n")
    return str(manifest), str(cache)


def test_train_and_eval_smoke(tmp_path, rng, capsys):
    manifest, cache = _write_dataset(tmp_path, rng)
    out = str(tmp_path / "model.json")
    assert main(["train", "--manifest", manifest, "--cache", cache,
                 "--out", out]) == 0
    msg = capsys.readouterr().out
    assert "hyperparams" in msg
    model = svr.load_model(out)
    assert model.fingerprint == GreedConfig().fingerprint()

    report_path = str(tmp_path / "report.json")
    assert main(["eval", "--manifest", manifest, "--cache", cache,
                 "--trials", "2", "--json", report_path]) == 0
    out_text = capsys.readouterr().out
    assert "SROCC" in out_text and "RMSE" in out_text
    report = json.loads(Path(report_path).read_text())
    assert report["n_trials"] == 2
    assert len(report["per_trial"]["srocc"]) == 2


@pytest.mark.parametrize("cmd, n_contents, per_content, error", [
    # One content of 2 or 4 versions is each trial's test split, too few
    # rows for the logistic fit.
    ("eval", 3, 2, "trial 0: test split has 2 rows, needs at least 5"),
    ("eval", 3, 4, "trial 0: test split has 4 rows, needs at least 5"),
    # Six single-version contents leave one validation row.
    ("eval", 6, 1, "trial 0: validation split has 1 rows, needs at least 2"),
    ("train", 6, 1, "tuning split: validation split has 1 rows, needs at least 2"),
], ids=["eval-3x2", "eval-3x4", "eval-6x1", "train-6x1"])
def test_small_splits_exit_2_naming_the_split(tmp_path, rng, capsys, cmd, n_contents,
                                              per_content, error):
    manifest, cache = _write_dataset(tmp_path, rng, n_contents, per_content)
    argv = [cmd, "--manifest", manifest, "--cache", cache]
    if cmd == "train":
        argv += ["--out", str(tmp_path / "model.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_eval_empty_manifest_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("content_id,ref,dist,fps,tag,dmos\n")
    cache = tmp_path / "cache.jsonl"
    cache.write_text("")
    rc = main(["eval", "--manifest", str(manifest), "--cache", str(cache)])
    assert rc == 2
    assert "empty manifest" in capsys.readouterr().err


def _cache_line(ref="r0.y4m", dist="d0_0.y4m", values=(0.5,) * 16):
    return json.dumps({"fingerprint": GreedConfig().fingerprint(), "ref": ref,
                       "dist": dist, "content": "c00", "values": values})


_FINITE_VALUES = ("cache.jsonl:1: cache record's values must be a non-empty list of "
                  "finite numbers")


@pytest.mark.parametrize("cmd", ["train", "eval"])
@pytest.mark.parametrize("bad_file, line, error", [
    ("cache", '{"ref": "a"}', "cache.jsonl:1: cache record must be an object"),
    ("cache", "[1,2]", "cache.jsonl:1: cache record must be an object"),
    ("cache", _cache_line(ref=["r0.y4m"]), "cache.jsonl:1: cache record's ref and dist"),
    ("cache", _cache_line(dist=7), "cache.jsonl:1: cache record's ref and dist"),
    ("cache", _cache_line(values=[[0.5, 1.0], 2.0]), "cache.jsonl:1: cache record's values"),
    ("cache", _cache_line(values=["0.5"] * 16), "cache.jsonl:1: cache record's values"),
    ("cache", _cache_line(values=3.0), "cache.jsonl:1: cache record's values"),
    ("cache", _cache_line(values=[0.5] * 15 + [float("nan")]), _FINITE_VALUES),
    ("cache", _cache_line(values=[float("inf")] + [0.5] * 15), _FINITE_VALUES),
    ("cache", _cache_line(values=[int("9" * 400)] + [0.5] * 15), _FINITE_VALUES),
    ("cache", _cache_line(values=[0.5] * 17),
     "cache.jsonl:2: cache record has 16 values, but the record on line 1 has 17"),
    ("manifest", "c,a,b", "manifest.csv:2: manifest row has too few fields"),
    ("manifest", "c,a,b,1/0,v,3", "manifest.csv:2: bad manifest row: invalid fps '1/0'"),
    ("manifest", "c,a,b,0,v,3", "manifest.csv:2: bad manifest row: fps must be positive, got 0"),
    ("manifest", "c,a,b,-30,v,3",
     "manifest.csv:2: bad manifest row: fps must be positive, got -30"),
    ("manifest", "c,a,b,30,v,nan", "manifest.csv:2: bad manifest row: dmos must be finite"),
], ids=["cache-missing-fields", "cache-not-an-object", "cache-list-ref", "cache-int-dist",
        "cache-nested-values", "cache-string-values", "cache-scalar-values",
        "cache-nan-values", "cache-infinity-values", "cache-huge-int-values",
        "cache-17-values",
        "manifest-short-row", "manifest-zero-fps", "manifest-fps-0", "manifest-negative-fps",
        "manifest-nan-dmos"])
def test_malformed_dataset_file_exits_2(tmp_path, rng, capsys, cmd, bad_file, line, error):
    manifest, cache = _write_dataset(tmp_path, rng, n_contents=3, per_content=2)
    path = Path(manifest if bad_file == "manifest" else cache)
    if bad_file == "manifest":
        text = path.read_text().split("\n", 1)
        path.write_text(f"{text[0]}\n{line}\n{text[1]}")
    else:
        path.write_text(f"{line}\n{path.read_text()}")
    extra = ["--out", str(tmp_path / "m.json")] if cmd == "train" else []
    assert main([cmd, "--manifest", manifest, "--cache", cache, *extra]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("dmos", ["nan", "inf"])
def test_eval_non_finite_dmos_exits_2(tmp_path, rng, capsys, split, dmos):
    manifest, cache = _write_dataset(tmp_path, rng, n_contents=8, per_content=6)
    lines = Path(manifest).read_text().splitlines()
    contents = sorted({line.split(",")[0] for line in lines[1:]})
    train, _, test = split_contents(contents, np.random.default_rng([7, 0]))
    # the first version of the first content in the chosen split
    row = 1 + 6 * contents.index(sorted(train if split == "train" else test)[0])
    fields = lines[row].split(",")
    lines[row] = ",".join(fields[:-1] + [dmos])
    Path(manifest).write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--manifest", manifest, "--cache", cache,
               "--trials", "1", "--seed", "7"])
    assert rc == 2
    assert f"manifest.csv:{row + 1}: bad manifest row" in capsys.readouterr().err


@pytest.mark.parametrize("patch", ["0", "-1"])
def test_features_non_positive_patch_exits_2(video_pair, capsys, patch):
    ref, dist = video_pair
    rc = main(["features", ref, dist, "--scales", "1", "--wavelet", "haar",
               "--patch", patch])
    assert rc == 2
    assert f"patch size must be >= 1, got {patch}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, error", [
    ("--noise-var", "inf", "noise variance must be finite and > 0, got inf"),
    ("--noise-var", "nan", "noise variance must be finite and > 0, got nan"),
])
def test_features_out_of_range_number_exits_2(video_pair, capsys, flag, value, error):
    ref, dist = video_pair
    rc = main(["features", ref, dist, "--scales", "1", "--wavelet", "haar", flag, value])
    assert rc == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_eval_non_positive_trials_exits_2(tmp_path, rng, capsys, trials):
    manifest, cache = _write_dataset(tmp_path, rng, n_contents=3, per_content=2)
    rc = main(["eval", "--manifest", manifest, "--cache", cache, "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"trials must be >= 1, got {trials}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("cmd", ["train", "eval"])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_train_and_eval_negative_seed_exits_2(tmp_path, rng, capsys, cmd, seed):
    manifest, cache = _write_dataset(tmp_path, rng, n_contents=3, per_content=2)
    extra = ["--out", str(tmp_path / "m.json")] if cmd == "train" else []
    assert main([cmd, "--manifest", manifest, "--cache", cache, *extra, "--seed", seed]) == 2
    assert capsys.readouterr() == ("", f"error: seed must be >= 0, got {seed}\n")


@pytest.mark.parametrize("cmd, flag, value, error", [
    ("eval", "--trials", "0", "trials must be >= 1, got 0"),
    ("eval", "--seed", "-1", "seed must be >= 0, got -1"),
    ("train", "--seed", "-1", "seed must be >= 0, got -1"),
])
def test_train_and_eval_check_numbers_before_reading_the_manifest(tmp_path, capsys, cmd, flag,
                                                                  value, error):
    extra = ["--out", str(tmp_path / "m.json")] if cmd == "train" else []
    assert main([cmd, "--manifest", str(tmp_path / "missing.csv"),
                 "--cache", str(tmp_path / "missing.jsonl"), *extra, flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_train_missing_cache_pairs_listed(tmp_path, rng, capsys):
    manifest, cache = _write_dataset(tmp_path, rng, n_contents=3, per_content=2)
    # drop the first cached record
    lines = Path(cache).read_text().strip().split("\n")
    Path(cache).write_text("\n".join(lines[1:]) + "\n")
    rc = main(["train", "--manifest", manifest, "--cache", cache,
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing" in err
    assert "r0.y4m / d0_0.y4m" in err


def test_histdump(tmp_path, rng, capsys):
    frames = rng.uniform(0, 255, size=(16, 8, 8)).astype(np.uint8)
    path = tmp_path / "v.y4m"
    write_y4m(path, frames, fps_num=30)
    rc = main(["histdump", str(path), "--scale", "1", "--band", "4",
               "--bins", "33", "--wavelet", "haar"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 33
    centers = np.array([float(l.split("\t")[0]) for l in lines])
    density = np.array([float(l.split("\t")[1]) for l in lines])
    assert np.all(np.diff(centers) > 0)
    assert np.sum(density) * (centers[1] - centers[0]) == pytest.approx(1.0)


def test_histdump_bins_above_the_coefficient_count_exit_2(tmp_path, rng, capsys):
    # 16 frames of 4x4 pooled samples: 256 coefficients, so 256 bins at most
    path = tmp_path / "v.y4m"
    write_y4m(path, rng.uniform(0, 255, size=(16, 8, 8)), fps_num=30)
    argv = ["histdump", str(path), "--scale", "1", "--wavelet", "haar"]
    assert main([*argv, "--bins", "256"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 256
    assert main([*argv, "--bins", "257"]) == 2
    assert capsys.readouterr() == (
        "", "error: bins must be <= the 256 coefficients, got 257\n")


def test_histdump_rejects_short_clip_before_building_the_bank(tmp_path, rng, capsys,
                                                             monkeypatch):
    # bior2.2 at 9 levels has 2556 taps, so 16 frames are far too few
    path = tmp_path / "v.y4m"
    write_y4m(path, rng.uniform(0, 255, size=(16, 8, 8)), fps_num=30)

    def must_not_build(*args):
        raise AssertionError("filter bank built for a clip it cannot fit")

    monkeypatch.setattr(cli, "build_packet_filters", must_not_build)
    assert main(["histdump", str(path), "--scale", "1", "--levels", "9"]) == 2
    assert ("video too short for the temporal filter bank: 2556 taps need at least "
            "639 frames, got 16") in capsys.readouterr().err


def test_histdump_band_out_of_range(tmp_path, rng, capsys):
    frames = rng.uniform(0, 255, size=(16, 8, 8)).astype(np.uint8)
    path = tmp_path / "v.y4m"
    write_y4m(path, frames, fps_num=30)
    rc = main(["histdump", str(path), "--scale", "1", "--band", "8"])
    assert rc == 2
    assert "band" in capsys.readouterr().err


@pytest.mark.parametrize("extra, error", [
    (["--band", "9"], "band must be in [1, 7]"),
    (["--levels", "2"], "band must be in [1, 3]"),  # the default --band 4
    (["--levels", "0"], "levels must be >= 1"),
    (["--levels", "100000", "--band", "0"], "levels must be <= 64, got 100000"),
    (["--scale", "-1"], "scale exponent must be >= 0"),
    (["--bins", "1"], "need at least 2 bins"),
    # 2**100000000, this bank's band count, takes about a second to compute.
    (["--levels", "100000000"], "levels must be <= 64, got 100000000"),
], ids=["band-9", "levels-2-default-band-4", "levels-0", "levels-100000-band-0", "scale--1",
        "bins-1", "levels-100000000"])
def test_histdump_checks_band_and_levels_before_decoding(tmp_path, capsys, extra, error):
    assert main(["histdump", str(tmp_path / "missing.y4m"), *extra]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("cmd", ["features", "train", "eval"])
def test_missing_output_directory_exits_2_before_any_input_is_read(video_pair, tmp_path, rng,
                                                                   capsys, monkeypatch, cmd):
    manifest, cache = _write_dataset(tmp_path, rng)
    out = str(tmp_path / "missing" / "out.json")
    argv = {"features": ["features", *video_pair, "--scales", "1", "--cache", out],
            "train": ["train", "--manifest", manifest, "--cache", cache, "--out", out],
            "eval": ["eval", "--manifest", manifest, "--cache", cache, "--trials", "1",
                     "--json", out]}[cmd]

    def must_not_read(*args, **kwargs):
        raise AssertionError("input read before the output path was checked")

    monkeypatch.setattr(cli, "_load_video", must_not_read)
    monkeypatch.setattr(cli, "_load_dataset", must_not_read)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: no such directory\n")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("cmd", ["features", "train", "eval"])
def test_output_path_that_is_a_directory_exits_2_before_any_input_is_read(
        video_pair, tmp_path, rng, capsys, monkeypatch, cmd):
    manifest, cache = _write_dataset(tmp_path, rng)
    out = str(tmp_path / "outdir")
    os.mkdir(out)
    argv = {"features": ["features", *video_pair, "--scales", "1", "--cache", out],
            "train": ["train", "--manifest", manifest, "--cache", cache, "--out", out],
            "eval": ["eval", "--manifest", manifest, "--cache", cache, "--trials", "1",
                     "--json", out]}[cmd]

    def must_not_read(*args, **kwargs):
        raise AssertionError("input read before the output path was checked")

    monkeypatch.setattr(cli, "_load_video", must_not_read)
    monkeypatch.setattr(cli, "_load_dataset", must_not_read)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: it is a directory\n")
    assert os.listdir(out) == []


def test_output_path_without_a_directory_is_written_in_the_working_directory(
        tmp_path, rng, capsys, monkeypatch):
    manifest, cache = _write_dataset(tmp_path, rng)
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--manifest", manifest, "--cache", cache, "--out", "m.json"]) == 0
    assert svr.load_model(tmp_path / "m.json").fingerprint == GreedConfig().fingerprint()


@pytest.mark.parametrize("cmd", ["features", "score", "train", "eval", "histdump"])
def test_help_exits_cleanly(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["features", "score"])
def test_jobs_is_not_an_option(video_pair, tmp_path, capsys, cmd):
    ref, dist = video_pair
    model = ["--model", str(tmp_path / "m.json")] if cmd == "score" else []
    with pytest.raises(SystemExit) as exc:
        main([cmd, ref, dist, *model, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["features", "a.y4m", "b.y4m"],
    ["score", "a.y4m", "b.y4m", "--model", "m.json"],
    ["train", "--manifest", "m.csv", "--cache", "c.jsonl", "--out", "o.json"],
    ["eval", "--manifest", "m.csv", "--cache", "c.jsonl"],
])
def test_config_flag_defaults_are_greed_config(argv):
    assert _config(build_parser().parse_args(argv)) == GreedConfig()


def test_histdump_defaults_are_greed_config():
    args = build_parser().parse_args(["histdump", "v.y4m"])
    assert (args.wavelet, args.levels) == (GreedConfig().wavelet, GreedConfig().levels)
    assert args.scale == min(GreedConfig().scales)


def _subparser(cmd):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[cmd]


def _move_default(monkeypatch, fn, name, value):
    """Give fn's parameter name the default value for the rest of the test."""
    names = list(inspect.signature(fn).parameters)
    defaults = list(fn.__defaults__)
    defaults[names.index(name) - len(names) + len(defaults)] = value
    monkeypatch.setattr(fn, "__defaults__", tuple(defaults))


# Per subcommand: the flags whose defaults are library signature defaults,
# and the flags whose defaults only the CLI states.
_SIGNATURE_DEFAULTS = {
    "features": {"pixel_format": (load_raw_yuv, "pixel_format")},
    "score": {"pixel_format": (load_raw_yuv, "pixel_format")},
    "train": {"seed": (train_model, "seed")},
    "eval": {"trials": (run_protocol, "trials"), "seed": (run_protocol, "seed")},
    "histdump": {"pixel_format": (load_raw_yuv, "pixel_format")},
}
_CLI_DEFAULTS = {"features": {"format": "text"}, "histdump": {"band": 4, "bins": 101}}


@pytest.mark.parametrize("cmd", list(_SIGNATURE_DEFAULTS))
def test_every_flag_default_comes_from_the_library(cmd, monkeypatch):
    # Each library default is moved to a value no literal in the CLI holds;
    # a parser built afterwards must follow every one of them.
    want = dict(_CLI_DEFAULTS.get(cmd, {}))
    for dest, (fn, name) in _SIGNATURE_DEFAULTS[cmd].items():
        want[dest] = f"moved {fn.__name__} {name}"
        _move_default(monkeypatch, fn, name, want[dest])
    for field, value in [("wavelet", "moved-wavelet"), ("scales", (7, 9)), ("noise_var", 0.25),
                         ("patch_size", 3), ("levels", 6)]:
        monkeypatch.setattr(GreedConfig, field, value)
    if cmd == "histdump":
        want.update(wavelet="moved-wavelet", levels=6, scale=7)
    else:
        want.update(wavelet="moved-wavelet", scales=(7, 9), noise_var=0.25, patch=3, levels=6)
    actions = {a.dest: a for a in _subparser(cmd)._actions}
    assert {dest: a.default for dest, a in actions.items()
            if a.default not in (None, argparse.SUPPRESS)} == want
    assert actions["wavelet"].choices is cli.WAVELETS
    if "pixel_format" in want:
        assert actions["pixel_format"].choices is PIXEL_FORMATS


def test_eval_json_reports_per_trial_fit_details(tmp_path, rng, capsys):
    manifest, cache = _write_dataset(tmp_path, rng)
    report_path = tmp_path / "report.json"
    assert main(["eval", "--manifest", manifest, "--cache", cache,
                 "--trials", "2", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out.splitlines()  # stdout has the medians only
    assert [line.split("\t")[0] for line in out] == ["SROCC", "KROCC", "PLCC", "RMSE",
                                                     f"report written to {report_path}"]
    per_trial = json.loads(report_path.read_text())["per_trial"]
    assert [len(hp) for hp in per_trial["hyperparams"]] == [3, 3]
    assert all(isinstance(c, bool) for c in per_trial["logistic_converged"])
    assert len(per_trial["logistic_converged"]) == 2
    assert len(per_trial["smo_iterations"]) == 2
    assert all(isinstance(k, int) and k > 0 for k in per_trial["smo_iterations"])
    assert [type(c) for c in per_trial["smo_converged"]] == [bool, bool]
    assert all(isinstance(g, float) and g <= svr._SMO_TOL for g in per_trial["smo_gap"])
    assert len(per_trial["smo_gap"]) == 2


def test_features_on_clip_shorter_than_filter_bank_exits_2(tmp_path, rng, capsys):
    path = tmp_path / "short.y4m"
    write_y4m(path, rng.uniform(0, 255, size=(8, 32, 32)), fps_num=60)
    assert main(["features", str(path), str(path), "--scales", "1"]) == 2
    assert "video too short for the temporal filter bank" in capsys.readouterr().err


@pytest.mark.parametrize("y4m_tags, raw_fps, error", [
    ("W16 H16 F30:0", None, "bad F tag F30:0"),
    ("W16 H16 F30", None, "bad F tag F30"),
    ("W16 H16 F-30:1", None, "bad F tag F-30:1"),
    ("Wx H16 F30:1", None, "bad W tag Wx"),
    ("W16 H0 F30:1", None, "bad H tag H0"),
    (None, "30/0", "invalid fps '30/0'"),
    (None, "x", "invalid fps 'x'"),
    (None, "0", "fps must be positive"),
    ("H16 F30:1", None, "stream header missing W/H/F tags"),
    ("W16 F30:1", None, "stream header missing W/H/F tags"),
    ("W16 H16", None, "stream header missing W/H/F tags"),
])
def test_malformed_size_or_frame_rate_exits_2(tmp_path, capsys, y4m_tags, raw_fps, error):
    if y4m_tags is None:
        path = tmp_path / "v.yuv"
        path.write_bytes(bytes(16 * 16 * 3 // 2))
        extra = ["--width", "16", "--height", "16", "--fps", raw_fps]
    else:
        header = f"YUV4MPEG2 {y4m_tags} Cmono\n".encode()
        path = tmp_path / "v.y4m"
        path.write_bytes(header + b"FRAME\n" + bytes(16 * 16))
        extra = []
        error += f" (header ends at byte {len(header) - 1})"
    rc = main(["features", str(path), str(path), *extra])
    assert rc == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["--width", "--height", "--fps"])
def test_raw_input_without_its_geometry_or_rate_exits_2(tmp_path, capsys, missing):
    path = tmp_path / "v.yuv"
    path.write_bytes(bytes(16 * 16 * 3 // 2))
    flags = {"--width": "16", "--height": "16", "--fps": "30"}
    del flags[missing]
    rc = main(["features", str(path), str(path), *(a for kv in flags.items() for a in kv)])
    assert rc == 2
    assert f"{path}: raw YUV input needs --width, --height and --fps" in capsys.readouterr().err


def test_header_only_stream_exits_2_with_the_header_end(tmp_path, capsys):
    path = tmp_path / "v.y4m"
    path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 Cmono\n")
    assert main(["features", str(path), str(path)]) == 2
    assert (f"{path}: stream contains no frames (header ends at byte 27)"
            in capsys.readouterr().err)


def test_features_accepts_upper_case_y4m_suffix(video_pair, tmp_path, capsys):
    ref, dist = video_pair
    upper = [str(shutil.copy(path, tmp_path / name))
             for path, name in ((ref, "ref.Y4M"), (dist, "dist.Y4M"))]
    args = ["--scales", "1", "--wavelet", "haar"]
    assert main(["features", ref, dist, *args]) == 0
    lower_out = capsys.readouterr().out
    assert main(["features", *upper, *args]) == 0
    assert capsys.readouterr().out == lower_out


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is the test's own, never pytest's."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_features_into_closed_pipe_exits_141_silently(video_pair, tmp_path, capsys,
                                                     monkeypatch):
    ref, dist = video_pair
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["features", ref, dist, "--scales", "1", "--wavelet", "haar"]) == 141
        os.write(fd, b"the interpreter's last flush")  # lands in devnull now
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


@pytest.mark.parametrize("chroma", ["C411", "C444alpha", "C420p12", "C420p9", "C420jpegp10"])
def test_unsupported_chroma_exits_2(tmp_path, capsys, chroma):
    path = tmp_path / "v.y4m"
    header = f"YUV4MPEG2 W4 H4 F30:1 {chroma}\n".encode()
    path.write_bytes(header + b"FRAME\n" + bytes(64))
    assert main(["features", str(path), str(path)]) == 2
    assert (f"unsupported chroma tag {chroma} (header ends at byte {len(header) - 1})"
            in capsys.readouterr().err)
