"""Command-line interface: features, score, train, eval, histdump."""

import argparse
import json
import os
import sys

from . import evaluate, svr
from .bandpass import WAVELETS, build_packet_filters, check_band, check_bank_fits, temporal_filter
from .features import GreedConfig, append_cache_record, compute_features, read_cache
from .video import PIXEL_FORMATS, VideoFormatError, downsample, load_raw_yuv, load_y4m


class FingerprintMismatch(Exception):
    pass


def _default(fn, name):
    """The library's default for fn's parameter name, so the CLI states no copy of it."""
    import inspect
    return inspect.signature(fn).parameters[name].default


def _check_out_path(path):
    """Reject an output path (None for none) that is a directory or has no directory."""
    if path and os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"cannot write {path}: no such directory")


def _scales(text):
    return tuple(int(s) for s in text.split(","))


def _add_config_args(p):
    p.add_argument("--wavelet", default=GreedConfig.wavelet, choices=WAVELETS,
                   help="temporal wavelet filter")
    p.add_argument("--scales", type=_scales, default=GreedConfig.scales,
                   help="comma-separated spatial downsampling exponents")
    p.add_argument("--noise-var", type=float, default=GreedConfig.noise_var,
                   help="neural noise variance")
    p.add_argument("--patch", type=int, default=GreedConfig.patch_size,
                   help="patch size in pixels")
    p.add_argument("--levels", type=int, default=GreedConfig.levels,
                   help="wavelet packet decomposition depth")


def _add_video_args(p):
    p.add_argument("--width", type=int, help="frame width (raw YUV inputs only)")
    p.add_argument("--height", type=int, help="frame height (raw YUV inputs only)")
    p.add_argument("--fps", help="frame rate, e.g. 120 or 30000/1001 (raw YUV inputs only)")
    p.add_argument("--pixel-format", default=_default(load_raw_yuv, "pixel_format"),
                   choices=PIXEL_FORMATS, help="raw YUV pixel format")


def _config(args):
    return GreedConfig(wavelet=args.wavelet, scales=args.scales,
                       noise_var=args.noise_var, patch_size=args.patch,
                       levels=args.levels)


def _load_video(path, args, fps_override=None):
    if not os.path.exists(path):
        raise VideoFormatError(f"input file does not exist: {path}")
    if path.lower().endswith(".y4m"):
        return load_y4m(path)
    if args.width is None or args.height is None or (args.fps is None and fps_override is None):
        raise VideoFormatError(
            f"{path}: raw YUV input needs --width, --height and --fps")
    return load_raw_yuv(path, args.width, args.height,
                        fps_override or args.fps, args.pixel_format)


def cmd_features(args):
    cfg = _config(args)
    _check_out_path(args.cache)
    ref = _load_video(args.ref, args)
    for i, path in enumerate(args.dist):
        # Bind no name to the distorted video, so it is freed before the next
        # one is decoded.
        feats = compute_features(ref, _load_video(path, args, fps_override=args.dist_fps), cfg)
        if args.format == "csv":
            print(",".join(repr(float(v)) for v in feats.values))
        else:
            if i == 0:
                print(f"# config {cfg.fingerprint()}")
            if len(args.dist) > 1:
                print(f"# dist {path}")
            for v in feats.values:
                print(repr(float(v)))
        if args.cache:
            append_cache_record(args.cache, args.ref, path,
                                args.content_id or args.ref, feats)
    return 0


def cmd_score(args):
    cfg = _config(args)
    model = svr.load_model(args.model)
    if model.fingerprint and model.fingerprint != cfg.fingerprint():
        raise FingerprintMismatch(
            f"model was trained with config {model.fingerprint}, "
            f"current config is {cfg.fingerprint()}")
    ref = _load_video(args.ref, args)
    dist = _load_video(args.dist, args, fps_override=args.dist_fps)
    feats = compute_features(ref, dist, cfg)
    print(repr(svr.predict(model, feats.values)))
    return 0


def _load_dataset(args, cfg):
    return (evaluate.read_manifest(args.manifest),
            read_cache(args.cache, fingerprint=cfg.fingerprint()))


def cmd_train(args):
    cfg = _config(args)
    evaluate._check_counts(args.seed)
    _check_out_path(args.out)
    rows, features = _load_dataset(args, cfg)
    model = evaluate.train_model(rows, features, seed=args.seed,
                                 fingerprint=cfg.fingerprint())
    svr.save_model(model, args.out)
    C, eps, gamma = model.hyperparams
    print(f"trained on {len(rows)} rows, hyperparams C={C} eps={eps} gamma={gamma}")
    print(f"model written to {args.out}")
    return 0


def cmd_eval(args):
    cfg = _config(args)
    evaluate._check_counts(args.seed, args.trials)
    _check_out_path(args.json)
    rows, features = _load_dataset(args, cfg)
    report = evaluate.run_protocol(rows, features, trials=args.trials, seed=args.seed)
    medians = {name: getattr(report, name) for name in ("srocc", "krocc", "plcc", "rmse")}
    for name, value in medians.items():
        print(f"{name.upper()}\t{'n/a' if value is None else f'{value:.4f}'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"median": medians, "n_trials": report.n_trials,
                       "per_trial": report.per_trial}, f, indent=1)
        print(f"report written to {args.json}")
    return 0


def cmd_histdump(args):
    # A bad wavelet, level count, scale, band or bin count below 2 fails before decoding.
    GreedConfig(wavelet=args.wavelet, levels=args.levels, scales=(args.scale,))
    check_band(args.levels, args.band)
    evaluate._check_counts(bins=args.bins)
    video = _load_video(args.input, args)
    check_bank_fits(args.wavelet, args.levels, video.num_frames)
    video = downsample(video, args.scale)
    bank = build_packet_filters(args.wavelet, args.levels)
    coeffs = temporal_filter(video.frames, bank.filters[args.band - 1]).coeffs
    centers, density = evaluate.dump_histogram(coeffs, args.bins)
    sys.stdout.write(evaluate.format_histogram(centers, density))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="greed",
        description="Entropic-difference video quality assessment for videos "
                    "of possibly differing frame rates.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("features", formatter_class=fmt,
                       help="compute the 16-D feature vector for a video pair, "
                            "or for one reference and several distorted videos")
    p.add_argument("ref")
    p.add_argument("dist", nargs="+",
                   help="distorted videos, each scored against REF in turn")
    p.add_argument("--dist-fps", help="frame rate of every distorted video (raw input)")
    p.add_argument("--format", default="text", choices=["text", "csv"])
    p.add_argument("--cache", help="append one record per DIST to this feature cache file")
    p.add_argument("--content-id", help="content id recorded in the cache for every DIST")
    _add_config_args(p)
    _add_video_args(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("score", formatter_class=fmt,
                       help="score a video pair with a trained model")
    p.add_argument("ref")
    p.add_argument("dist")
    p.add_argument("--model", required=True)
    p.add_argument("--dist-fps", help="frame rate of the distorted video (raw input)")
    _add_config_args(p)
    _add_video_args(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a regressor from a manifest and feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=_default(evaluate.train_model, "seed"))
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="run the randomized split evaluation protocol")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--trials", type=int, default=_default(evaluate.run_protocol, "trials"))
    p.add_argument("--seed", type=int, default=_default(evaluate.run_protocol, "seed"))
    p.add_argument("--json", help="also write a machine-readable report here")
    _add_config_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("histdump", formatter_class=fmt,
                       help="dump a subband coefficient histogram as text")
    p.add_argument("input")
    p.add_argument("--band", type=int, default=4, help="subband index (1-based)")
    p.add_argument("--scale", type=int, default=min(GreedConfig.scales),
                   help="spatial scale exponent")
    p.add_argument("--bins", type=int, default=101)
    p.add_argument("--wavelet", default=GreedConfig.wavelet, choices=WAVELETS)
    p.add_argument("--levels", type=int, default=GreedConfig.levels)
    _add_video_args(p)
    p.set_defaults(func=cmd_histdump)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout went away (`greed features ... | head`): exit
        # as SIGPIPE would (128 + 13), silently. stdout now points at
        # devnull, so the interpreter's last flush of it cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except FingerprintMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (VideoFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
