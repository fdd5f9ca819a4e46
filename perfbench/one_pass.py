"""One pass over a workload's operations, in a fresh interpreter.

Usage: python3 perfbench/one_pass.py SPEC.json OUT.json [--trace SPANS.json]

SPEC names the workload and its generated inputs (see run.py). OUT
receives the pass's wall time, peak RSS, each operation's output or error,
and, when traced, the per-layer metrics; SPANS receives the raw spans. The
library is called through module attributes so that the tracer's wrappers
are seen.
"""

import json
import resource
import sys
import time
import traceback

from stgreed import evaluate, features, video

from tracer import Tracer, layer_metrics


def _op(ops, name, fn):
    """Run one operation; an exception marks it failed and the pass goes on."""
    try:
        out = fn()
    except Exception:
        ops.append({"name": name, "ok": False, "error": traceback.format_exc(limit=3)})
        return None
    ops.append({"name": name, "ok": True})
    return out


def score_pairs(spec, ops):
    """Decode the reference once, then score and cache each distorted version."""
    cfg = features.GreedConfig()
    ref = video.load_y4m(spec["ref"])
    for fps, path in spec["dists"]:
        def one(path=path):
            feats = features.compute_features(ref, video.load_y4m(path), cfg, jobs=spec["jobs"])
            if spec.get("cache_out"):
                features.append_cache_record(spec["cache_out"], spec["ref"], path, "c00", feats)
            return feats
        feats = _op(ops, f"{fps}fps", one)
        if feats is not None:
            ops[-1]["features"] = [float(v) for v in feats.values]


def protocol(spec, ops):
    """One protocol trial at run_protocol's default seed, so every pass of
    every run scores the same split (see gen.make_protocol_inputs)."""
    rows = evaluate.read_manifest(spec["manifest"])
    cached = features.read_cache(spec["cache"], features.GreedConfig().fingerprint())
    report = _op(ops, "protocol", lambda: evaluate.run_protocol(rows, cached, trials=1))
    if report is not None:
        ops[-1]["per_trial"] = report.per_trial


def main(argv):
    spec_path, out_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(spec_path) as f:
        spec = json.load(f)
    body = protocol if spec["workload"] == "protocol_480" else score_pairs

    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    ops = []
    t0 = time.perf_counter()
    try:
        body(spec, ops)
    except Exception:
        ops.append({"name": "pass", "ok": False, "error": traceback.format_exc(limit=3)})
    t1 = time.perf_counter()
    if tracer:
        tracer.uninstall()

    result = {
        "wall_s": t1 - t0,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, t0, t1)
        with open(spans_path, "w") as f:
            json.dump([s._asdict() for s in tracer.spans], f)
    with open(out_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
