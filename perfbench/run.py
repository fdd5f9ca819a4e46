"""stgreed benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload ladder_540p --seed 1 --seconds 40 --trace 0

Inputs are generated from --seed before anything is timed. Each pass over
the workload's operations runs in a fresh interpreter (one_pass.py), so its
peak RSS is its own; passes repeat until the next one would end after
--seconds, and there are at least two. With --trace 0 the last stdout line
reports the end-to-end metrics (medians over passes); with --trace 1
untraced and traced passes alternate and it reports the per-layer metrics
of the traced ones. See README.md for the workloads and metrics.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("pair_1080p_hfr", "ladder_540p", "protocol_480")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
SETUP_REPEATS = 5
SETUP_CODE = ("import stgreed; c = stgreed.GreedConfig(); "
              "stgreed.build_packet_filters(c.wavelet, c.levels); "
              "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))")
PASS_TIMEOUT_S = 150
# A protocol_480 pass takes most of a run's --seconds, and one pass is too
# short a sample of a shared host's speed, which can drift by a third over
# tens of seconds; a traced run needs an untraced and a traced pass.
MIN_PASSES = 2
SRC = os.path.join("src", "stgreed", "__init__.py")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    # One BLAS thread per Python thread: the only BLAS calls are the SVR's
    # small kernel products, and an idle OpenBLAS worker spins on the
    # second core, so with the default pool a protocol pass used 1.3 cores
    # and ladder_540p's two feature threads would share two cores with it.
    env.update({k: "1" for k in THREAD_ENV})
    return env


def jobs_for(workload):
    # ladder_540p exercises the thread pool, with no more threads than cores.
    return 1 if workload == "pair_1080p_hfr" else min(2, len(os.sched_getaffinity(0)))


def make_inputs(workload, seed, work):
    """Generate the workload's inputs into work/ and return the pass spec."""
    spec = {"workload": workload}
    if workload == "protocol_480":
        sys.path.insert(0, os.path.abspath("src"))
        import numpy as np
        from stgreed import features
        cfg = features.GreedConfig()
        spec.update(gen.make_protocol_inputs(
            seed, work, features.append_cache_record,
            lambda v: features.GreedFeatures(np.asarray(v), cfg)))
    else:
        videos = gen.make_videos(workload, seed, work)
        spec.update(ref=videos["ref"], dists=videos["dists"], jobs=jobs_for(workload))
        if workload == "ladder_540p":
            spec["cache_out"] = os.path.join(work, "features.jsonl")
    path = os.path.join(work, "spec.json")
    with open(path, "w") as f:
        json.dump(spec, f)
    return spec, path


def pass_ops(spec):
    """Names of the operations a pass runs: one per distorted version, or
    the protocol trial."""
    if spec["workload"] == "protocol_480":
        return ["protocol"]
    return [f"{fps}fps" for fps, _ in spec["dists"]]


def measure_setup():
    """Median seconds for a fresh interpreter to import stgreed and build the bank."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_REPEATS + 1):
        # The child reads the same clock when it is ready: waiting for it with
        # a timeout polls at up to 50 ms, which would round the time up.
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=child_env(), check=True, timeout=60,
                              stdout=subprocess.PIPE, text=True)
        if i:  # the first start fills the bytecode cache
            times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_pass(spec, spec_path, work, spans_path=None):
    """Run one pass in a fresh interpreter; None if it crashed or timed out."""
    out = os.path.join(work, "pass.json")
    for stale in (out, spec.get("cache_out")):
        if stale and os.path.exists(stale):
            os.remove(stale)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), spec_path, out]
    if spans_path:
        cmd += ["--trace", spans_path]
    try:
        proc = subprocess.run(cmd, env=child_env(), timeout=PASS_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(out):
        print(f"pass exited with {proc.returncode}\n{proc.stdout}", file=sys.stderr)
        return None
    with open(out) as f:
        return json.load(f)


def machine_record():
    """Cores, RAM, CPU, caches, library versions and thread environment."""
    rec = {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        rec[pkg] = importlib.metadata.version(pkg)
    try:
        with open("/proc/meminfo") as f:
            rec["ram_kib"] = int(next(l for l in f if l.startswith("MemTotal")).split()[1])
        with open("/proc/cpuinfo") as f:
            rec["cpu"] = next(l for l in f if l.startswith("model name")).split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            with open(os.path.join(cache_dir, index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            rec[f"l{level}"] = size
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    rec["thread_env"] = {k: os.environ.get(k) for k in THREAD_ENV}
    rec["pass_thread_env"] = {k: child_env()[k] for k in THREAD_ENV}
    return rec


def _median(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(SRC):
        print(f"perfbench: {SRC} not found; run from the root of an stgreed checkout",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_record()))
    out_dir = os.path.abspath(".perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work, out_dir):
    spec, spec_path = make_inputs(args.workload, args.seed, work)
    want = checks.load_expected().get(args.workload, {}).get(str(args.seed))
    setup_s = None if args.trace else measure_setup()

    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    passes = []  # (traced, wall seconds of the whole child, result)
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        result = run_pass(spec, spec_path, work, spans_path if traced else None)
        passes.append((traced, time.perf_counter() - t0, result))
        a, f, messages = checks.check_pass(args.workload, pass_ops(spec), result, want,
                                           spec.get("cache_out"))
        attempted += a
        failed += f
        for m in messages:
            print(f"check: {m}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        next_pass = statistics.median(p[1] for p in passes)
        if elapsed + next_pass > args.seconds and len(passes) >= MIN_PASSES:
            break

    plain = [r for t, _, r in passes if not t and r]
    traced = [r for t, _, r in passes if t and r]
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes in {time.perf_counter() - start:.1f} s; {failed} of {attempted} operations failed")
    print("pass wall_s: " + " ".join(f"{'T' if t else ''}{r['wall_s']:.3f}" for t, _, r in passes if r))
    metrics = {}
    if not plain or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
    elif args.trace:
        layers = [r["layers"] for r in traced]
        for name, unit in tracer.UNITS.items():
            if name != "trace.overhead_s":
                metrics[name] = {"value": statistics.median(l[name] for l in layers), "unit": unit}
        overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {"setup_s": setup_s, "wall_s": _median(plain, "wall_s"),
                   "peak_rss_mb": _median(plain, "peak_rss_mb")}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        report_throughput(args.workload, spec, plain, failed, attempted)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_throughput(workload, spec, plain, failed, attempted):
    """Print the workload's throughput and failed share; BENCHMARK.json does not list them."""
    wall = _median(plain, "wall_s")
    if workload == "protocol_480":
        print(f"  {'trials_per_min':42s} {60.0 / wall:.6g} 1/min")
    else:
        w, h, n_ref = gen.WORKLOADS[workload][:3]
        mpix = len(spec["dists"]) * w * h * n_ref / 1e6
        print(f"  {'ref_mpix_per_s':42s} {mpix / wall:.6g} Mpix/s")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio")


if __name__ == "__main__":
    sys.exit(main())
