"""Record the outputs that checks.py compares against, for a range of seeds.

    python3 perfbench/record_expected.py 1 20 [WORKLOAD ...]

Runs one untraced pass per workload (default: all) and seed (FIRST..LAST)
and updates those entries of perfbench/expected.json. Record only from a
commit whose outputs are known good: later commits are checked against
these values.
"""

import json
import os
import shutil
import sys

import checks
import run


def record(workload, seed):
    work = os.path.abspath(os.path.join(".perfbench", f"record-{workload}-{seed}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec, spec_path = run.make_inputs(workload, seed, work)
        names = run.pass_ops(spec)
        result = run.run_pass(spec, spec_path, work)
        attempted, failed, messages = checks.check_pass(workload, names, result, None,
                                                        spec.get("cache_out"))
        if failed:
            raise SystemExit(f"{workload} seed {seed}: {failed} of {attempted} failed\n"
                             + "\n".join(messages))
        ops = {op["name"]: op for op in result["ops"]}
        if workload == "protocol_480":
            trial = {k: v[0] for k, v in ops["protocol"]["per_trial"].items()}
            candidates = near_ties(spec)
            if not checks.trial_ok(trial, candidates[:1]):
                raise SystemExit(f"protocol_480 seed {seed}: the pass scored {trial}, but "
                                 f"repeating its grid search gives {candidates[0]}")
            return {"protocol": candidates}
        return {name: ops[name]["features"] for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def near_ties(spec):
    """Test metrics of each grid point whose validation SROCC is within
    PROTOCOL_TOL["srocc"] of the best, in the order grid_search ranks them.

    This repeats one_pass.py's protocol trial. A solver that
    reaches the same optima by another path moves validation SROCC by about
    as much as test SROCC, so it may pick any of these near-tied points
    instead of the first; checks.py accepts each of them.
    """
    import numpy as np
    from stgreed import evaluate, features, svr

    rows = evaluate.read_manifest(spec["manifest"])
    cached = features.read_cache(spec["cache"], features.GreedConfig().fingerprint())
    contents = sorted({r.content_id for r in rows})
    # run_protocol's trial 0 at its default seed 0.
    split = evaluate.split_contents(contents, np.random.default_rng([0, 0]))
    (X_tr, y_tr), (X_val, y_val), (X_te, y_te) = (
        (np.array([cached[(r.ref, r.dist)]["values"] for r in rows if r.content_id in part]),
         np.array([r.dmos for r in rows if r.content_id in part])) for part in split)

    scored = []
    for C, eps, gamma in svr.DEFAULT_GRID:
        model = svr.train_svr(X_tr, y_tr, (C, eps, gamma))
        score = evaluate.srocc(svr.predict(model, X_val), y_val)
        scored.append(((-np.inf if score is None else score, -C, eps), model))
    scored.sort(key=lambda s: s[0], reverse=True)
    best = scored[0][0][0]
    out = []
    for (score, _, _), model in scored:
        if score < best - checks.PROTOCOL_TOL["srocc"]:
            break
        pred = svr.predict(model, X_te)
        fit = evaluate.plcc_rmse(pred, y_te)
        out.append({"srocc": evaluate.srocc(pred, y_te), "plcc": fit.plcc, "rmse": fit.rmse})
    return out


def main(argv):
    if not os.path.isfile(run.SRC):
        print(f"record_expected: {run.SRC} not found; run from the repository root",
              file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    expected = checks.load_expected()
    for workload in argv[2:] or run.WORKLOADS:
        expected.setdefault(workload, {})
        for seed in range(first, last + 1):
            expected[workload][str(seed)] = record(workload, seed)
            print(workload, seed, "recorded", flush=True)
    with open(checks.EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
