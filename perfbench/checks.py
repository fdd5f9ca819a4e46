"""Output checks: each operation of a pass is counted as attempted, and as
failed when it raised or its output fails a check.

For a seed recorded in expected.json the outputs must match the recorded
ones: features to 1e-9 relative, and the protocol trial's test SROCC, PLCC
and RMSE each within PROTOCOL_TOL of one recorded candidate. The first
candidate is the trial as recorded; the others are the grid points whose
validation SROCC is within PROTOCOL_TOL["srocc"] of the chosen one's
(record_expected.near_ties), which another solver may pick instead. For any
other seed, features must be finite and non-negative (they are means of
absolute differences) and the trial must clear PROTOCOL_FLOOR.

PROTOCOL_TOL admits a solver that reaches the same optimum by another path
and catches a partly broken regressor. The SMO stops at a KKT gap of 1e-3;
stopping at 1e-2 or 1e-4 instead kept the grid point of the trial at each
of run_protocol's seeds 1-10 (ten splits) and moved its SROCC by at most
0.0006, PLCC by 0.00002 and RMSE by 0.0005. Each tolerance is about four
times that shift. Grid points can be nearer than that on validation SROCC
(the runner-up trailed by 0.0001 on one split) while their test metrics
differ by up to 0.01 SROCC and 0.3 RMSE, hence the near-tied candidates.
Broken regressors move the trials of seeds 1-2 much further: a grid
search that returns the first grid point by 0.03-0.05 SROCC and 0.4-0.8
RMSE, a kernel that ignores gamma by 0.31-0.32 SROCC, and training on
unstandardized features by 0.0054 SROCC (seed 1) and 0.0009 PLCC and
0.021 RMSE (seed 2). The trials at run_protocol seeds 1-20 score SROCC
0.83-0.93, PLCC 0.86-0.93 and RMSE 4.3-6.2; PROTOCOL_FLOOR, with no record
to compare against, catches only a regressor as broken as the one that
ignores gamma.
"""

import json
import math
import os

FEATURE_RTOL = 1e-9
# Largest accepted |got - recorded| per test metric; RMSE is in DMOS points.
PROTOCOL_TOL = {"srocc": 0.002, "plcc": 0.0001, "rmse": 0.002}
# For a seed without a record: lowest SROCC and PLCC, highest RMSE.
PROTOCOL_FLOOR = {"srocc": 0.75, "plcc": 0.75, "rmse": 8.0}

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(path=EXPECTED_PATH):
    with open(path) as f:
        return json.load(f)


def features_ok(got, want=None):
    """Check one feature vector against the recorded one, or for sanity."""
    if not isinstance(got, list) or not got:
        return False
    if want is None:
        return all(math.isfinite(v) and v >= 0.0 for v in got)
    return len(got) == len(want) and all(
        abs(g - w) <= FEATURE_RTOL * max(abs(g), abs(w)) for g, w in zip(got, want))


def trial_ok(got, want=None):
    """Check a protocol trial's test metrics against the floor or, given the
    recorded candidates, against any one of them."""
    values = {m: (got or {}).get(m) for m in PROTOCOL_TOL}
    if any(v is None or not math.isfinite(v) for v in values.values()):
        return False
    if want is not None:
        return any(all(abs(values[m] - c[m]) <= tol for m, tol in PROTOCOL_TOL.items())
                   for c in want)
    return (values["srocc"] >= PROTOCOL_FLOOR["srocc"]
            and values["plcc"] >= PROTOCOL_FLOOR["plcc"]
            and values["rmse"] <= PROTOCOL_FLOOR["rmse"])


def check_pass(workload, expected_ops, result, want=None, cache_path=None):
    """Return (attempted, failed, messages) for one pass.

    expected_ops lists the operation names the pass should have run (one
    per distorted version, or its protocol trial); an operation that is
    missing from the result counts as failed. want maps operation name to
    the recorded output, or is None for a seed without records.
    """
    failed, messages = 0, []
    ops = {op["name"]: op for op in (result or {}).get("ops", [])}
    for op in (result or {}).get("ops", []):
        if not op["ok"]:
            messages.append(f"{op['name']}: raised\n{op['error']}")

    if workload == "protocol_480":
        for name in expected_ops:
            op = ops.get(name)
            got = {k: v[0] for k, v in op["per_trial"].items()} if op and op["ok"] else None
            if not trial_ok(got, want[name] if want else None):
                failed += 1
                messages.append(f"{name}: test metrics {got} fail their check")
        return len(expected_ops), failed, messages

    cached = _read_records(cache_path) if cache_path else None
    for i, name in enumerate(expected_ops):
        op = ops.get(name)
        got = op.get("features") if op and op["ok"] else None
        ok = got is not None and features_ok(got, want[name] if want else None)
        if ok and cached is not None:
            ok = i < len(cached) and cached[i] == got
            if not ok:
                messages.append(f"{name}: cache record does not hold the computed features")
        if not ok:
            failed += 1
            if got is not None:
                messages.append(f"{name}: features {got} fail their check")
    return len(expected_ops), failed, messages


def _read_records(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line)["values"] for line in f if line.strip()]
