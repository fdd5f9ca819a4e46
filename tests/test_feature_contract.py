"""Features pinned to a recorded table, so a change that moves the pipeline and
its test oracles alike still fails here unless FEATURE_VERSION moves too."""

import json

import numpy as np
import pytest

from record_feature_contract import CASES, TABLE, case_features

_RECORDED = json.loads(TABLE.read_text())
_RERECORD = ("A change that moves the features must bump features.FEATURE_VERSION. Once "
             "it has, re-record the table from the repository root:\n"
             "    PYTHONPATH=src python tests/record_feature_contract.py")


def test_the_table_records_every_case():
    assert sorted(_RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_features_match_the_recorded_table(name):
    fingerprint, values = case_features(name)
    record = _RECORDED.get(name, {})
    if record.get("fingerprint") != fingerprint:
        pytest.fail(f"{TABLE.name} holds no record of case {name} under config "
                    f"fingerprint {fingerprint}.\n{_RERECORD}")
    want = np.array([float.fromhex(h) for h in record["features"]])
    # Relative, not bit for bit: another machine's libm or BLAS may differ by ULPs.
    np.testing.assert_allclose(values, want, rtol=1e-9, atol=0)
