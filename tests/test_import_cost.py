import subprocess
import sys
from pathlib import Path

import stgreed


def _loaded_by_import(module):
    src = str(Path(stgreed.__file__).parents[1])
    code = f"import sys, stgreed, stgreed.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_import_does_not_load_scipy_stats():
    # Importing scipy.stats would add about 0.4 s to `import stgreed` (2-core
    # x86 guest); the rank correlations are hand-written to keep it out.
    assert not _loaded_by_import("scipy.stats")


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 0.25 s (same guest); only plcc_rmse uses it,
    # and it imports it when called.
    assert not _loaded_by_import("scipy.optimize")
