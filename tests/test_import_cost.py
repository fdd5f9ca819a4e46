import subprocess
import sys
from pathlib import Path

import stgreed


def _scipy_loaded_by_import():
    src = str(Path(stgreed.__file__).parents[1])
    code = ("import sys, stgreed, stgreed.cli; "
            "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_does_not_load_scipy_stats():
    # Importing scipy.stats would add about 1.5 s to `import stgreed` (after
    # numpy, 2-core x86 guest); the rank correlations are hand-written to
    # keep it out.
    assert "scipy.stats" not in _scipy_loaded_by_import()


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 0.65 s (same guest); plcc_rmse, its last
    # user, now fits with its own port of scipy's Nelder-Mead.
    assert "scipy.optimize" not in _scipy_loaded_by_import()


def test_import_loads_no_scipy():
    # `import stgreed` loads numpy only. scipy.ndimage, which the filters
    # once used, takes about 0.4 s to import (same guest).
    assert _scipy_loaded_by_import() == set()
