import subprocess
import sys
from pathlib import Path

import stgreed


def _loaded_by_import(package):
    """The modules of package that `import stgreed, stgreed.cli` loads."""
    src = str(Path(stgreed.__file__).parents[1])
    code = ("import sys, stgreed, stgreed.cli; "
            f"print('\\n'.join(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_does_not_load_scipy_stats():
    # Importing scipy.stats would add about 1.5 s to `import stgreed` (after
    # numpy, 2-core x86 guest); the rank correlations are hand-written to
    # keep it out.
    assert "scipy.stats" not in _loaded_by_import("scipy")


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 0.65 s (same guest); plcc_rmse, its last
    # user, now fits with its own port of scipy's Nelder-Mead.
    assert "scipy.optimize" not in _loaded_by_import("scipy")


def test_import_loads_no_scipy():
    # `import stgreed` loads numpy only. scipy.ndimage, which the filters
    # once used, takes about 0.4 s to import (same guest).
    assert _loaded_by_import("scipy") == set()


def test_import_loads_no_process_pool():
    # grid_search imports multiprocessing only when it starts workers. After
    # numpy, multiprocessing adds about 6 ms to `import stgreed` and
    # concurrent.futures.process about 15 ms (same guest).
    assert _loaded_by_import("multiprocessing") == set()
    assert "concurrent.futures.process" not in _loaded_by_import("concurrent")
