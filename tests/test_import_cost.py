import subprocess
import sys
from pathlib import Path

import stgreed


def test_import_does_not_load_scipy_stats():
    # Importing scipy.stats would add about 0.4 s to `import stgreed` (2-core
    # x86 guest); the rank correlations are hand-written to keep it out.
    src = str(Path(stgreed.__file__).parents[1])
    code = "import sys, stgreed, stgreed.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
