"""numpy is the only runtime dependency: importing the package loads no networkx.

``repro.sched.tournament`` is what the benchmark worker imports next to
``repro``; a fresh interpreter is used so that the test suite's own imports
(networkx is the topology and MaxCut oracle) cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path


def test_import_repro_leaves_networkx_unloaded():
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = (
        "import sys, repro, repro.sched.tournament; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
