"""The package's entry points import without numpy.

The simulator is pure Python: importing the CLI, the experiment
runner or a pool worker must not pull numpy in, since every process
start (each pool worker included) pays for what those imports load.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.cli
import repro.experiments.runner
import repro.parallel.worker
loaded = sorted(
    name for name in sys.modules
    if name == "numpy" or name.startswith("numpy.")
)
print(",".join(loaded))
"""


def test_entry_points_do_not_import_numpy():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == ""
