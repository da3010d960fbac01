"""scipy is optional: importing the package must not load it.

Only the exact LP solvers (:func:`repro.core.solve_ce_lp`,
:func:`repro.mdp.solve_occupation_lp`) need scipy, and they import it
when called.  Checked in a fresh interpreter, since this test process
may already hold scipy from other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

MODULES = ("repro", "repro.workloads", "repro.eval", "repro.cli", "repro.mdp")


def test_import_repro_does_not_load_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        f"import sys\nimport {', '.join(MODULES)}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
