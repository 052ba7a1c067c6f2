"""The product imports nothing outside the standard library.

``pyproject.toml`` declares no runtime dependencies.  This guard keeps
that true: in a fresh interpreter it imports the package and every CLI
entry point, and fails on any newly loaded top-level module that is
neither stdlib nor ``repro``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
before = set(sys.modules)
import repro, repro.soak, repro.scenarios, repro.obs.report, repro.obs.live
main = sys.modules["__main__"]
# multiprocessing aliases __main__ as __mp_main__; that is no new module.
new = {name.partition(".")[0] for name in set(sys.modules) - before
       if sys.modules[name] is not main}
print(" ".join(sorted(name for name in new
                      if name != "repro"
                      and name not in sys.stdlib_module_names)))
"""


def test_product_imports_only_stdlib():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
