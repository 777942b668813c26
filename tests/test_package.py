"""Package-level guards: what importing csmg pulls in."""
import os
import subprocess
import sys
from pathlib import Path

import csmg

_PROBE = """
import sys
tried = set()

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("numba", "scipy"):
            tried.add(name)
        return None

sys.meta_path.insert(0, Watch())
import csmg, csmg.cli
print(sorted(tried))
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numba", "scipy")))
"""


def test_import_stays_numpy_only():
    # pyproject.toml declares numpy as the only dependency: importing the
    # package must not load, or even look for, numba or scipy
    src = str(Path(csmg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "[]"]
