"""Package-level guards: what importing csmg pulls in."""
import ast
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


_COLD_PROBE = """
import sys
import csmg, csmg.cli
print("concurrent.futures" in sys.modules)
from csmg.pauli import StabilizerFrame
from csmg.stream import ExperimentConfig, simulate

def refuse(self):
    raise AssertionError("the table path constructed a StabilizerFrame")

StabilizerFrame.__init__ = refuse
record = simulate(ExperimentConfig(n_photons=10 ** 4, p_d=0.5), method="table")
print(len(record.events))
"""


def _probe(code):
    """Stdout lines of ``code`` run in a fresh interpreter on this csmg."""
    src = str(Path(csmg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_import_stays_numpy_only():
    # pyproject.toml declares numpy as the only dependency: importing the
    # package must not load, or even look for, numba or scipy
    assert _probe(_PROBE) == ["[]", "[]"]


def test_cold_path_builds_no_thread_pool_and_no_frame():
    # a fresh process pays for what the import and the first simulate
    # load: the thread pool is only for multi-range scans, and the chain
    # tables ship as a constant that only the tests rebuild through the frame
    assert _probe(_COLD_PROBE) == ["False", "10000"]


def test_public_names_are_listed_once_and_exist():
    # a name dropped from the imports but not from __all__ would fail
    # only at a user's ``from csmg import *``
    assert len(csmg.__all__) == len(set(csmg.__all__))
    assert [name for name in csmg.__all__ if not hasattr(csmg, name)] == []


def _unused_imports(path):
    """Names that ``path``'s import statements bind and its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_import_only_what_they_use():
    # an import left behind by a deletion reads as a dependency that is
    # not there; __init__.py imports to re-export, so it is not checked
    package = Path(csmg.__file__).resolve().parent
    unused = {path.name: _unused_imports(path)
              for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
