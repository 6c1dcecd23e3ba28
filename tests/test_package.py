import os
import pkgutil
import subprocess
import sys

import pytest

import altismooth


def test_every_export_resolves():
    missing = [name for name in altismooth.__all__ if not hasattr(altismooth, name)]
    assert missing == []
    assert len(set(altismooth.__all__)) == len(altismooth.__all__)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(altismooth.__path__)])
def test_each_module_imports_first(module):
    # a fresh interpreter imports the package's __init__ and then this module, with
    # nothing loaded before: a module-level import cycle on that path fails here
    src = os.path.dirname(altismooth.__path__[0])
    done = subprocess.run([sys.executable, "-c", f"import altismooth.{module}"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
