"""Let `python -m thermobit` child processes import the in-tree package,
under the warning filter the tests run under.

`pythonpath = ["src"]` in pyproject.toml covers this process; a child
process reads only PYTHONPATH, so the same directory goes in front of it.
Likewise pyproject's `filterwarnings` turns a RuntimeWarning into an error
in this process only; PYTHONWARNINGS does it in a child, so a numpy
overflow or invalid-value warning there fails its test too.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _children_import_in_tree_thermobit():
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC + (os.pathsep + inherited if inherited else ""))
        patch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        yield
