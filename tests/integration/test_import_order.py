"""Every subpackage imports cleanly as the *first* ``repro`` import.

Import cycles only bite the process that enters them from the wrong
side (``import repro.shm`` before ``repro.asr`` used to die with a
partially-initialized-module ``ImportError``), and the test suite's
own conftest imports ``repro.asr`` first — so each subpackage gets a
fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if module.name != "__main__"
)


def test_subpackage_list_is_populated():
    assert {"repro.asr", "repro.core", "repro.serve", "repro.shm"} <= set(
        SUBPACKAGES
    )


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports_first_in_fresh_interpreter(name):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
