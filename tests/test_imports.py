"""The import contract.

Each entry point loads only what it runs: a package resolves the names
it exports on first use (``repro.lazy_exports``), so importing the
server does not import the simulators, the compressed formats, shared
memory or the client, and importing the client does not import the
decoder.  Every package still exports its whole ``__all__``.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = [
    "repro.accel",
    "repro.am",
    "repro.asr",
    "repro.compress",
    "repro.core",
    "repro.experiments",
    "repro.lm",
    "repro.serve",
    "repro.shm",
    "repro.wfst",
]


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` importable."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "statement,absent",
    [
        (
            "from repro.serve import TranscriptionServer",
            [
                "repro.accel",
                "repro.compress",
                "repro.shm",
                "repro.serve.client",
                "repro.serve.shard",
                "multiprocessing",
            ],
        ),
        ("from repro.serve import TcpClient", ["repro.core.decoder"]),
        (
            "from repro.core import OnTheFlyDecoder",
            [
                "repro.asr",
                "repro.serve",
                "repro.am.scorer",
                "repro.core.offline_decoder",
            ],
        ),
    ],
)
def test_entry_point_loads_only_what_it_runs(statement, absent):
    loaded = set(
        run_fresh(f"{statement}\nimport sys\nprint(*sys.modules)").split()
    )
    assert not loaded & set(absent)


def test_a_name_shared_with_a_submodule_is_the_export():
    """``repro.wfst.compose`` is a function and a submodule: importing
    the submodule first must not make the package export the module."""
    run_fresh(
        "import sys\n"
        "import repro.wfst.compose\n"
        "from repro.wfst import compose\n"
        "assert compose is sys.modules['repro.wfst.compose'].compose\n"
    )


@pytest.mark.parametrize("name", PACKAGES)
class TestExports:
    def test_every_export_is_its_submodule_object(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            value = getattr(package, export)
            assert export in listed
            assert not isinstance(value, types.ModuleType), export
            owners = [
                module
                for key, module in list(sys.modules.items())
                if key.startswith(name + ".")
                and any(v is value for v in vars(module).values())
            ]
            assert owners, f"{name}.{export} is no submodule's object"

    def test_every_listed_name_resolves(self, name):
        package = importlib.import_module(name)
        for listed in dir(package):
            getattr(package, listed)

    def test_star_import_binds_all(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert set(package.__all__) <= namespace.keys()

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})
