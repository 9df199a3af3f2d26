import os
import sys
from pathlib import Path

import pytest

import eclab


@pytest.fixture
def deterministic_env():
    """Environment for a ``python -m eclab`` child in deterministic mode.

    The child imports the same ``eclab`` this test process imported: the
    directory holding that package goes first on ``PYTHONPATH``, ahead of any
    ``PYTHONPATH`` the parent has. Nothing else is passed through, so the
    child's BLAS/OpenMP thread pinning comes from ``ECLAB_DETERMINISTIC``
    alone.
    """
    package_root = str(Path(eclab.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH")]
    return {
        "ECLAB_DETERMINISTIC": "1",
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)),
    }


@pytest.fixture
def fake_child(tmp_path):
    """Make a sweep ``child_prefix``: a script that runs ``before`` (Python
    source, with ``out`` and ``seed`` read from its ``eclab run`` command
    line) and then execs the real ``python -m eclab`` with its arguments."""

    def make(before):
        script = tmp_path / "fake_child.py"
        script.write_text(
            "import json, os, signal, sys, time\n"
            "out = sys.argv[sys.argv.index('--out') + 1]\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            f"{before}\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'eclab', *sys.argv[1:]])\n"
        )
        return (sys.executable, str(script))

    return make
