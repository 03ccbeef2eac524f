"""The package import sets the BLAS default and loads nothing else; the CLI's loads no numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydberg_frames

PROBE = (
    "import os, sys\n"
    "import rydberg_frames\n"
    "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_import_sets_blas_default_before_numpy(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(rydberg_frames.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    # the modules are the API: a bare package import loads none of them, so
    # the default is set before numpy loads, whatever imports numpy next
    assert proc.stdout.split() == ["False", expected]


def test_cli_import_loads_no_numpy():
    # the argument parser, the tolerances and the usage errors need no array:
    # each command imports its numeric modules when it runs
    env = dict(os.environ)
    src = str(Path(rydberg_frames.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys\nimport rydberg_frames.cli\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout.split() == ["False"]
