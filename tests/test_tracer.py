"""The benchmark's layer tracer still finds every entry point it wraps."""

import os
import pathlib
import subprocess
import sys

import polyterm

ROOT = pathlib.Path(__file__).resolve().parent.parent

_INSTALL_SCRIPT = """
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(tracer.missing)
"""


def test_tracer_finds_every_target():
    # a fresh process: the tracer rebinds names in every loaded polyterm module
    src = os.path.dirname(os.path.dirname(polyterm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "bench"), src, env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", _INSTALL_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout.strip() == "[]"
