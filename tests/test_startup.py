"""Start-up import guard.

scipy.integrate and scipy.optimize together are most of the package's
import time, so they are imported only by the code that calls them.  Each
case runs a fresh interpreter: the test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import defectbethe

SRC = str(Path(defectbethe.__file__).resolve().parent.parent)
DEFERRED = ("scipy.integrate", "scipy.optimize")

# After each step, prints the deferred modules that are loaded.
SCRIPT = """
import contextlib, io, sys
from defectbethe.cli import build_parser, main
build_parser()
print(*[m for m in {deferred!r} if m in sys.modules], sep=",")
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(*[m for m in {deferred!r} if m in sys.modules], sep=",")
"""


def loaded_after(*commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = SCRIPT.format(deferred=DEFERRED,
                         commands=[c.split() for c in commands])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [set(filter(None, line.split(","))) for line in out.splitlines()]


def test_product_and_chain_commands_skip_integrate_and_optimize():
    steps = loaded_after("chain diagonalize --N 3", "verify ybe",
                         "amp kink --method product --lambda 0.3")
    assert steps == [set()] * 4


def test_integral_route_loads_integrate():
    _, after = loaded_after("amp kink --method integral --lambda 0.3")
    assert "scipy.integrate" in after


def test_defect_spectrum_loads_optimize():
    _, after = loaded_after("verify defect-spectrum --model xxx --spin 0.5")
    assert "scipy.optimize" in after
