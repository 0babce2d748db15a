"""numpy is the only runtime dependency: no CLI command and no library call loads scipy.

The Gauss-Hermite rule behind ``tables`` and ``project_to_hermite`` is
numpy's eigh, so those load no scipy either.  Each case runs in a fresh
interpreter, since a module once imported stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# runs each argv through cli.main in turn, then the library code in argv[2], and
# prints the exit codes and the scipy modules loaded
PROBE = """
import json, sys
import numpy as np
import twcalc
from twcalc.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
exec(sys.argv[2])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


TABLES = ["growth_fit.csv", "growth_sequence.csv", "hermite_orthonormality.csv",
          "oscillator_eigen_residuals.csv", "twisted_product_gaps.csv"]


def run_fresh(tmp_path, commands, code=""):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands), code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("commands", [
    [],
    [["--help"]],
    [["gen", "--n-max", "8", "--out", "C.json", "--vectors-out", "V.json"],
     ["compose", "--in", "C.json", "--in", "C.json", "--out", "CC.json"],
     ["verify", "--in", "C.json", "--out", "r_in.json"],
     ["verify", "--in", "CC.json", "--out", "r_cc.json"],
     ["verify", "--n-max", "16", "--out", "r.json"]],
    [["gen", "--d", "2", "--n-max", "4", "--out", "C2.json"],
     ["verify", "--in", "C2.json", "--out", "r2_in.json"],
     ["verify", "--d", "2", "--n-max", "8", "--out", "r2.json"]],
    [["tables", "--n-max", "8", "--N-max", "12", "--grid-n", "65", "--out-dir", "t"]],
], ids=["import", "help", "d1", "d2", "tables"])
def test_cli_path_loads_no_scipy(tmp_path, commands):
    got = run_fresh(tmp_path, commands)
    assert got["scipy"] == []
    assert len(got["codes"]) == len(commands)
    for argv, code in zip(commands, got["codes"]):
        assert code in ((0, 1) if argv[0] == "verify" else (0,)), argv
        if argv[0] == "tables":
            assert sorted(os.listdir(tmp_path / argv[-1])) == TABLES


def test_projection_loads_no_scipy(tmp_path):
    # the projection's Gauss-Hermite rule recovers the coefficients it synthesized
    code = """
f = twcalc.HermiteCoeffVector(2, 6, np.arange(49.0).reshape(7, 7) / 49)
back = twcalc.project_to_hermite(twcalc.synthesize_hermite(f, 8.0, 65), 6)
assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-8, np.max(np.abs(back.coeffs - f.coeffs))
"""
    assert run_fresh(tmp_path, [], code)["scipy"] == []
