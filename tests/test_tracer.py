"""The benchmark's traced child (perfbench/child.py --trace) runs against
the package as it stands: a removed member or a changed signature that one
of its observers reads makes the child raise, and the run read as incorrect.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("command, lines", [
    ("effective", ["kernel.sigma = 1", "kernel.family = tilt", "cell.n = 32",
                   "cell.deltas = 0.1,0.05", "cell.table_p = 0,1", "cell.table_l = -1,0"]),
    ("homogenize", ["kernel.sigma = 1.5", "cell.n = 32", "sweep.eps_list = 1/2,1/4",
                    "sweep.T = 0.02", "sweep.snapshots = 2"]),
    ("solve", ["kernel.sigma = 1.5", "grid.n = 64", "grid.eps = 1/4", "grid.T = 0.02",
               "grid.snapshots = 2"]),
])
def test_traced_child_observes_the_run(tmp_path, command, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report_path), "--trace",
         command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["exit"] == 0
    if command == "effective":
        # the fill's Newton steps as the command counts them.  The child's
        # cell.march_steps watches hjhom.cli.vanishing_discount_sweep, and its
        # effective.tabulate layer hjhom.cli.tabulate, neither of which the
        # package has any longer (the table fill is hjhom.fill's), so both
        # read 0 until the benchmark's SITES name the ergodic solve and the fill
        assert re.search(r"fill: 4 nodes, [1-9]\d* Newton steps", proc.stdout)
        assert "hjhom.cli.tabulate" in report["missing"]
        assert "hjhom.cli.vanishing_discount_sweep" in report["missing"]
    elif command == "solve":
        assert report["layers"]["parabolic.solve"]["calls"] == 1
    else:
        assert report["layers"]["parabolic.solve"]["calls"] > 0
