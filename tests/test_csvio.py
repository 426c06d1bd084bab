import csv
import io
from types import SimpleNamespace

import numpy as np

from hjhom.csvio import emit_csv, sweep_rows, sweep_snapshot_rows, trajectory_rows
from hjhom.grid import GridFunction
from hjhom.parabolic import Trajectory

# values whose text is easy to get wrong: signed zero, the least subnormal
# and the extremes near overflow (a grid function holds finite values only)
AWKWARD = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, -2.5, 7.0, 1.0 / 3.0])


def oracle_csv(header, rows, config_lines=()) -> bytes:
    """The CSV emit_csv promises, written row by row with csv.writer."""
    buf = io.StringIO()
    for line in config_lines:
        buf.write(line + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{float(v):.17e}" if isinstance(v, (float, np.floating))
                         else str(int(v)) if isinstance(v, (int, np.integer)) else str(v)
                         for v in row])
    return buf.getvalue().encode()


def emitted(tmp_path, header, rows, config_lines=()) -> bytes:
    path = tmp_path / "out.csv"
    emit_csv(str(path), header, rows, config_lines)
    return path.read_bytes()


def test_trajectory_rows_match_the_row_by_row_oracle(tmp_path):
    n = AWKWARD.size
    snapshots = [GridFunction(AWKWARD), GridFunction(-AWKWARD[::-1]),
                 GridFunction(np.linspace(-1.0, 1.0, n))]
    times = np.array([0.0, 1e-300, 0.5])
    traj = Trajectory(times=times, snapshots=snapshots, sup_norm_track=np.zeros(3),
                      dt=0.1, steps=2, path="explicit")
    rows = [(t, x, u) for t, snap in zip(times, snapshots)
            for x, u in zip(snap.nodes(), snap.values)]
    config = ["# grid.n = 8", "# grid.T = 0.5"]
    got = emitted(tmp_path, ["t", "x", "u"], trajectory_rows(traj), config)
    assert got == oracle_csv(["t", "x", "u"], rows, config)
    lines = got.split(b"\r\n")
    assert lines[-1] == b"" and len(lines) == 1 + 1 + 3 * n     # header, rows, end
    assert got.count(b"\n") == got.count(b"\r\n") + len(config)
    for text in (b"-0.00000000000000000e+00", b"4.94065645841246544e-324",
                 b"1.00000000000000001e+308", b"-1.00000000000000001e+308"):
        assert text in got


def test_sweep_rows_match_the_row_by_row_oracle(tmp_path):
    eps_list = [0.25, 0.125]
    report = SimpleNamespace(
        eps_list=eps_list, ns=np.array([64, 128]), dts=np.array([1e-3, 5e-4]),
        errors=np.array([5e-324, -0.0]), rates=np.array([1e308]),   # the last rate is NaN
        corrector_residuals=np.array([-1e308, 0.1]), runtimes=np.array([0.5, 1.5]),
        coarse_nodes=np.arange(AWKWARD.size) / AWKWARD.size,
        u_eps_final=[AWKWARD, np.where(AWKWARD > 1.0, np.nan, AWKWARD)],
        u_eff_final=-AWKWARD)
    header = ["eps", "n", "dt", "error", "rate", "corrector_residual", "seconds"]
    got = emitted(tmp_path, header, sweep_rows(report))
    assert got == oracle_csv(header, [
        (0.25, 64, 1e-3, 5e-324, 1e308, -1e308, 0.5),
        (0.125, 128, 5e-4, -0.0, float("nan"), 0.1, 1.5)])
    assert b",128," in got and b",nan," in got

    rows = [(eps, x, u) for eps, vals in zip(eps_list + [0.0],
                                             report.u_eps_final + [report.u_eff_final])
            for x, u in zip(report.coarse_nodes, vals)]
    got = emitted(tmp_path, ["eps", "x", "u"], sweep_snapshot_rows(report))
    assert got == oracle_csv(["eps", "x", "u"], rows)
    assert got.endswith(b"\r\n") and got.count(b"\r\n") == 1 + len(rows)
    assert b",nan\r\n" in got
