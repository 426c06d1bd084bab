"""CSV emission with the exact column schemas the commands promise.

Numbers are written in full-precision scientific notation; every file starts
with comment lines echoing the configuration that produced it.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .parabolic import initial_layer_modulus


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17e}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def emit_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
             config_lines: Sequence[str] = ()) -> None:
    try:
        with open(path, "w", newline="") as fh:
            for line in config_lines:
                fh.write(line.rstrip("\n") + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise IOError(f"cannot write {path!r}: {exc}") from exc


def trajectory_rows(traj) -> list:
    rows = []
    for t, snap in zip(traj.times, traj.snapshots):
        for x, u in zip(snap.nodes(), snap.values):
            rows.append((t, x, u))
    return rows


def trajectory_summary_rows(traj, u0) -> list:
    layer = initial_layer_modulus(traj, u0)
    return [(t, sup, gap) for (t, gap), sup in zip(layer, traj.sup_norm_track)]


def sweep_rows(report) -> list:
    rows = []
    for i, eps in enumerate(report.eps_list):
        rate = report.rates[i] if i < report.rates.size else float("nan")
        rows.append((eps, int(report.ns[i]), report.dts[i], report.errors[i],
                     rate, report.corrector_residuals[i], report.runtimes[i]))
    return rows


def sweep_snapshot_rows(report) -> list:
    """Plot-ready long format: one row per (eps-label, x, u) at the final time."""
    rows = []
    for eps, vals in zip(report.eps_list, report.u_eps_final):
        for x, u in zip(report.coarse_nodes, vals):
            rows.append((eps, x, u))
    for x, u in zip(report.coarse_nodes, report.u_eff_final):
        rows.append((0.0, x, u))
    return rows


def cell_report_rows(params, sol) -> list:
    return [(params.x, params.p, params.l, params.sigma, sol.H_bar, sol.spread,
             sol.regularity.osc, sol.regularity.lip, sol.regularity.flap_sup)]
