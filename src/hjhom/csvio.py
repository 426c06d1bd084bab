"""CSV emission with the exact column schemas the commands promise.

Numbers are written in full-precision scientific notation; every file starts
with comment lines echoing the configuration that produced it.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, Sequence

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
    """Write the rows, streamed.  A str value is written as it is, so a row
    source may format a repeated value once; a str in place of a row is a
    run of formatted lines, each ending in csv's \r\n, also written as it
    is (see _long_rows)."""
    try:
        with open(path, "w", newline="") as fh:
            for line in config_lines:
                fh.write(line.rstrip("\n") + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                if type(row) is str:
                    fh.write(row)
                else:
                    writer.writerow([v if type(v) is str else _fmt(v) for v in row])
    except OSError as exc:
        raise IOError(f"cannot write {path!r}: {exc}") from exc


def _long_rows(blocks: Iterable[tuple], xs: np.ndarray) -> Iterator[str]:
    """Long-format rows (label, x, u), one per node of each (label, u) block,
    formatted as _fmt does and joined as csv.writer joins them (no value
    needs quoting): one str of lines per block, the x column formatted once
    and each label once per block."""
    x_col = [_fmt(x) for x in xs]
    for label, values in blocks:
        label = _fmt(label)
        yield "".join([f"{label},{x},{u:.17e}\r\n"
                       for x, u in zip(x_col, np.asarray(values, dtype=float).tolist())])


def trajectory_rows(traj) -> Iterator[str]:
    return _long_rows(zip(traj.times, (s.values for s in traj.snapshots)),
                      traj.snapshots[0].nodes())


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


def sweep_snapshot_rows(report) -> Iterator[str]:
    """Plot-ready long format: one row per (eps-label, x, u) at the final time,
    the effective solution labelled eps = 0."""
    return _long_rows([*zip(report.eps_list, report.u_eps_final),
                       (0.0, report.u_eff_final)], report.coarse_nodes)

