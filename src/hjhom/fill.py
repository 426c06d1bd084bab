"""The one effective table fill: Hbar over rectangular (x, p, l) axes, by
the kernel's order: the cell formula below order one, the closed form above
it, and at order one a Newton solve of each node's ergodic pair in turn."""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .cell import (CLOSED_FORM_NODES, CellConfig, CellParams, formula_below_one,
                   solve_ergodic_pair, unconverged)
from .effective import EffectiveTable, effective_source_from_formula
from .parabolic import NumericalFailure


class FillRecord(NamedTuple):
    """What a fill did to its table.  At order one, per node: its solve's Newton
    steps, a raised solve's too, and whether it began warm; None off order one."""

    table: EffectiveTable
    steps: Optional[np.ndarray]
    warm: Optional[np.ndarray]

    def line(self) -> str:
        """The fill's summary line, empty above order one."""
        t = self.table
        if self.steps is not None:
            return (f"fill: {self.steps.size} nodes, {self.steps.sum()} Newton steps, "
                    f"{self.warm.sum()} warm-started")
        worst = np.unravel_index(np.argmax(t.err), t.err.shape)
        return "" if t.sigma > 1.0 else (
            f"fill: cell formula on {CLOSED_FORM_NODES} nodes, largest gap to "
            f"{CLOSED_FORM_NODES // 2} nodes {t.err[worst]:.3g} at (x, p, l) = "
            f"({t.xs[worst[0]]:g}, {t.ps[worst[1]]:g}, {t.ls[worst[2]]:g})")


def fill_table(base: CellParams, xs, ps, ls, cfg: CellConfig, meta: Optional[dict] = None) -> tuple:
    """(table, FillRecord) of Hbar for the model of base (sigma, a, H, drift)
    on the axes xs, ps, ls; raises ValueError where a is not positive.  Off
    order one a formula fills the whole table.  At order one each node's
    ergodic pair is solved, in (x, p, l) order, under cfg from the previous
    node's corrector, or from zero where that has the smaller residual or the
    previous node failed; a NumericalFailure or a spent budget marks one node."""
    xs, ps, ls = (np.atleast_1d(np.asarray(axis, dtype=float)) for axis in (xs, ps, ls))
    shape, steps, warm, failures = (xs.size, ps.size, ls.size), None, None, []
    if base.sigma == 1.0:
        values = np.full(shape, np.nan)
        err, prov = np.full(shape, np.inf), np.full(shape, "failed", dtype=object)
        steps, warm = (np.zeros(shape, dtype=t) for t in (int, bool))
        last = None                                 # None after a failure
        for node in np.ndindex(shape):              # in x, p, l order
            x, p, l = (float(axis[i]) for axis, i in zip((xs, ps, ls), node))
            params, start, last = base._replace(x=x, p=p, l=l), last, None
            try:
                sol = solve_ergodic_pair(params, cfg, start=start)
            except NumericalFailure as exc:
                steps[node] = exc.steps
                failures.append(str(exc))
                continue
            steps[node], warm[node] = sol.stop.steps, sol.warm_start
            if not sol.stop.converged:
                failures.append(unconverged(params, sol.stop))
                continue
            values[node], err[node], prov[node] = sol.H_bar, sol.spread, "ergodic"
            last = sol.psi.values
    else:
        axes = xs[:, None, None], ps[None, :, None], ls[None, None, :]
        if base.sigma < 1.0:
            values = formula_below_one(base.a, base.ham, *axes)
            err = np.abs(values - formula_below_one(base.a, base.ham, *axes,
                                                    nodes=CLOSED_FORM_NODES // 2))
        else:
            values = effective_source_from_formula(base.a, base.ham).value(*axes)
            err = np.zeros_like(values)
        prov = np.full(values.shape, "formula", dtype=object)
    table = EffectiveTable(xs, ps, ls, values, err, prov, base.sigma, dict(meta or {}),
                           failures=tuple(failures))
    return table, FillRecord(table, steps, warm)
