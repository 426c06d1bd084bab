"""The effective table fill: Hbar over rectangular (x, p, l) axes, by the
kernel's order: the cell formula below order one, the closed form above it,
and at order one a Newton solve of each node's ergodic pair."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

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


def tabulate(fill: Callable, xs, ps, ls, sigma: float, meta=None) -> EffectiveTable:
    """Fill the table node by node; a failing node is marked, not fatal."""
    xs, ps, ls = (np.atleast_1d(np.asarray(axis, dtype=float)) for axis in (xs, ps, ls))
    values = np.full((xs.size, ps.size, ls.size), np.nan)
    err, prov = np.full_like(values, np.inf), np.full(values.shape, "failed", dtype=object)
    failures = []
    for node in np.ndindex(values.shape):       # in x, p, l order
        try:
            values[node], err[node], prov[node] = fill(
                *(float(axis[i]) for axis, i in zip((xs, ps, ls), node)))
        except (NumericalFailure, ValueError) as exc:
            failures.append(str(exc))
    return EffectiveTable(xs, ps, ls, values, err, prov, sigma, dict(meta or {}),
                          failures=tuple(failures))


def fill_table(base: CellParams, xs, ps, ls, cfg: CellConfig, meta: Optional[dict] = None) -> tuple:
    """(table, FillRecord) of Hbar for the model of base (sigma, a, H, drift)
    on the axes xs, ps, ls.  Off order one a formula fills the whole table, or
    raises ValueError where a is not positive.  At order one each node's ergodic
    pair is solved under cfg from the previous node's corrector, or from zero
    where that has the smaller residual or the previous node failed."""
    xs, ps, ls = (np.atleast_1d(np.asarray(axis, dtype=float)) for axis in (xs, ps, ls))
    if base.sigma == 1.0:
        steps, warm = (np.zeros((xs.size, ps.size, ls.size), dtype=t) for t in (int, bool))
        nodes, last = np.ndindex(steps.shape), None     # last: None after a failure

        def fill(x, p, l):
            nonlocal last
            node, params = next(nodes), base._replace(x=x, p=p, l=l)
            start, last = last, None
            try:
                sol = solve_ergodic_pair(params, cfg, start=start)
            except NumericalFailure as exc:
                steps[node] = exc.steps
                raise
            steps[node], warm[node] = sol.stop.steps, sol.warm_start
            if not sol.stop.converged:
                raise NumericalFailure(unconverged(params, sol.stop))
            last = sol.psi.values
            return sol.H_bar, sol.spread, "ergodic"

        table = tabulate(fill, xs, ps, ls, base.sigma, meta)
        return table, FillRecord(table, steps, warm)
    axes = xs[:, None, None], ps[None, :, None], ls[None, None, :]
    if base.sigma < 1.0:
        values = formula_below_one(base.a, base.ham, *axes)
        err = np.abs(values - formula_below_one(base.a, base.ham, *axes,
                                                nodes=CLOSED_FORM_NODES // 2))
    else:
        values = effective_source_from_formula(base.a, base.ham).value(*axes)
        err = np.zeros_like(values)
    table = EffectiveTable(xs, ps, ls, values, err, np.full(values.shape, "formula", dtype=object),
                           base.sigma, dict(meta or {}))
    return table, FillRecord(table, None, None)
