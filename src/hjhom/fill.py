"""The one place the kernel's order picks the cell problem, for every table
(fill_table), effective source (effective_source: ClosedForm or a table) and
cell with its corrector (solve_cells): the cell formula below order one, the
closed form above it, and at order one a warm-chained Newton solve per node."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .cell import (CLOSED_FORM_NODES, CellConfig, CellParams, corrector_below_one,
                   formula_below_one, solve_ergodic_pair, unconverged)
from .effective import ClosedForm, EffectiveTable, effective_source_from_table
from .parabolic import NumericalFailure


class FillRecord(NamedTuple):
    """What a fill did: at order one each node's Newton steps (a raised solve's
    too) and whether it began warm, None off order one."""

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


def effective_source(base: CellParams, table_of: Callable[[], EffectiveTable]):
    """Above order one the closed form, without a table_of() call, else the table if none failed."""
    return (ClosedForm(base.a, base.ham) if base.sigma > 1.0
            else effective_source_from_table(table_of()))


def _formula(base: CellParams, x, p, l) -> tuple:
    """(Hbar, err) off order one, broadcast: the cell formula and its gap to
    the formula on half its nodes below order one, the closed form and 0 above."""
    if base.sigma > 1.0:
        values = ClosedForm(base.a, base.ham).value(x, p, l)
        return values, np.zeros_like(values)
    values = formula_below_one(base.a, base.ham, x, p, l)
    return values, np.abs(values - formula_below_one(base.a, base.ham, x, p, l,
                                                     nodes=CLOSED_FORM_NODES // 2))


def _ergodic_chain(base: CellParams, cfg: CellConfig, *nodes, psi=None) -> tuple:
    """(Hbar, err, reasons, steps, warm) per node of the 1-D arrays x, p, l at
    order one, each solved node's mean-free corrector written to its row of
    psi if given: each ergodic pair solved in turn under cfg from the last
    node's corrector, or from zero where that has the smaller residual or the
    last node failed.  A NumericalFailure or a spent budget fails a node: NaN
    Hbar, err inf and a reason, '' elsewhere."""
    k = nodes[0].size
    values, err = np.full(k, np.nan), np.full(k, np.inf)
    steps, warm, reasons = np.zeros(k, dtype=int), np.zeros(k, dtype=bool), [""] * k
    last = None                                     # None after a failure
    for i, (xi, pi, li) in enumerate(zip(*(v.tolist() for v in nodes))):
        params, start, last = base._replace(x=xi, p=pi, l=li), last, None
        try:
            sol = solve_ergodic_pair(params, cfg, start=start)
        except NumericalFailure as exc:
            steps[i], reasons[i] = exc.steps, str(exc)
            continue
        steps[i], warm[i] = sol.stop.steps, sol.warm_start
        if not sol.stop.converged:
            reasons[i] = unconverged(params, sol.stop)
            continue
        values[i], err[i], last = sol.H_bar, sol.spread, sol.psi.values
        if psi is not None:
            psi[i] = last - np.mean(last)
    return values, err, reasons, steps, warm


def solve_cells(base: CellParams, cfg: CellConfig, x, p, l) -> tuple:
    """(Hbar, err, reasons, psi) of base's model at the nodes of the 1-D arrays
    or scalars x, p, l: per node fill_table's Hbar and err, why it failed (''
    unless at order one) and its mean-free corrector on cfg.n cell nodes, a
    row of psi, from corrector_below_one, _ergodic_chain or the closed form."""
    x, p, l = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, p, l))
    if base.sigma == 1.0:
        psi = np.full((x.size, cfg.n), np.nan)
        return (*_ergodic_chain(base, cfg, x, p, l, psi=psi)[:3], psi)
    if base.sigma > 1.0:
        psi = ClosedForm(base.a, base.ham).corrector(base.sigma, cfg.n, x, p, l)
    else:
        psi = np.array([corrector_below_one(base._replace(x=xi, p=pi, l=li), cfg.n)[:-1]
                        for xi, pi, li in zip(x.tolist(), p.tolist(), l.tolist())])
        psi -= np.mean(psi, axis=1, keepdims=True)
    return (*_formula(base, x, p, l), [""] * x.size, psi)


def fill_table(base: CellParams, xs, ps, ls, cfg: CellConfig, meta: Optional[dict] = None) -> tuple:
    """(table, FillRecord) of Hbar for the model of base (sigma, a, H, drift)
    on the axes xs, ps, ls; raises ValueError where a is not positive.  Off
    order one _formula fills the whole table, at it _ergodic_chain solves the
    nodes in (x, p, l) order, a failed node 'failed' with its reason."""
    axes = [np.atleast_1d(np.asarray(axis, dtype=float)) for axis in (xs, ps, ls)]
    if base.sigma != 1.0:
        values, err = _formula(base, *np.ix_(*axes))
        prov, reasons, steps, warm = np.full(values.shape, "formula", object), (), None, None
    else:
        grid = np.meshgrid(*axes, indexing="ij")
        *out, reasons, steps, warm = _ergodic_chain(base, cfg, *(g.ravel() for g in grid))
        values, err, steps, warm = (v.reshape(grid[0].shape) for v in (*out, steps, warm))
        prov = np.where(np.isnan(values), "failed", "ergodic").astype(object)
    table = EffectiveTable(*axes, values, err, prov, base.sigma, dict(meta or {}),
                           failures=tuple(r for r in reasons if r))
    return table, FillRecord(table, steps, warm)
