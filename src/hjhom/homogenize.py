"""Scale sweeps: oscillating solves against the homogenized limit.

A sweep runs the oscillating problem for eps = 1/k over a decreasing list,
solves the effective problem once on the finest grid, and compares at the
shared coarse nodes and at exactly shared snapshot times.  No rate is claimed
beyond what the runs show; the report carries observed errors, pairwise
log-ratios, and corrector-ansatz residuals in every regime.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .effective import ClosedForm, EffectiveSource
from .grid import GridFunction, central_diff, nearest_node
from .hamiltonians import HamiltonianSpec
from .kernels import KernelSpec, periodized_weights
from .operators import apply_table
from .parabolic import (NumericalFailure, ParabolicProblem, SolverConfig,
                        oscillating_scheme, solve)


class ProblemFamily(NamedTuple):
    """One oscillating model, its effective counterpart, and cells(x, p, l):
    hjhom.fill.solve_cells of the model at the nodes of the arrays."""

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ham: HamiltonianSpec
    kernel: KernelSpec
    u0_func: Callable[[np.ndarray], np.ndarray]
    T: float
    effective: Union[EffectiveSource, ClosedForm]
    cells: Callable[..., tuple]


class SweepConfig(NamedTuple):
    n_per_k: int = 16
    n_fixed: Optional[int] = None     # control runs: same grid for every eps
    snapshots: int = 10


class SweepReport(NamedTuple):
    eps_list: np.ndarray
    errors: np.ndarray                # sup over recorded times and coarse nodes
    rates: np.ndarray                 # log2(e_i / e_{i+1}) along the list
    corrector_residuals: np.ndarray
    runtimes: np.ndarray
    ns: np.ndarray
    dts: np.ndarray                   # smallest full step of each run (NaN if it failed)
    max_dts: np.ndarray               # largest full step of each run (NaN if it failed)
    steps: np.ndarray                 # time steps of each oscillating run (0 if it failed)
    paths: tuple                      # "implicit"/"explicit" per run ("" if it failed)
    coarse_nodes: np.ndarray
    u_eps_final: list                 # coarse restrictions of each final state
    u_eff_final: np.ndarray
    failures: tuple = ()              # (eps, message) for runs that blew up
    cell_failures: tuple = ()         # why each failed coarse corrector failed


def _restrict(values: np.ndarray, n_coarse: int) -> np.ndarray:
    stride = values.size // n_coarse
    if stride * n_coarse != values.size:
        raise ValueError("fine grid is not a multiple of the comparison grid")
    return values[::stride]


def run_sweep(family: ProblemFamily, eps_list, cfg: Optional[SweepConfig] = None) -> SweepReport:
    """Run the eps sweep and assemble the comparison report.  family.cells,
    called once at the coarse nodes if some run finished, gives the corrector
    rows every eps's ansatz residual reads: NaN if a node's row failed."""
    cfg = cfg or SweepConfig()
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    ns = (np.full(eps.size, cfg.n_fixed, dtype=int) if cfg.n_fixed is not None
          else cfg.n_per_k * np.round(1.0 / eps).astype(int))
    n_coarse = int(np.min(ns))
    scfg = SolverConfig(snapshots=cfg.snapshots)
    # one kernel table per grid size: the n_fixed control runs share one
    tables = {n: periodized_weights(family.kernel, n) for n in dict.fromkeys(ns.tolist())}

    # each run's coarse snapshots after t = 0 (None if it failed) and its stats
    runs, stats, failures = [], [], []
    for e, n in zip(eps, ns.tolist()):
        u0 = GridFunction.from_callable(family.u0_func, n)
        t0 = time.perf_counter()
        try:
            scheme = oscillating_scheme(float(e), family.a, family.ham, tables[n])
            traj = solve(ParabolicProblem(scheme, u0, family.T), scfg)
        except NumericalFailure as exc:
            failures.append((float(e), str(exc)))
            traj = None
        stats.append((time.perf_counter() - t0, *((np.nan, np.nan, 0, "") if traj is None else
                                                  (traj.dt, traj.max_dt, traj.steps, traj.path))))
        runs.append(None if traj is None else
                    np.array([_restrict(s.values, n_coarse) for s in traj.snapshots[1:]]))
    del traj                  # only the coarse snapshots of each run are kept

    # eps falls along the list, so the last run's grid, and its u0, is the finest
    table_fine = tables[n]
    eff_traj = solve(ParabolicProblem(family.effective.scheme(u0.nodes(), table_fine), u0,
                                      family.T), scfg)

    eff_coarse = np.array([_restrict(s.values, n_coarse) for s in eff_traj.snapshots[1:]])
    errors = np.array([np.nan if run is None else float(np.max(np.abs(run - eff_coarse)))
                       for run in runs])
    finals = [np.full(n_coarse, np.nan) if run is None else run[-1] for run in runs]

    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.array([
            float(np.log(errors[i] / errors[i + 1]) / np.log(eps[i] / eps[i + 1]))
            for i in range(eps.size - 1)])

    # frozen parameters of the corrector: effective gradient and nonlocal value
    u_eff_fine = eff_traj.final()
    p_eff = _restrict(central_diff(u_eff_fine.values, u_eff_fine.h), n_coarse)
    l_eff = _restrict(apply_table(u_eff_fine.values, table_fine), n_coarse)
    u_eff_final = _restrict(u_eff_fine.values, n_coarse)
    coarse_nodes = np.arange(n_coarse) / n_coarse

    residuals, cell_failures = np.full(eps.size, np.nan), ()
    finite = [i for i, final in enumerate(finals) if np.all(np.isfinite(final))]
    if finite:
        *_, reasons, profiles = family.cells(coarse_nodes, p_eff, l_eff)
        cell_failures = tuple(reason for reason in reasons if reason)
        for i in finite:
            residuals[i] = corrector_reconstruction(
                GridFunction(finals[i]), GridFunction(u_eff_final), profiles,
                float(eps[i]), family.kernel.sigma)

    runtimes, dts, max_dts, steps, paths = zip(*stats)
    return SweepReport(eps_list=eps, errors=errors, rates=rates, corrector_residuals=residuals,
                       runtimes=np.array(runtimes), ns=np.asarray(ns), dts=np.array(dts),
                       max_dts=np.array(max_dts), steps=np.array(steps), paths=paths,
                       coarse_nodes=coarse_nodes, u_eps_final=finals, u_eff_final=u_eff_final,
                       failures=tuple(failures), cell_failures=cell_failures)


def corrector_reconstruction(u_eps: GridFunction, u_bar: GridFunction,
                             profiles: np.ndarray, eps: float, sigma: float) -> float:
    """sup |r| of the residual r of the two-scale ansatz at the final time.

    r(x) = u_eps(x) - u_bar(x) - eps^(1 v sigma) psi(x / eps), with psi frozen
    at (x, p(x), l(x)): row i of `profiles` on its cell nodes, read at the
    node nearest y = x_i / eps mod 1.  Correctors are determined up to an
    additive constant; the zero-mean representative is used here, since any
    constant part of the profile belongs to the homogenized solution, not to
    the oscillation.  The corrector should explain part of the gap: sup |r|
    below sup |u_eps - u_bar| on the built-in models for small eps.
    """
    if u_eps.n != u_bar.n:
        raise ValueError("ansatz comparison needs matching grids")
    y = (u_eps.nodes() / eps) % 1.0
    corr = profiles[np.arange(u_eps.n), nearest_node(y, profiles.shape[1])]
    residual = u_eps.values - u_bar.values - eps ** max(1.0, sigma) * corr
    return float(np.max(np.abs(residual)))
