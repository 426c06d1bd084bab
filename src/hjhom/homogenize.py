"""Scale sweeps: oscillating solves against the homogenized limit.

A sweep runs the oscillating problem for eps = 1/k over a decreasing list,
solves the effective problem once on the finest grid, and compares at the
shared coarse nodes and at exactly shared snapshot times.  No rate is claimed
beyond what the runs show; the report carries observed errors, pairwise
log-ratios, a least-squares rate fit, and corrector-ansatz residuals.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .effective import ClosedForm, EffectiveSource
from .grid import GridFunction, central_diff
from .hamiltonians import HamiltonianSpec
from .kernels import KernelSpec, periodized_weights
from .operators import apply_table
from .parabolic import (NumericalFailure, ParabolicProblem, SolverConfig,
                        initial_layer_modulus, solve)


@dataclass
class ProblemFamily:
    """One oscillating model and its effective counterpart."""

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ham: HamiltonianSpec
    kernel: KernelSpec
    u0_func: Callable[[np.ndarray], np.ndarray]
    T: float
    effective: Union[EffectiveSource, ClosedForm]


@dataclass
class SweepConfig:
    n_per_k: int = 16
    n_fixed: Optional[int] = None     # control runs: same grid for every eps
    snapshots: int = 10


@dataclass
class SweepReport:
    eps_list: np.ndarray
    errors: np.ndarray                # sup over recorded times and coarse nodes
    rates: np.ndarray                 # log2(e_i / e_{i+1}) along the list
    corrector_residuals: np.ndarray
    runtimes: np.ndarray
    ns: np.ndarray
    dts: np.ndarray
    steps: np.ndarray                 # time steps of each oscillating run (0 if it failed)
    paths: tuple                      # "implicit"/"explicit" per run ("" if it failed)
    coarse_nodes: np.ndarray
    times: np.ndarray
    u_eps_final: list                 # coarse restrictions of each final state
    u_eff_final: np.ndarray
    p_eff: np.ndarray                 # effective gradient at final time (coarse)
    l_eff: np.ndarray                 # effective nonlocal value at final time
    initial_layers: list              # per-eps (t, sup gap) tables
    sigma: float
    failures: tuple = ()              # (eps, message) for runs that blew up


def _restrict(values: np.ndarray, n_coarse: int) -> np.ndarray:
    stride = values.size // n_coarse
    if stride * n_coarse != values.size:
        raise ValueError("fine grid is not a multiple of the comparison grid")
    return values[::stride]


def run_sweep(family: ProblemFamily, eps_list, cfg: Optional[SweepConfig] = None,
              psi_provider: Optional[Callable] = None) -> SweepReport:
    """Run the eps sweep and assemble the comparison report.

    psi_provider(x, p, l) -> GridFunction supplies the corrector profile for
    the ansatz residual; when omitted the residual column is NaN.  Every eps
    asks for the same coarse-node profiles, so each is solved once.
    """
    cfg = cfg or SweepConfig()
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    ks = np.round(1.0 / eps).astype(int)
    if np.any(np.abs(1.0 / eps - ks) > 1e-12):
        raise ValueError("every eps must be the reciprocal of an integer")
    sigma = family.kernel.sigma

    ns = (np.full(eps.size, cfg.n_fixed, dtype=int) if cfg.n_fixed is not None
          else cfg.n_per_k * ks)
    n_coarse = int(np.min(ns))
    scfg = SolverConfig(snapshots=cfg.snapshots)
    record = scfg.resolved_record_times(family.T)
    # one kernel table per grid size: the n_fixed control runs share one
    tables = {n: periodized_weights(family.kernel, n) for n in dict.fromkeys(ns.tolist())}

    trajectories = []
    runtimes = []
    dts = []
    failures = []
    for e, n in zip(eps, ns.tolist()):
        u0 = GridFunction.from_callable(family.u0_func, n)
        prob = ParabolicProblem(kind="oscillating", u0=u0, T=family.T, table=tables[n],
                                eps=float(e), a=family.a, ham=family.ham)
        t0 = time.perf_counter()
        try:
            trajectories.append(solve(prob, scfg))
        except NumericalFailure as exc:
            failures.append((float(e), str(exc)))
            trajectories.append(None)
        runtimes.append(time.perf_counter() - t0)
        dts.append(trajectories[-1].dt if trajectories[-1] is not None else np.nan)

    # eps falls along the list, so the last run's grid, and its u0, is the finest
    table_fine = tables[n]
    eff_prob = ParabolicProblem(kind="effective", u0=u0, T=family.T,
                                table=table_fine, source=family.effective)
    eff_traj = solve(eff_prob, scfg)

    eff_coarse = [_restrict(s.values, n_coarse) for s in eff_traj.snapshots[1:]]
    errors = []
    finals = []
    layers = []
    for traj, n in zip(trajectories, ns):
        if traj is None:
            errors.append(np.nan)
            finals.append(np.full(n_coarse, np.nan))
            layers.append([])
            continue
        gaps = []
        for snap, ref in zip(traj.snapshots[1:], eff_coarse):
            gaps.append(float(np.max(np.abs(_restrict(snap.values, n_coarse) - ref))))
        errors.append(max(gaps))
        finals.append(_restrict(traj.final().values, n_coarse))
        layers.append(initial_layer_modulus(traj, traj.snapshots[0]))
    errors = np.array(errors)

    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.array([
            float(np.log(errors[i] / errors[i + 1]) / np.log(eps[i] / eps[i + 1]))
            for i in range(eps.size - 1)])

    # frozen parameters of the corrector: effective gradient and nonlocal value
    u_eff_fine = eff_traj.final()
    p_fine = central_diff(u_eff_fine.values, u_eff_fine.h)
    l_fine = apply_table(u_eff_fine.values, table_fine)
    p_eff = _restrict(p_fine, n_coarse)
    l_eff = _restrict(l_fine, n_coarse)
    u_eff_final = _restrict(u_eff_fine.values, n_coarse)
    coarse_nodes = np.arange(n_coarse) / n_coarse

    residuals = np.full(eps.size, np.nan)
    if psi_provider is not None:
        psi_provider = functools.cache(psi_provider)
        for i, e in enumerate(eps):
            if not np.all(np.isfinite(finals[i])):
                continue
            rep = corrector_reconstruction(
                GridFunction(finals[i]), GridFunction(u_eff_final),
                p_eff, l_eff, psi_provider, float(e), sigma)
            residuals[i] = rep.sup_residual

    return SweepReport(eps_list=eps, errors=errors, rates=rates,
                       corrector_residuals=residuals, runtimes=np.array(runtimes),
                       ns=np.asarray(ns), dts=np.array(dts),
                       steps=np.array([0 if tr is None else tr.steps for tr in trajectories]),
                       paths=tuple("" if tr is None else tr.path for tr in trajectories),
                       coarse_nodes=coarse_nodes, times=record,
                       u_eps_final=finals, u_eff_final=u_eff_final,
                       p_eff=p_eff, l_eff=l_eff, initial_layers=layers,
                       sigma=sigma, failures=tuple(failures))


@dataclass(frozen=True)
class CorrectorReport:
    sup_residual: float
    sup_gap: float
    exponent: float
    residual: np.ndarray
    gap: np.ndarray


def corrector_reconstruction(u_eps: GridFunction, u_bar: GridFunction,
                             p_vals: np.ndarray, l_vals: np.ndarray,
                             psi_provider: Callable, eps: float,
                             sigma: float) -> CorrectorReport:
    """Residual of the two-scale ansatz at the final time.

    r(x) = u_eps(x) - u_bar(x) - eps^(1 v sigma) psi(x / eps), with psi frozen
    at (x, p(x), l(x)).  Correctors are determined up to an additive constant;
    the zero-mean representative is used here, since any constant part of the
    profile belongs to the homogenized solution, not to the oscillation.  The
    corrector should explain part of the gap: sup |r| below
    sup |u_eps - u_bar| on the built-in models for small eps.
    """
    if u_eps.n != u_bar.n:
        raise ValueError("ansatz comparison needs matching grids")
    exponent = max(1.0, sigma)
    n = u_eps.n
    xs = u_eps.nodes()
    corr = np.empty(n)
    for i in range(n):
        psi_i = psi_provider(float(xs[i]), float(p_vals[i]), float(l_vals[i]))
        y = (xs[i] / eps) % 1.0
        corr[i] = float(psi_i.value_near(np.array([y]))[0]) - psi_i.mean()
    gap = u_eps.values - u_bar.values
    residual = gap - eps ** exponent * corr
    return CorrectorReport(sup_residual=float(np.max(np.abs(residual))),
                           sup_gap=float(np.max(np.abs(gap))),
                           exponent=exponent, residual=residual, gap=gap)


def convergence_rates(report: SweepReport) -> tuple:
    """Least-squares slope of log error against log eps, with fit residual."""
    e = report.errors
    if e.size < 3:
        raise ValueError("need at least 3 sweep points for a rate fit")
    x = np.log(report.eps_list)
    y = np.log(np.maximum(e, 1e-300))
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    return float(coeffs[0]), float(np.sqrt(np.mean((y - fit) ** 2)))
