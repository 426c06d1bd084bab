"""Stationary problems on the unit cell and the ergodic constant.

Each regime of the kernel order gets its own frozen-coefficient stationary
operator F:

  * order < 1: first-order only, F(v) = -a l + H(y, p + Dv);
  * order = 1: fractional Laplacian of order 1, an upwinded drift from the
    kernel asymmetry, and the gradient coupling;
  * order > 1: the linear problem -a l + a (fractional Laplacian) v + H(y, p).

The discounted equation delta v + F(v) = 0 is solved by Newton's method on
the monotone scheme itself (semismooth at the Godunov flux's switches): F is
convex and monotone, so delta I plus its Jacobian is an M-matrix, every
iterate after the first is a supersolution, and the iterates decrease
monotonically to the solution.  Because F is invariant under adding
constants, a Newton step does not depend on the iterate's constant part, and
that additive mode, the only delta-slow direction, is pinned to mean zero:
each step solves the Jacobian against the mean-free residual
r = delta phi + F(phi) - mean(.), and the constant is recovered exactly from
delta * M = -mean(F(phi)) afterwards.  The cost is therefore independent of
how small the discount is.

Each discount stops for one of three reasons, recorded with its residual and
its Newton steps:

  * tol: max |r| < tol;
  * stagnated: max |r| sits at the rounding floor of its own evaluation,
    ROUNDOFF_MULTIPLE * eps * (|J|_inf |phi|_inf + |delta phi + F(phi)|_inf),
    above tol.  The iterate is then the discrete solution to working
    precision and counts as converged; no further step can lower r;
  * budget: max_steps Newton steps were taken without either; not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import GridFunction, forward_diff
from .hamiltonians import HamiltonianSpec
from .kernels import constant_kernel, periodized_weights
from .operators import spectral_flap
from .parabolic import MonotoneScheme, NumericalFailure, coefficient_scheme


def regime_of(sigma: float) -> str:
    if sigma < 1.0:
        return "below_one"
    if sigma == 1.0:
        return "equal_one"
    return "above_one"


@dataclass(frozen=True)
class CellParams:
    """Frozen slow variable, gradient, and nonlocal value for one cell solve."""

    x: float
    p: float
    l: float
    sigma: float
    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ham: HamiltonianSpec
    drift_b: float = 0.0

    @property
    def regime(self) -> str:
        return regime_of(self.sigma)


@dataclass
class CellConfig:
    n: int = 256
    tol: float = 1e-9
    max_steps: int = 500          # Newton steps per discount


@dataclass(frozen=True)
class RegularityReport:
    osc: float
    lip: float
    holder: tuple          # ((gamma, quotient), ...)
    flap_sup: float


@dataclass
class CellSolution:
    psi: GridFunction              # corrector, normalized psi(0) = 0
    H_bar: float
    delta_trace: tuple             # ((delta, min -d psi^d, max -d psi^d), ...)
    spread: float
    regularity: RegularityReport
    residuals: tuple               # (DiscountSolve, ...) per discount
    converged: bool
    psi_delta_sup: float           # sup |psi^delta| at the smallest discount
    delta_min: float


def _holder_quotients(psi: np.ndarray, gammas=(0.25, 0.5, 0.75, 0.9)) -> tuple:
    n = psi.size
    shifts = [2 ** j for j in range(0, int(math.log2(n)))]
    out = []
    for g in gammas:
        q = 0.0
        for s in shifts:
            d = min(s / n, 1.0 - s / n)
            if d <= 0.0:
                continue
            q = max(q, float(np.max(np.abs(np.roll(psi, -s) - psi))) / d ** g)
        out.append((g, q))
    return tuple(out)


def _cell_scheme(params: CellParams, cfg: CellConfig) -> MonotoneScheme:
    """The frozen-coefficient stationary operator of the parameters' regime.

    Newton reads no theta on the Godunov flux; without a power form the
    Lax-Friedrichs theta is sampled over |q| <= |p| + 5, a fixed slack."""
    n = cfg.n
    ys = np.arange(n) / n
    xs = np.full(n, params.x)
    a_vals = np.asarray(params.a(xs, ys), dtype=float)
    if np.min(a_vals) <= 0.0:
        raise ValueError("coefficient a must be positive on the cell")
    ham, p, regime = params.ham, params.p, params.regime
    table = None
    if regime in ("equal_one", "above_one"):
        table = periodized_weights(constant_kernel(params.sigma), n)
    const = -a_vals * params.l
    if regime == "above_one":
        hp = np.asarray(ham.eval(xs, ys, np.full(n, p)), dtype=float)
        return MonotoneScheme(1.0 / n, None, table=table, a=a_vals, const=const + hp)
    return coefficient_scheme(1.0 / n, xs, ys, a_vals, ham, abs(p) + 4.0 + 1.0,
                              p=p, table=table, const=const,
                              drift=params.drift_b if regime == "equal_one" else 0.0)


# multiple of eps * (|J| |phi| + |delta phi + F(phi)|) below which the
# mean-free residual is rounding noise of its own evaluation
ROUNDOFF_MULTIPLE = 64.0


class DiscountSolve(tuple):
    """(delta, residual, steps) of one discount, unpacking as that triple,
    plus `reason`: why Newton stopped (tol, stagnated or budget)."""

    def __new__(cls, delta: float, residual: float, steps: int, reason: str):
        rec = super().__new__(cls, (delta, residual, steps))
        rec.reason = reason
        return rec

    @property
    def converged(self) -> bool:
        return self.reason != "budget"


def _newton(scheme: MonotoneScheme, phi: np.ndarray, delta: float,
            cfg: CellConfig, source=0.0) -> tuple:
    """Mean-pinned Newton for delta phi + F(phi) = source + const, with a
    mean-free source; (phi, DiscountSolve)."""
    eps = np.finfo(float).eps
    phi = phi - np.mean(phi)
    steps = 0
    while True:
        full = delta * phi + scheme.residual(phi) - source
        r = full - np.mean(full)
        nr = float(np.max(np.abs(r)))
        if not math.isfinite(nr):
            raise NumericalFailure(f"cell Newton produced a non-finite residual at "
                                   f"delta = {delta:g}, step {steps}")
        if nr < cfg.tol:
            return phi, DiscountSolve(delta, nr, steps, "tol")
        jac = scheme.jacobian(phi, delta)
        floor = ROUNDOFF_MULTIPLE * eps * (float(np.max(np.sum(np.abs(jac), axis=1)))
                                        * float(np.max(np.abs(phi)))
                                        + float(np.max(np.abs(full))))
        if nr <= floor:
            return phi, DiscountSolve(delta, nr, steps, "stagnated")
        if steps >= cfg.max_steps:
            return phi, DiscountSolve(delta, nr, steps, "budget")
        phi = phi - np.linalg.solve(jac, r)
        phi -= np.mean(phi)
        steps += 1


def vanishing_discount_sweep(params: CellParams, deltas, cfg: Optional[CellConfig] = None
                             ) -> CellSolution:
    """Solve the discounted stationary problem along a decreasing discount list.

    Each discount starts Newton from the previous discount's solution.  The
    ergodic constant estimate is the midpoint of [min, max] of the scaled
    discounted solution at the smallest discount; the max - min spread is the
    reported error bar (the convergence to the constant is uniform).
    """
    cfg = cfg or CellConfig()
    deltas = sorted(set(float(d) for d in deltas), reverse=True)
    if not deltas or deltas[-1] <= 0.0:
        raise ValueError("discounts must be positive")
    scheme = _cell_scheme(params, cfg)
    phi = np.zeros(cfg.n)
    trace = []
    residuals = []
    minus_dpsi = None
    psi_delta_sup = 0.0
    for d in deltas:
        phi, rec = _newton(scheme, phi, d, cfg)
        mean_F = float(np.mean(scheme.residual(phi)))
        minus_dpsi = -d * phi + mean_F
        psi_delta_sup = float(np.max(np.abs(phi - mean_F / d)))
        trace.append((d, float(np.min(minus_dpsi)), float(np.max(minus_dpsi))))
        residuals.append(rec)
    lo, hi = trace[-1][1], trace[-1][2]
    psi_vals = phi - phi[0]
    psi = GridFunction(psi_vals)
    reg = RegularityReport(
        osc=float(np.max(psi_vals) - np.min(psi_vals)),
        lip=float(np.max(np.abs(forward_diff(psi_vals, scheme.h)))),
        holder=_holder_quotients(psi_vals),
        flap_sup=float(np.max(np.abs(spectral_flap(psi, 1.0).values))),
    )
    return CellSolution(psi=psi, H_bar=0.5 * (lo + hi), delta_trace=tuple(trace),
                        spread=hi - lo, regularity=reg, residuals=tuple(residuals),
                        converged=all(rec.converged for rec in residuals),
                        psi_delta_sup=psi_delta_sup,
                        delta_min=deltas[-1])


# backward Euler steps of one long-time march, whatever its horizon
LONG_TIME_STEPS = 640


def long_time_average(params: CellParams, T_max: float,
                      cfg: Optional[CellConfig] = None) -> tuple:
    """Ergodic constant from the undiscounted flow: -v(T)/T from v(0) = 0.

    The flow v_t + F(v) = 0 takes LONG_TIME_STEPS backward Euler steps
    v_{k+1} + dt F(v_{k+1}) = v_k, each solved by the mean-pinned Newton of
    the discount sweep with delta = 1/dt and source delta (v_k - mean v_k);
    the mean then follows exactly from mean v_{k+1} = mean v_k - dt mean F.
    A travelling solution w - c t needs F(w) = c for every dt, as it does
    for the explicit march, so the step size does not move the constant.

    Returns (estimate, error_bar, checkpoints); the error bar is the drift of
    the running estimate over the last decade of time.
    """
    cfg = cfg or CellConfig()
    scheme = _cell_scheme(params, cfg)
    dt = T_max / LONG_TIME_STEPS
    v = np.zeros(cfg.n)
    checkpoints = []
    next_check = T_max / 64.0
    t = 0.0
    for s in range(LONG_TIME_STEPS):
        mean_v = float(np.mean(v))
        phi, rec = _newton(scheme, v, 1.0 / dt, cfg, source=(v - mean_v) / dt)
        if not rec.converged:
            raise NumericalFailure(f"long-time step {s + 1} stopped at residual "
                                   f"{rec[1]:.3g} after {rec[2]} Newton steps")
        v = phi + (mean_v - dt * float(np.mean(scheme.residual(phi))))
        t += dt
        if t >= next_check or s == LONG_TIME_STEPS - 1:
            checkpoints.append((t, -float(np.mean(v)) / t))
            next_check = max(next_check * 1.25, t + dt)
            if not np.all(np.isfinite(v)):
                raise NumericalFailure(f"long-time march produced non-finite state at t={t:.3g}")
    est = checkpoints[-1][1]
    window = [e for (tt, e) in checkpoints if tt >= T_max / 10.0]
    err = max(abs(e - est) for e in window) if window else float("inf")
    return est, err, tuple(checkpoints)


def spectral_cell_above_one(sigma: float, f: GridFunction) -> GridFunction:
    """Solve (fractional Laplacian of order sigma) psi = f for zero-mean f.

    Solvability requires the compatibility condition mean(f) = 0 (constants
    span the kernel of the operator); violation raises.  The result is
    normalized by psi(0) = 0.
    """
    if not (1.0 < sigma < 2.0):
        raise ValueError("direct spectral cell solve applies to orders in (1, 2)")
    fm = abs(f.mean())
    if fm > 1e-12 * max(f.sup_norm(), 1e-300):
        raise ValueError(f"compatibility violated: mean(f) = {f.mean():.3e} != 0")
    freq = np.fft.rfftfreq(f.n, d=1.0 / f.n)
    mult = np.zeros_like(freq)
    mult[1:] = (2.0 * np.pi * freq[1:]) ** (-sigma)
    psi = np.fft.irfft(mult * np.fft.rfft(f.values), n=f.n)
    return GridFunction(psi - psi[0])


@dataclass(frozen=True)
class RegularityRatios:
    psi_delta: float   # delta |psi^delta|_inf / (1 + |l| + |p|^m)
    osc: float         # osc(psi) / (1 + |p| + |l|^(1/m))
    lip: float         # Lip(psi) / (1 + |l| + |p|^m)
    flap: float        # sup |order-1 fractional Laplacian of psi| / (1+|l|+|p|^m)^m


def regularity_audit(sol: CellSolution, params: CellParams) -> RegularityRatios:
    m = params.ham.m
    pl = 1.0 + abs(params.l) + abs(params.p) ** m
    return RegularityRatios(
        psi_delta=sol.delta_min * sol.psi_delta_sup / pl,
        osc=sol.regularity.osc / (1.0 + abs(params.p) + abs(params.l) ** (1.0 / m)),
        lip=sol.regularity.lip / pl,
        flap=sol.regularity.flap_sup / pl ** m,
    )


def regularity_sweep_audit(entries) -> dict:
    """Ratios across a (p, l) sweep with a growth flag per estimate.

    entries: iterable of (params, solution).  A ratio family is flagged when
    its last value exceeds 1.25x its first (growth would contradict the
    uniform-in-parameters character of the bounds).
    """
    ratios = [regularity_audit(sol, par) for par, sol in entries]
    out = {}
    for name in ("psi_delta", "osc", "lip", "flap"):
        series = [getattr(r, name) for r in ratios]
        out[name] = {
            "series": series,
            "growth_flagged": bool(series[-1] > 1.25 * series[0] + 1e-12),
        }
    return out
