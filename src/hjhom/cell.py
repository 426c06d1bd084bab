"""Stationary problems on the unit cell and the ergodic constant.

Every cell problem reads a, b and f on the cell nodes from cell_coefficients.
Each regime of the kernel order then gets its own cell problem:

  * order < 1: first order and one-dimensional, -a l + H(y, p + v') = Hbar,
    with an exact ergodic constant and corrector (Lions-Papanicolaou-Varadhan
    1987; Concordel 1996): formula_below_one and corrector_below_one;
  * order = 1: fractional Laplacian of order 1, an upwinded drift from the
    kernel asymmetry, and the gradient coupling: solve_ergodic_pair;
  * order > 1: the linear problem -a l + a (fractional Laplacian) v + H(y, p),
    solved in closed form: hjhom.effective.ClosedForm gives Hbar, and its
    corrector comes from spectral_cell_above_one.

At order one Newton's method on the monotone scheme itself (semismooth at
the Godunov flux's switches) solves the ergodic pair F(phi) = Hbar, mean phi
= 0 (Cacace-Camilli, SIAM J. Sci. Comput. 38, 2016).  Each step solves the
mean-free residual r = F(phi) - mean(F(phi)) against the Jacobian plus the
all-ones matrix (the border as a rank-one term), which the nonlocal term
makes nonsingular (below order one the upwind Jacobian decouples on the
flat piece), and pins phi to mean zero.  Hbar is the midpoint of [min, max]
of F(phi), the discrete comparison bracket.  Newton stops for one of three
reasons, recorded with its residual and its steps:

  * tol: max |r| < tol;
  * stagnated: max |r| sits at the rounding floor of its own evaluation,
    ROUNDOFF_MULTIPLE * eps * (|J|_inf |phi|_inf + |F(phi)|_inf), above tol:
    converged to working precision, since no further step can lower r;
  * budget: max_steps Newton steps were taken without either; not converged.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import GridFunction, forward_diff
from .hamiltonians import HamiltonianSpec
from .kernels import BLOCK_VALUES, QuadratureTable, constant_kernel, periodized_weights
from .operators import spectral_flap
from .parabolic import MonotoneScheme, NumericalFailure


# Cell nodes of the periodic quadrature behind every closed-form mean: the
# closed form above order one (hjhom.effective.ClosedForm) and the cell
# formula below it
CLOSED_FORM_NODES = 2048


def cell_coefficients(a: Callable, ham: HamiltonianSpec, X: np.ndarray, ys: np.ndarray,
                      rule: str = "positive on the cell") -> tuple:
    """(a, b, f) of the model at the x of each row of the column X on the cell
    nodes ys, broadcast to the rows they return: one row when none reads x.
    Raises ValueError "coefficient a must be <rule>: ...", naming the least
    value of a and its (x, y), unless a is positive."""
    vals = [np.asarray(c(X, ys), dtype=float) for c in (a, ham.b, ham.f)]
    rows = np.broadcast_shapes((1, ys.size), *(v.shape for v in vals))
    a_vals, b_vals, f_vals = (np.broadcast_to(v, rows) for v in vals)
    if not np.all(a_vals > 0.0):
        i, j = np.unravel_index(np.argmin(a_vals), rows)
        raise ValueError(f"coefficient a must be {rule}: a(x, y) = {a_vals[i, j]:.6g} at "
                         f"(x, y) = ({X[i, 0]:.6g}, {ys[j]:.6g})")
    return a_vals, b_vals, f_vals


def regime_of(sigma: float) -> str:
    if sigma < 1.0:
        return "below_one"
    if sigma == 1.0:
        return "equal_one"
    return "above_one"


class CellParams(NamedTuple):
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


class CellConfig(NamedTuple):
    n: int = 256
    tol: float = 1e-9
    max_steps: int = 500          # Newton steps per solve


class NewtonStop(NamedTuple):
    """How Newton stopped: residual, steps and reason (tol, stagnated or budget)."""

    residual: float
    steps: int
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason != "budget"


def unconverged(params: CellParams, stop: NewtonStop) -> str:
    """Name the node whose Newton solve ran out of steps, and how it stopped."""
    return (f"cell solve at (x, p, l) = ({params.x:g}, {params.p:g}, {params.l:g}) "
            f"not converged: residual {stop.residual:.3e} after {stop.steps} "
            f"Newton steps, stopped by {stop.reason}")


class CellSolution(NamedTuple):
    psi: GridFunction              # corrector, normalized psi(0) = 0
    H_bar: float
    spread: float
    stop: NewtonStop
    warm_start: bool = False       # whether Newton began from `start`


@functools.lru_cache(maxsize=1)
def _cell_table(sigma: float, n: int) -> QuadratureTable:
    """The constant kernel's table on the n-node cell, kept for the last (sigma,
    n) asked for: a table fill builds it once for all nodes.  Callers only read it."""
    return periodized_weights(constant_kernel(sigma), n)


def _cell_scheme(params: CellParams, cfg: CellConfig) -> MonotoneScheme:
    """The frozen-coefficient stationary operator at order one; Newton reads
    no theta on its Godunov flux."""
    n = cfg.n
    ys = np.arange(n) / n
    a_vals, b_vals, f_vals = (row[0] for row in cell_coefficients(
        params.a, params.ham, np.array([[params.x]]), ys))
    return MonotoneScheme(1.0 / n, power=(b_vals, params.ham.m, -f_vals), a=a_vals,
                          p=params.p, table=_cell_table(params.sigma, n),
                          const=-a_vals * params.l, drift=params.drift_b)


# multiple of eps * (|J| |phi| + |F(phi)|) below which the mean-free
# residual is rounding noise of its own evaluation
ROUNDOFF_MULTIPLE = 64.0


def _newton(scheme: MonotoneScheme, phi: np.ndarray, cfg: CellConfig) -> tuple:
    """Mean-pinned Newton for F(phi) = Hbar, mean phi = 0; (phi, NewtonStop).
    A NumericalFailure it raises carries the steps taken."""
    eps = np.finfo(float).eps
    phi = phi - np.mean(phi)
    steps = 0
    while True:
        full = scheme.residual(phi)
        r = full - np.mean(full)
        nr = float(np.max(np.abs(r)))
        if not math.isfinite(nr):
            raise NumericalFailure(f"cell Newton produced a non-finite residual at step {steps}",
                                   steps)
        if nr < cfg.tol:
            return phi, NewtonStop(nr, steps, "tol")
        jac = scheme.jacobian(phi)
        floor = ROUNDOFF_MULTIPLE * eps * (float(np.max(np.sum(np.abs(jac), axis=1)))
                                        * float(np.max(np.abs(phi)))
                                        + float(np.max(np.abs(full))))
        if nr <= floor:
            return phi, NewtonStop(nr, steps, "stagnated")
        if steps >= cfg.max_steps:
            return phi, NewtonStop(nr, steps, "budget")
        jac += 1.0                # the ergodic border, as a rank-one term
        phi = phi - np.linalg.solve(jac, r)
        phi -= np.mean(phi)
        steps += 1


def solve_ergodic_pair(params: CellParams, cfg: Optional[CellConfig] = None,
                       start: Optional[np.ndarray] = None) -> CellSolution:
    """The cell problem at order one as its ergodic pair (see the module
    docstring), from zero, or from `start` where its mean-free residual is
    smaller than zero's (so a node that zero solves exactly stays exact);
    Hbar is the midpoint of [min, max] of F(phi), max - min its spread."""
    cfg = cfg or CellConfig()
    scheme = _cell_scheme(params, cfg)
    phi = np.zeros(cfg.n)
    warm = False
    if start is not None:
        start = np.asarray(start, dtype=float) - np.mean(start)
        sups = [np.max(np.abs(full - np.mean(full))) for full in
                (scheme.residual(v) for v in (start, phi))]
        warm = bool(sups[0] < sups[1])
        if warm:
            phi = start
    phi, stop = _newton(scheme, phi, cfg)
    f_phi = scheme.residual(phi)
    lo, hi = float(np.min(f_phi)), float(np.max(f_phi))
    return CellSolution(psi=GridFunction(phi - phi[0]), H_bar=0.5 * (lo + hi),
                        spread=hi - lo, stop=stop, warm_start=warm)


def corrector_regularity(psi: GridFunction) -> tuple:
    """(osc, lip, flap_sup) of a corrector: max - min, the largest forward
    difference quotient in absolute value, and sup |order-1 fractional
    Laplacian| by the spectral multiplier 2 pi |k|."""
    v = psi.values
    return (float(np.max(v) - np.min(v)), float(np.max(np.abs(forward_diff(v, psi.h)))),
            float(np.max(np.abs(spectral_flap(psi, 1.0).values))))


def spectral_cell_above_one(sigma: float, f: np.ndarray) -> np.ndarray:
    """Solve (fractional Laplacian of order sigma) psi = f for zero-mean f,
    row by row along the last axis.

    Solvability requires the compatibility condition mean(f) = 0 (constants
    span the kernel of the operator); violation raises.  The result is
    normalized by psi(0) = 0.
    """
    if not (1.0 < sigma < 2.0):
        raise ValueError("direct spectral cell solve applies to orders in (1, 2)")
    n, mean = np.shape(f)[-1], np.mean(f, axis=-1)
    if np.any(bad := np.abs(mean) > 1e-12 * np.maximum(np.max(np.abs(f), axis=-1), 1e-300)):
        raise ValueError(f"compatibility violated: mean(f) = {mean[bad].flat[0]:.3e} != 0")
    freq = np.fft.rfftfreq(n, d=1.0 / n)
    mult = np.zeros_like(freq)
    mult[1:] = (2.0 * np.pi * freq[1:]) ** (-sigma)
    coef = np.fft.rfft(f, axis=-1)
    coef *= mult
    psi = np.fft.irfft(coef, n=n, axis=-1)
    psi -= psi[..., :1]
    return psi


# Newton and bisection steps per root of the formula below order one
_ROOT_STEPS = 100


def formula_below_one(a: Callable, ham: HamiltonianSpec, x, p, l,
                      nodes: int = CLOSED_FORM_NODES) -> np.ndarray:
    """Hbar(x, p, l) below order one from the one-dimensional cell formula
    (Lions-Papanicolaou-Varadhan; Concordel 1996), broadcast over x, p, l.

    The cell problem is b(y) |p + v'|^m = Hbar + g(y) at the frozen x.  On
    the cell nodes y_k = k / nodes, with g = f + a l at the frozen x,
    lambda0 = max(-g) and I(lambda) = mean(((lambda + g) / b)^(1/m)).  Hbar
    = lambda0 where |p| <= I(lambda0), the flat piece, and otherwise the
    root of I(lambda) = |p| above lambda0.  The nodes are taken in blocks of
    at most BLOCK_VALUES values; each query's value does not depend on the
    block that holds it.
    """
    x, p, l = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, p, l)))
    ys = np.arange(nodes) / nodes
    rows = max(1, BLOCK_VALUES // nodes)
    xf, qf, lf = x.ravel(), np.abs(p.ravel()), l.ravel()
    out = np.empty(xf.size)
    for s in range(0, xf.size, rows):
        block = slice(s, s + rows)
        g, b = _cell_data(a, ham, xf[block, None], ys, lf[block, None])
        out[block] = _ergodic_root(g, b, ham.m, qf[block])
    return out.reshape(x.shape)


def _cell_data(a: Callable, ham: HamiltonianSpec, X, ys: np.ndarray, l) -> tuple:
    """(g, b) of the cell formula, one row per frozen x of the column X, on
    the cell nodes ys: g = f + a l, from cell_coefficients."""
    a_vals, b_vals, f_vals = cell_coefficients(a, ham, X, ys)
    g = np.broadcast_to(f_vals + a_vals * l, (X.size, ys.size))
    return g, np.broadcast_to(b_vals, g.shape)


def corrector_below_one(params: CellParams, n: int) -> np.ndarray:
    """The corrector below order one at the nodes k / n, k = 0..n, psi(0) =
    0, of b |p + psi'|^m = Hbar + g (Concordel 1996), from formula_below_one's
    g, b and Hbar on the n nodes k / n, so that psi(1) = psi(0) to rounding.

    psi' = s w - p on each node interval, w = ((Hbar + g) / b)^(1/m), where s
    is +1 from the argmin of g and switches once to -1, inside one node (a
    fractional s there), so that mean(s w) = p: the one downward kink a
    viscosity solution of a convex H may have.  Off the flat piece mean(w) =
    |p|, so s = sign p.  Raises ValueError unless a is positive on the cell.
    """
    ys = np.arange(n) / n
    g, b = _cell_data(params.a, params.ham, np.array([[params.x]]), ys, params.l)
    hbar = _ergodic_root(g, b, params.ham.m, np.array([abs(params.p)]))[0]
    w = ((hbar + g[0]) / b[0]) ** (1.0 / params.ham.m)
    sweep = (int(np.argmin(g[0])) + np.arange(n)) % n
    mass = np.cumsum(w[sweep])
    half = 0.5 * (mass[-1] + params.p * n)      # sum(s w) = p n
    c = min(int(np.searchsorted(mass, half, side="right")), n - 1)
    s = np.where(np.arange(n) < c, 1.0, -1.0)
    wc = w[sweep[c]]
    if wc > 0.0:
        s[c] = (2.0 * (half - mass[c]) + wc) / wc
    slope = np.empty(n)
    slope[sweep] = s * w[sweep] - params.p
    return np.concatenate(([0.0], np.cumsum(slope))) / n


def _ergodic_root(g: np.ndarray, b: np.ndarray, m: float, q: np.ndarray) -> np.ndarray:
    """Per row of g and b: lambda0 on the flat piece q <= I(lambda0), else
    the root of I(lambda) = q.

    I is increasing and concave, so Newton from a point left of the root
    climbs to it monotonically, and a Newton step from the right lands left
    of it.  The root is bracketed by lo = max(lambda0, Jensen's bound
    (q^m - mean(g/b)) / mean(1/b)) and hi = max(b) q^m - min(g); the first
    step is from the bracket's midpoint, since I' is infinite at lambda0, and
    a Newton step that leaves the bracket is replaced by its midpoint.  A
    root stops at the first left point whose Newton step does not climb.
    Raises NumericalFailure naming the row's q if none does in _ROOT_STEPS.
    """
    r = 1.0 / m
    lam = np.max(-g, axis=1)
    steep = np.mean(((lam[:, None] + g) / b) ** r, axis=1) < q
    rows = np.flatnonzero(steep)
    g, b, q = g[rows], b[rows], q[rows]
    lo = np.maximum(lam[rows], (q ** m - np.mean(g / b, axis=1)) / np.mean(1.0 / b, axis=1))
    hi = np.max(b, axis=1) * q ** m - np.min(g, axis=1)
    at = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_STEPS):
            if rows.size == 0:
                return lam
            s = at[:, None] + g
            t = (s / b) ** r
            val = np.mean(t, axis=1)
            left = val <= q
            lo = np.where(left, at, lo)
            hi = np.where(left, hi, at)
            newton = at + (q - val) / (r * np.mean(t / s, axis=1))
            nxt = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            done = (left & ~(newton > at)) | (nxt == at)
            lam[rows[done]] = at[done]
            keep = ~done
            rows, g, b, q, lo, hi, at = (v[keep] for v in (rows, g, b, q, lo, hi, nxt))
    if rows.size:
        raise NumericalFailure(f"the cell formula found no root for |p| = {q[0]:.17g} "
                               f"in {_ROOT_STEPS} steps")
    return lam
