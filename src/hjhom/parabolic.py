"""Monotone time stepping for the oscillating and effective problems.

The update is forward Euler on a monotone spatial operator: nonnegative
quadrature weights for the nonlocal part, Godunov or Lax-Friedrichs for the
gradient part, and a CFL step chosen so every off-diagonal dependence is
nondecreasing.  Where the data bound the flux's slope on any range of
gradients (a power-form Hamiltonian or an effective table), its dissipation
theta, and with it the step, is fitted before each step to the gradients
the run has reached rather than to an a-priori range: monotonicity is
needed only on the states the scheme meets (Crandall-Lions 1984).  When the
nonlocal term is linear and its coefficient repeats with a short period on
the grid, it is taken implicitly instead and only the gradient part limits
the step: the effective flow above order one (one constant A, period 1)
and the oscillating flow with a(x/eps) (period n eps nodes).  A shift by
the period commutes with the implicit operator, so one FFT splits it into
small dense Fourier blocks.  Monotonicity buys the discrete comparison
principle, the sup-norm bound, and stability; no attempt is made at higher
order.  The same scheme object, with its Jacobian, drives the cell
solver's Newton iteration.  An effective problem takes its scheme from the
source it is given (hjhom.effective), and a failure that source raises in a
step reaches the caller prefixed with the step and its time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import GridFunction, forward_diff, one_sided_diffs
from .hamiltonians import HamiltonianSpec, coercive_reach
from .kernels import KernelSpec, QuadratureTable
from .operators import apply_table

# Fraction of the monotone step bound actually taken; the CFL condition of
# the difference-quadrature schemes (Biswas-Jakobsen-Karlsen 2010).
CFL_SAFETY = 0.9

# Longest period, in nodes, of a coefficient whose nonlocal term step() takes
# implicitly: each step then solves n / P dense P x P Fourier blocks.
MAX_PERIOD = 64

# Least factor by which fit_theta raises the Godunov flux's gradient bound G
# when a state outgrows it, so G (and with it theta, dt and the implicit
# step's block inverse) changes only a logarithmic number of times in a run.
GRADIENT_RISE = 2.0 ** 0.0625


class NumericalFailure(RuntimeError):
    """Blow-up, NaN, or an a-priori bound left during time stepping."""


def godunov_power_flux(m: float, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
    """Godunov flux for q -> |q|^m (convex, minimum at 0)."""
    return np.maximum(np.maximum(ql, 0.0), np.maximum(-qr, 0.0)) ** m


def _node_period(a: np.ndarray) -> Optional[int]:
    """Smallest period P < n, P <= MAX_PERIOD, P dividing n, with
    a[j + P] = a[j] exactly at every node; None if there is none."""
    n = a.size
    for period in range(1, min(MAX_PERIOD, n // 2) + 1):
        if n % period == 0 and np.array_equal(a[period:], a[:-period]):
            return period
    return None


def _p_slope(ham_at: Callable[[np.ndarray], np.ndarray], q: np.ndarray) -> np.ndarray:
    """dH/dp at the gradients q by a centered difference."""
    d = 1e-5
    return (ham_at(q + d) - ham_at(q - d)) / (2.0 * d)


class MonotoneScheme:
    """One monotone discretization F of the spatial operator on n nodes.

    F(u) = const - a (I_h u - drift D u) + H(p + D u, I_h u), where I_h is the
    quadrature operator of `table`, p a frozen gradient shift (zero for the
    time problems) and D the upwind difference of the drift's sign.  The
    nonlocal value enters either through the coefficient `a` or, when `a` is
    None, as the argument l of ham(q, l) (the table-driven effective
    problems).  ham None means there is no gradient term.

    theta bounds |dH/dp| over the gradients q the flux is monotone on, and
    the scheme sets it itself.  A power structure H = coeff |q|^m + at_zero,
    both arrays over the nodes, selects the Godunov flux, whose theta is
    max coeff m G^(m-1): G starts at the coercive reach of the arrays and
    fit_theta raises it to the gradients a run reaches (the cell Newton
    solver never reads it).  A table source passes theta(lo, hi), the
    bound over [lo, hi]; as built it covers every gradient.  Otherwise the
    flux is Lax-Friedrichs on ham, and theta is sup |dH/dp| sampled at 201
    gradients over |q| <= p_range; that range is kept as `p_range` (None
    for the other fluxes), and solve stops a run that leaves it.

    Explicit steps u - dt (delta u + F(u)) are monotone for dt <= 1 / (budget
    + delta); dt(delta) takes CFL_SAFETY of that.  The scheme is `implicit`
    when its nonlocal part is -a I_h u with a >= 0 of some period P (see
    _node_period), no drift, no compensator and nonnegative off-diagonal
    table coefficients.  Then I - dt diag(a) I_h is a strictly diagonally
    dominant M-matrix, so its inverse is >= 0, and step() takes that part
    implicitly at the gradient-only step step_dt().  The operator commutes
    with a shift by P nodes, so in Fourier space class r, the modes r + K t
    (K = n / P, t < P), is one P x P block I - dt Ac diag(lam_{r + K t}),
    with Ac[t, t'] = fft(a[:P])[(t - t') mod P] / P and lam the symbol of
    I_h.  One constant a is the case P = 1.
    """

    def __init__(self, h: float, ham: Optional[Callable], *, power: Optional[tuple] = None,
                 theta: Optional[Callable[[float, float], float]] = None,
                 p_range: Optional[float] = None, p: float = 0.0,
                 table: Optional[QuadratureTable] = None, a: Optional[np.ndarray] = None,
                 drift: float = 0.0, const: Optional[np.ndarray] = None, l_slope: float = 0.0):
        self.h, self.ham, self.power, self.p, self.table = h, ham, power, p, table
        self.minus_a = None if a is None else -a
        self.drift, self.const = drift, const
        if a is not None:
            l_slope = float(np.max(np.abs(a)))
        budget = 0.0
        if table is not None:
            budget = l_slope * (table.tail_mass + table.antisym_cfl_mass())
        if drift:
            budget += l_slope * abs(drift) / h
        self._nonlocal_budget = budget
        self._theta_of, self.p_range = theta, None
        self._grad = None         # Godunov: the gradient bound G fitted so far
        if power is not None:
            coeff, m, at_zero = power
            self._reach = coercive_reach(float(np.min(coeff)), float(np.max(np.abs(at_zero))), m)
            self.theta = self._godunov_theta(self._reach)
        elif theta is not None:
            self.theta = theta(-math.inf, math.inf)
        elif ham is not None:
            qs = np.linspace(-p_range, p_range, 201)[:, None]     # a row per gradient
            self.theta = float(np.max(np.abs(_p_slope(lambda q: ham(q, None), qs))))
            self.p_range = p_range
        else:
            self.theta = 0.0
        self._coupling = None     # Ac, when implicit
        self._inverse = None      # (dt, the block inverses at dt): the last step_dt() met
        period = None
        if (table is not None and a is not None and ham is not None and not drift
                and table.comp_coeff == 0 and np.all(a >= 0.0)
                and np.all(table.weights + table.antisym >= 0.0)):
            period = _node_period(a)
        if period is not None:
            lam = np.conj(np.fft.fft(table.weights + table.antisym)) - table.mass
            lam[0] = 0.0
            self._lam = lam.reshape(period, -1).T              # [r, t]: mode r + K t
            t = np.arange(period)
            self._coupling = (np.fft.fft(a[:period]) / period)[(t[:, None] - t) % period]

    @property
    def implicit(self) -> bool:
        """Whether step() takes the nonlocal term implicitly."""
        return self._coupling is not None

    @property
    def budget(self) -> float:
        """Diagonal mass of F per unit step: the CFL budget."""
        return self._nonlocal_budget + self.theta / self.h

    def _godunov_theta(self, g: float) -> float:
        """max coeff m g^(m-1): the Godunov theta for gradients |q| <= g."""
        coeff, m, _ = self.power
        return float(np.max(coeff)) * m * g ** (m - 1.0)

    def fit_theta(self, u: np.ndarray) -> tuple:
        """Fit theta to the state u; returns u's one-sided differences, which
        step() takes, so a step builds them once.

        With theta(lo, hi), theta is set over the range [lo, hi] of u's
        differences, p included: the flux is then monotone at u and at every
        state whose differences lie in [lo, hi].  The Godunov flux takes
        theta = max coeff m G^(m-1), G the largest |q| the run has reached:
        G starts at the coercive reach of the power arrays or at u's
        max(|lo|, |hi|), whichever is larger, and a state beyond G raises it
        to that state's bound, by GRADIENT_RISE at least.  So the Godunov
        theta never falls and the step never grows.  A sampled theta stays.
        """
        diffs = one_sided_diffs(u, self.h)
        if self._theta_of is None and self.power is None:
            return diffs
        d = diffs[1]          # the backward differences take the same values
        lo, hi = self.p + float(d.min()), self.p + float(d.max())
        if self._theta_of is not None:
            self.theta = self._theta_of(lo, hi)
            return diffs
        g = max(-lo, hi)
        if self._grad is None:
            g = max(g, self._reach)
        elif g > self._grad:
            g = max(g, GRADIENT_RISE * self._grad)
        else:
            return diffs
        self._grad = g
        self.theta = self._godunov_theta(g)
        return diffs

    def dt(self, delta: float = 0.0) -> float:
        """Monotone explicit step for the discount delta."""
        return CFL_SAFETY / (self.budget + delta + 1e-300)

    def step_dt(self) -> float:
        """The step solve takes: dt() for the explicit step; for the implicit
        one only the gradient part counts, dt theta / h = CFL_SAFETY."""
        if self._coupling is None:
            return self.dt()
        return CFL_SAFETY / (self.theta / self.h + 1e-300)

    def _blocks(self, dt: float) -> np.ndarray:
        """The K Fourier blocks I - dt Ac diag(lam_{r + K t}), shape (K, P, P)."""
        return np.eye(self._coupling.shape[0]) - dt * self._coupling * self._lam[:, None, :]

    def step(self, u: np.ndarray, dt: float, diffs: Optional[tuple] = None) -> np.ndarray:
        """One monotone time step of length dt <= step_dt() from u; diffs are
        u's one-sided differences if the caller has them (fit_theta).

        Explicit: u - dt F(u).  Implicit: (I - dt diag(a) I_h) v = u - dt G(u),
        G the rest of F, solved block by block between one rfft and one irfft
        (P > 1 blocks need the full spectrum, which a real u determines; P = 1
        blocks are scalars, applied to the half spectrum).  The inverses at
        step_dt() are kept and rebuilt when step_dt() changes, which under
        solve means theta has risen; a shortened step solves.
        """
        if self._coupling is None:
            return u - dt * self.residual(u, diffs)
        dl, dr = one_sided_diffs(u, self.h) if diffs is None else diffs
        rhs = self._flux(dl, dr, None)
        if self.const is not None:
            rhs = self.const + rhs
        half = np.fft.rfft(u - dt * rhs)
        cached = dt == self.step_dt()
        if cached and (self._inverse is None or self._inverse[0] != dt):
            self._inverse = (dt, np.linalg.inv(self._blocks(dt)))
        if self._coupling.shape[0] == 1:
            # scalar blocks: mode k alone, so the half spectrum is all it takes
            if cached:
                return np.fft.irfft(half * self._inverse[1][:half.size, 0, 0], n=u.size)
            return np.fft.irfft(half / self._blocks(dt)[:half.size, 0, 0], n=u.size)
        # modes n - k are the conjugates of modes k; [r, t] holds mode r + K t
        spec = np.concatenate((half, np.conj(half[u.size - half.size:0:-1])))
        spec = spec.reshape(self._coupling.shape[0], -1).T[:, :, None]
        if cached:
            spec = np.matmul(self._inverse[1], spec)
        else:
            spec = np.linalg.solve(self._blocks(dt), spec)
        return np.fft.irfft(spec[:, :, 0].T.reshape(-1)[:half.size], n=u.size)

    def residual(self, u: np.ndarray, diffs: Optional[tuple] = None) -> np.ndarray:
        dl, dr = one_sided_diffs(u, self.h) if diffs is None else diffs
        lv = None if self.table is None else apply_table(u, self.table)
        out = self.const
        if self.minus_a is not None and lv is not None:
            if self.drift:
                lv = lv - self.drift * (dl if self.drift > 0.0 else dr)
            nonlocal_part = self.minus_a * lv
            out = nonlocal_part if out is None else out + nonlocal_part
        if self.ham is None:
            return out
        flux = self._flux(dl, dr, lv)
        return flux if out is None else out + flux

    def _flux(self, dl: np.ndarray, dr: np.ndarray, lv: Optional[np.ndarray]) -> np.ndarray:
        """The numerical Hamiltonian on the one-sided differences (dl, dr)."""
        ql, qr = (self.p + dl, self.p + dr) if self.p else (dl, dr)
        if self.power is not None:
            coeff, m, at_zero = self.power
            return at_zero + coeff * godunov_power_flux(m, ql, qr)
        return self.ham(0.5 * (ql + qr), lv) - 0.5 * self.theta * (qr - ql)

    def jacobian(self, u: np.ndarray, delta: float = 0.0) -> np.ndarray:
        """Dense n x n derivative of delta u + F(u) at u, for Newton solves.

        The nonlocal value must enter through the coefficient a, as in every
        cell scheme and the closed-form effective scheme.  The Godunov flux is
        differentiated on its active one-sided difference, the Lax-Friedrichs
        flux through a centered dH/dp.  The rows of F's part sum to zero; with a symmetric kernel
        every off-diagonal entry is <= 0 as well, so the matrix is an
        M-matrix, singular only when delta = 0, with the constants as its
        kernel.
        """
        if self.table is not None and self.minus_a is None:
            raise ValueError("jacobian needs the nonlocal value to enter through a")
        n, h = u.size, self.h
        j = np.arange(n)
        up, dn = (j + 1) % n, (j - 1) % n
        jac = np.zeros((n, n))
        if self.table is not None:
            t = self.table
            lin = (t.weights + t.antisym)[(j[None, :] - j[:, None]) % n]
            lin[j, j] -= t.mass
            if t.comp_coeff:
                lin[j, up] -= t.comp_coeff * n / 2.0
                lin[j, dn] += t.comp_coeff * n / 2.0
            if self.drift:
                side = dn if self.drift > 0.0 else up
                lin[j, j] -= abs(self.drift) / h
                lin[j, side] += abs(self.drift) / h
            jac = self.minus_a[:, None] * lin
        jac[j, j] += delta
        if self.ham is None:
            return jac
        dl, dr = one_sided_diffs(u, h)
        ql, qr = self.p + dl, self.p + dr
        if self.power is not None:
            coeff, m, _ = self.power
            left, right = np.maximum(ql, 0.0), np.maximum(-qr, 0.0)
            use_left = left >= right
            g = coeff * m * np.where(use_left, left, right) ** (m - 1.0) / h
            jac[j, j] += g
            jac[j, dn] -= np.where(use_left, g, 0.0)
            jac[j, up] -= np.where(use_left, 0.0, g)
        else:
            hq = _p_slope(lambda q: self.ham(q, None), 0.5 * (ql + qr))
            jac[j, j] += self.theta / h
            jac[j, up] += 0.5 * (hq - self.theta) / h
            jac[j, dn] -= 0.5 * (hq + self.theta) / h
        return jac


def coefficient_scheme(h: float, xs: np.ndarray, ys: np.ndarray, a: np.ndarray,
                       ham: HamiltonianSpec, p_range: float, **kw) -> MonotoneScheme:
    """Scheme for -a (I_h u - drift D u) + H(x, y, p + D u) at the nodes (xs, ys);
    p_range is the Lax-Friedrichs sampling range, unread with a power form."""
    pf = ham.power_form
    power = None if pf is None else (np.asarray(pf.b(xs, ys), dtype=float), pf.m,
                                     -np.asarray(pf.f(xs, ys), dtype=float))
    return MonotoneScheme(h, lambda q, lv: ham.eval(xs, ys, q), power=power,
                          p_range=p_range, a=a, **kw)


@dataclass
class SolverConfig:
    """Discretization knobs; dt is always derived from the CFL bound, and the
    flux and its dissipation from the problem data.  gradient_range is the
    range a Lax-Friedrichs flux on a general H samples its theta over
    (estimated from u0 when None); the other fluxes do not read it."""

    gradient_range: Optional[float] = None
    snapshots: int = 10              # recorded times beyond t = 0

    def resolved_record_times(self, T: float) -> np.ndarray:
        return np.linspace(0.0, T, self.snapshots + 1)[1:]


@dataclass
class ParabolicProblem:
    """Either the oscillating problem (kind="oscillating") driven by (a, H)
    at scale eps = 1/k, or the homogenized problem (kind="effective") driven
    by an effective source: anything whose scheme(xs, table, p_range) gives
    the MonotoneScheme of the effective flow at the nodes xs, p_range being
    the Lax-Friedrichs sampling range for a source without its own theta."""

    kind: str
    u0: GridFunction
    T: float
    table: QuadratureTable
    eps: Optional[float] = None
    a: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    ham: Optional[HamiltonianSpec] = None
    source: Optional[object] = None

    def __post_init__(self):
        if self.kind not in ("oscillating", "effective"):
            raise ValueError(f"unknown problem kind '{self.kind}'")
        if self.T <= 0.0:
            raise ValueError("horizon must be positive")
        if self.kind == "oscillating":
            if self.eps is None or self.a is None or self.ham is None:
                raise ValueError("oscillating problem needs eps, a, and a Hamiltonian")
            k = 1.0 / self.eps
            if abs(k - round(k)) > 1e-12:
                raise ValueError("eps must be the reciprocal of a positive integer")
            if self.u0.n < 16 * int(round(k)):
                raise ValueError("need n >= 16 / eps to resolve the fast variable")
        else:
            if self.source is None:
                raise ValueError("effective problem needs an effective source")

    def scheme(self, p_range: float) -> MonotoneScheme:
        xs = self.u0.nodes()
        if self.kind == "effective":
            return self.source.scheme(xs, self.table, p_range)
        # y = x / eps mod 1 in exact integer arithmetic, so a(x, y) repeats
        # exactly every n eps nodes
        n, k = self.u0.n, int(round(1.0 / self.eps))
        ys = (np.arange(n) * k % n) / n
        a_vals = np.asarray(self.a(xs, ys), dtype=float)
        return coefficient_scheme(self.u0.h, xs, ys, a_vals, self.ham, p_range,
                                  table=self.table)


@dataclass
class Trajectory:
    times: np.ndarray
    snapshots: list
    sup_norm_track: np.ndarray
    residual_track: np.ndarray
    dt: float              # the smallest full step taken
    theta: float           # the largest dissipation used
    max_gradient_seen: float
    steps: int             # time steps taken, the shortened ones included
    path: str              # "implicit" or "explicit": how the nonlocal term was stepped

    def final(self) -> GridFunction:
        return self.snapshots[-1]


def solve(problem: ParabolicProblem, cfg: SolverConfig) -> Trajectory:
    """March the problem to its horizon, recording exact snapshot times.

    Each step is MonotoneScheme.step at the scheme's step_dt(), shortened to
    land on the recorded times.  fit_theta fits theta to the state first, so
    the step follows the gradients the run has (a table's theta follows the
    state, the Godunov theta the largest gradient so far), and its one-sided
    differences serve the step as well.  Raises NumericalFailure on NaN
    (with the step index and time), on a failure the source raises within a
    step (prefixed with them), or, for a Lax-Friedrichs flux on a general H,
    if a recorded state's gradient leaves the range its theta was sampled
    over (scheme.p_range).
    """
    u0 = problem.u0
    h = u0.h
    u = u0.values.copy()
    max_grad = float(np.max(np.abs(forward_diff(u, h))))
    # without a given range, twice the data's slope (and at least 2)
    p_range = cfg.gradient_range if cfg.gradient_range is not None else max(2.0, 2.0 * max_grad)
    scheme = problem.scheme(p_range)
    dt, theta = math.inf, 0.0
    record = cfg.resolved_record_times(problem.T)

    t = 0.0
    times = [0.0]
    snapshots = [GridFunction(u)]
    residuals = [0.0]
    step_index = 0
    prev, step = u, 1.0
    for t_target in record:
        while t < t_target - 1e-14:
            diffs = scheme.fit_theta(u)
            full = scheme.step_dt()
            dt, theta = min(dt, full), max(theta, scheme.theta)
            step = min(full, t_target - t)
            t += step
            step_index += 1
            try:
                nxt = scheme.step(u, step, diffs)
            except NumericalFailure as exc:
                raise NumericalFailure(f"at step {step_index}, t = {t:.6g}: {exc}") from None
            if not np.isfinite(nxt).all():
                raise NumericalFailure(f"non-finite state at step {step_index}, t = {t:.6g}")
            prev, u = u, nxt
        g = float(np.max(np.abs(forward_diff(u, h))))
        max_grad = max(max_grad, g)
        if scheme.p_range is not None and g > scheme.p_range * (1.0 + 1e-9):
            raise NumericalFailure(
                f"gradient {g:.3g} left the a-priori range {scheme.p_range:.3g}; "
                "enlarge gradient_range")
        times.append(t)
        snapshots.append(GridFunction(u))
        # rate of the last step, (u_prev - u) / step: F(u_prev) when explicit
        residuals.append(float(np.max(np.abs(prev - u))) / step)
    return Trajectory(times=np.array(times), snapshots=snapshots,
                      sup_norm_track=np.array([s.sup_norm() for s in snapshots]),
                      residual_track=np.array(residuals), dt=dt, theta=theta,
                      max_gradient_seen=max_grad, steps=step_index,
                      path="implicit" if scheme.implicit else "explicit")


def sampled_modulus(u0: GridFunction, r: float) -> float:
    """sup |u0(x) - u0(x')| over node pairs with torus distance <= r."""
    shifts = int(math.floor(r * u0.n + 1e-12))
    out = 0.0
    for s in range(1, shifts + 1):
        out = max(out, float(np.max(np.abs(np.roll(u0.values, -s) - u0.values))))
    return out


@functools.cache
def _bump_constants() -> tuple:
    """L1 norms of the first two derivatives of the normalized standard bump,
    computed on first use."""
    s = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 20001)
    rho = np.exp(-1.0 / (1.0 - s * s))
    Z = np.trapezoid(rho, s)
    rho /= Z
    d1 = np.gradient(rho, s)
    d2 = np.gradient(d1, s)
    return float(np.trapezoid(np.abs(d1), s)), float(np.trapezoid(np.abs(d2), s))


@dataclass(frozen=True)
class BarrierEnvelope:
    """Time-affine envelopes u0_h -/+ (omega0 + C(h) t) around the solution."""

    u0_smoothed: GridFunction
    h_moll: float
    omega0: float
    C_of_h: float
    C1: float
    C2: float
    growth_C: float

    def lower(self, t: float) -> np.ndarray:
        return self.u0_smoothed.values - (self.omega0 + self.C_of_h * t)

    def upper(self, t: float) -> np.ndarray:
        return self.u0_smoothed.values + (self.omega0 + self.C_of_h * t)

    def alpha(self, m: float) -> float:
        return max(2.0, m)

    def C3(self) -> float:
        return self.growth_C * (self.C1 + self.C2)

    def initial_layer_bound(self, t: np.ndarray, u0: GridFunction, m: float) -> np.ndarray:
        """2 omega0(t^(1/(2 alpha))) + C3 sqrt(t), the optimized envelope gap."""
        alpha = self.alpha(m)
        t = np.asarray(t, dtype=float)
        return np.array([2.0 * sampled_modulus(u0, min(ti ** (1.0 / (2 * alpha)), 1.0))
                         + self.C3() * math.sqrt(ti) for ti in t])


def _kernel_moments(k: KernelSpec, h_cut: float = 1e-4) -> tuple:
    """(S1, S2, T1): first/second absolute moments inside the unit ball and
    total mass outside, for the full kernel density."""
    def kabs(z):
        return np.abs(np.asarray(k.kbar(z))) * z ** (-1.0 - k.sigma)

    edges = np.geomspace(h_cut, 1.0, 200)
    mids = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    S1 = float(2.0 * np.sum(widths * mids * kabs(mids)))
    S2 = float(2.0 * np.sum(widths * mids ** 2 * kabs(mids)))
    far = np.geomspace(1.0, 1e4, 400)
    fmids = 0.5 * (far[1:] + far[:-1])
    T1 = float(2.0 * np.sum(np.diff(far) * kabs(fmids)))
    return S1, S2, T1


def barrier_bounds(u0: GridFunction, h_moll: float, a_sup: float,
                   growth_C: float, m: float, kernel: KernelSpec) -> BarrierEnvelope:
    """Mollify u0 at radius h and assemble C(h) = C1 C h^-2 + C2 C h^-m.

    C1 collects the nonlocal budget of the mollified data (second/first kernel
    moments against the bump derivative bounds |Du0_h| <= |u0| R1/h,
    |D2 u0_h| <= |u0| R2/h^2); C2 the Hamiltonian growth against |Du0_h|^m.
    """
    if not (0.0 < h_moll <= 1.0):
        raise ValueError("mollification radius must lie in (0, 1]")
    n = u0.n
    xs = np.arange(n) / n
    d = xs.copy()
    d = np.minimum(d, 1.0 - d)  # torus distance to 0
    prof = np.where(d < h_moll, np.exp(-1.0 / np.maximum(1.0 - (d / h_moll) ** 2, 1e-300)), 0.0)
    if np.sum(prof) <= 0.0:
        prof = np.zeros(n)
        prof[0] = 1.0
    prof = prof / np.sum(prof)
    smoothed = np.real(np.fft.ifft(np.fft.fft(u0.values) * np.fft.fft(prof)))

    omega0 = sampled_modulus(u0, h_moll)
    u_sup = u0.sup_norm()
    S1, S2, T1 = _kernel_moments(kernel)
    C = max(growth_C, 1e-12)
    R1, R2 = _bump_constants()
    C1 = a_sup * u_sup * (0.5 * S2 * R2 + S1 * R1 + 2.0 * T1) / C + 1.0
    C2 = (R1 * u_sup) ** m
    C_of_h = C1 * C * h_moll ** (-2.0) + C2 * C * h_moll ** (-m)
    return BarrierEnvelope(u0_smoothed=GridFunction(smoothed), h_moll=h_moll,
                           omega0=omega0, C_of_h=C_of_h, C1=C1, C2=C2, growth_C=C)


def initial_layer_modulus(traj: Trajectory, u0: GridFunction) -> np.ndarray:
    """Table t -> sup_x |u(x, t) - u0(x)| over the recorded snapshots."""
    gaps = [float(np.max(np.abs(s.values - u0.values))) for s in traj.snapshots]
    return np.column_stack([traj.times, gaps])


def sup_convolution_time(u: np.ndarray, times: np.ndarray, gamma: float) -> tuple:
    """Regularize in time: out[x, t] = max_s { u[x, s] - (t_s - t_t)^2 / gamma }.

    Returns (values, lip) where lip is the largest per-x discrete time slope;
    the maximizer construction guarantees out >= u and lip <= 4 |u|_inf / sqrt(gamma).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    u = np.asarray(u, dtype=float)
    times = np.asarray(times, dtype=float)
    if u.ndim != 2 or u.shape[1] != times.size:
        raise ValueError("need u of shape (nx, nt) matching times")
    penalty = (times[None, :] - times[:, None]) ** 2 / gamma  # [s, t]
    out = np.max(u[:, :, None] - penalty[None, :, :], axis=1)
    if times.size > 1:
        dts = np.diff(times)
        lip = float(np.max(np.abs(np.diff(out, axis=1)) / dts[None, :]))
    else:
        lip = 0.0
    return out, lip


def holder_exponent_alpha0(n: float, sigma: float, m: float) -> float:
    """Closed-form threshold exponent for the strip-comparison argument.

    sigma = 1 branch uses the resolved kappa = 2; sigma < 1 doubles the strict
    lower bound kappa > 2 sigma / (1 - sigma).
    """
    if n <= 0.0 or m <= 1.0 or not (0.0 < sigma <= 1.0):
        raise ValueError("need n > 0, m > 1 and sigma in (0, 1]")
    gradient_branch = 1.0 - 1.0 / (n * m)
    if sigma == 1.0:
        other = 1.5 - 0.5 * math.sqrt(1.0 + 2.0 / n)
    else:
        kappa = 2.0 * (2.0 * sigma / (1.0 - sigma))
        other = 0.5 * (2.0 + sigma - math.sqrt((2.0 - sigma) ** 2 + 8.0 / (n * (2.0 + kappa))))
    # strictly below 1 in exact arithmetic; keep it so at the float boundary
    return min(max(gradient_branch, other), float(np.nextafter(1.0, 0.0)))
