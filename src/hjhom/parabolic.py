"""Monotone time stepping for the oscillating and effective problems.

The update is forward Euler on a monotone spatial operator: nonnegative
quadrature weights for the nonlocal part, Godunov or Lax-Friedrichs for the
gradient part, and a CFL step chosen so every off-diagonal dependence is
nondecreasing.  The flux's dissipation theta, and with it the step, is
fitted before each step to the state's gradients rather than to an a-priori
range, and falls as they decay: monotonicity is needed only on the states the
scheme meets (Crandall-Lions 1984).  When the nonlocal term is linear and its
coefficient repeats with a short period on the grid, it is taken implicitly
instead and only the gradient part limits the step: the effective flow above
order one (one constant A, period 1) and the oscillating flow with a(x/eps)
(period n eps nodes).  A shift by the period commutes with the implicit
operator, so one rfft's half spectrum splits it into small dense Fourier
blocks.  Monotonicity buys the discrete comparison principle, the sup-norm
bound, and stability; no attempt is made at higher order.  The same scheme
object, with its Jacobian, drives the cell solver's Newton iteration.  A
time problem is a scheme, its datum and its horizon: the oscillating scheme
comes from oscillating_scheme, an effective one from its source
(hjhom.effective), and a failure that source raises in a step reaches the
caller prefixed with the step and its time.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import GridFunction, one_sided_diffs
from .hamiltonians import HamiltonianSpec, coercive_reach
from .kernels import QuadratureTable
from .operators import apply_table

# Fraction of the monotone step bound actually taken; the CFL condition of
# the difference-quadrature schemes (Biswas-Jakobsen-Karlsen 2010).
CFL_SAFETY = 0.9

# Longest period, in nodes, of a coefficient whose nonlocal term step() takes
# implicitly: each step then solves n / 2P + 1 dense P x P Fourier blocks.
MAX_PERIOD = 64

# Least factor by which fit_theta moves the Godunov flux's gradient bound G,
# up when a state outgrows it or down when the state's gradients fall well
# below it, so G (and with it theta, dt and the implicit step's block
# inverse) changes only a logarithmic number of times in a run.
GRADIENT_RISE = 2.0 ** 0.0625


class NumericalFailure(RuntimeError):
    """A computation with no usable number: a non-finite state or residual,
    an unconverged cell solve, or a query on a failed table node.  `steps`
    holds the Newton steps a cell solve took before it raised (0 where no
    Newton solve raised)."""

    def __init__(self, message: str, steps: int = 0):
        super().__init__(message)
        self.steps = steps


def godunov_power_flux(m: float, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
    """Godunov flux for q -> |q|^m (convex, minimum at 0), in one buffer."""
    out = np.negative(qr)
    return np.power(np.maximum(np.maximum(ql, out, out=out), 0.0, out=out), m, out=out)


def _node_period(a: np.ndarray) -> Optional[int]:
    """Smallest period P < n, P <= MAX_PERIOD, P dividing n, with
    a[j + P] = a[j] exactly at every node; None if there is none."""
    n = a.size
    for period in range(1, min(MAX_PERIOD, n // 2) + 1):
        if n % period == 0 and np.array_equal(a[period:], a[:-period]):
            return period
    return None


def _take(values: np.ndarray, index: tuple) -> np.ndarray:
    """values[i], conjugated where the mask is set; index = (i, mask)."""
    out = values[index[0]]
    return np.conjugate(out, out=out, where=index[1])


class MonotoneScheme:
    """One monotone discretization F of the spatial operator on n nodes.

    F(u) = const - a (I_h u - drift D u) + H(p + D u, I_h u), where I_h is the
    quadrature operator of `table`, p a frozen gradient shift (zero for the
    time problems) and D the upwind difference of the drift's sign.  The
    nonlocal value enters either through the coefficient `a` or, when `a` is
    None, as the argument l of ham(q, l) (the table-driven effective
    problems).

    The gradient term takes one of two fluxes, and theta, the bound on |dH/dp|
    over the gradients q the flux is monotone on, follows its rule.  A power
    structure H = coeff |q|^m + at_zero, both arrays over the nodes, selects
    the Godunov flux, whose theta is max coeff m G^(m-1): G starts at the
    coercive reach of the arrays and fit_theta keeps it above the larger of
    that reach and the gradients of the state about to be stepped (the cell
    Newton solver never reads it).  A table source passes ham(q, l) with
    theta(lo, hi), the bound over [lo, hi], for a Lax-Friedrichs flux; as
    built it covers every gradient.  Every scheme takes one of the two.

    Explicit steps u - dt F(u) are monotone for dt <= 1 / budget; step_dt()
    takes CFL_SAFETY of that.  The scheme is `implicit` when its nonlocal
    part is -a I_h u with a >= 0 of some period P (see _node_period), no
    drift, no compensator and nonnegative off-diagonal table coefficients.
    Then I - dt diag(a) I_h is a strictly diagonally dominant M-matrix, so
    its inverse is >= 0, and step() takes that part implicitly at the
    gradient-only step step_dt().  The operator commutes with a shift by P
    nodes (one constant a: P = 1), so in Fourier space class r, the modes
    r + K t (K = n / P, t < P), is one P x P block
    I - dt Ac diag(lam_{r + K t}), Ac[t, t'] = fft(a[:P])[(t - t') mod P] / P
    and lam the table's symbol.  Class K - r is the conjugate of class r, so
    the K/2 + 1 classes r <= K / 2 carry a real state; for P = 1 they are
    the modes 0 .. n/2, with scalar blocks and no gather or scatter.
    """

    def __init__(self, h: float, ham: Optional[Callable] = None, *,
                 power: Optional[tuple] = None,
                 theta: Optional[Callable[[float, float], float]] = None, p: float = 0.0,
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
        self._theta_of = theta
        self._grad = None         # Godunov: the gradient bound G fitted so far
        if power is not None:
            coeff, m, at_zero = power
            self._reach = coercive_reach(float(np.min(coeff)), float(np.max(np.abs(at_zero))), m)
            self.theta = self._godunov_theta(self._reach)
        else:
            self.theta = theta(-math.inf, math.inf)
        self._coupling = None     # Ac diag(lam_{r + K t}) per class r, when implicit
        self._linear_jac = None   # the state-free part of jacobian, built at its first call
        self._inverse = None      # (dt, the block inverses at dt): the last step_dt() met
        if (table is not None and a is not None and power is not None and not drift
                and table.comp_coeff == 0 and np.all(a >= 0.0)
                and np.all(table.weights + table.antisym >= 0.0)
                and (period := _node_period(a)) is not None):
            # [r, t] holds mode r + K t (r <= K / 2), above n / 2 the conjugate of
            # mode n - r - K t; back, mode j comes from its class, else from n - j's
            n, k = a.size, a.size // period       # k = K, the number of classes
            mode = np.arange(k // 2 + 1)[:, None] + k * np.arange(period)
            self._gather = (np.minimum(mode, n - mode), mode > n // 2)
            j = np.arange(n // 2 + 1)
            j = np.where(j % k <= k // 2, j, n - j)
            self._scatter = ((j % k) * period + j // k, j > n // 2)
            s = (np.arange(period)[:, None] - np.arange(period)) % period
            ac = _take(np.fft.rfft(a[:period]), (np.minimum(s, period - s), s > period // 2))
            self._coupling = ac / period * _take(table.symbol, self._gather)[:, None, :]

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
        step() takes, so a step builds them once.  The scheme needs a flux.

        With theta(lo, hi), theta is set over the range [lo, hi] of u's
        differences, p included: the flux is then monotone at u and at every
        state whose differences lie in [lo, hi].  The Godunov flux takes
        theta = max coeff m G^(m-1), with G >= max(reach, g) at every call,
        reach the coercive reach of the power arrays and g = max(|lo|, |hi|).
        G starts at max(reach, g).  A state beyond G raises it to g, by
        GRADIENT_RISE at least; a state whose g has fallen so far that
        max(reach, GRADIENT_RISE g) lies more than a factor GRADIENT_RISE
        below G lowers it to that value.  So every change of G is by
        GRADIENT_RISE at least, and theta and the step follow the state both
        ways.
        """
        diffs = one_sided_diffs(u, self.h)
        d = diffs[1]          # the backward differences take the same values
        lo, hi = self.p + float(d.min()), self.p + float(d.max())
        if self._theta_of is not None:
            self.theta = self._theta_of(lo, hi)
            return diffs
        g, grad = max(-lo, hi), self._grad
        if grad is None:
            g = max(g, self._reach)
        elif g > grad:
            g = max(g, GRADIENT_RISE * grad)
        else:
            g = max(self._reach, GRADIENT_RISE * g)
            if GRADIENT_RISE * g >= grad:
                return diffs
        self._grad = g
        self.theta = self._godunov_theta(g)
        return diffs

    def step_dt(self) -> float:
        """The step solve takes: dt budget = CFL_SAFETY for the explicit step;
        for the implicit one only the gradient part counts, dt theta / h =
        CFL_SAFETY."""
        if self._coupling is None:
            return CFL_SAFETY / (self.budget + 1e-300)
        return CFL_SAFETY / (self.theta / self.h + 1e-300)

    def step(self, u: np.ndarray, dt: float, diffs: Optional[tuple] = None) -> np.ndarray:
        """One monotone time step of length dt <= step_dt() from u; diffs are
        u's one-sided differences if the caller has them (fit_theta).

        Explicit: u - dt F(u).  Implicit: (I - dt diag(a) I_h) v = u - dt G(u),
        G the rest of F, solved between one rfft and one irfft: the half
        spectrum is gathered into the classes r <= K / 2 (for P = 1, the modes
        themselves), solved block by block and scattered back.  The inverses
        at step_dt() are kept and rebuilt when step_dt() changes, which under
        solve means G has moved; a shortened step solves and keeps nothing.
        """
        if self._coupling is None:
            f = self.residual(u, diffs)       # a new array, so updated in place
            return np.subtract(u, np.multiply(f, dt, out=f), out=f)
        rhs = self._flux(*(diffs or one_sided_diffs(u, self.h)), None)
        rhs = rhs if self.const is None else self.const + rhs
        spec = np.fft.rfft(np.subtract(u, np.multiply(rhs, dt, out=rhs), out=rhs))
        period, inverse = self._coupling.shape[1], None
        if dt != self.step_dt():
            blocks = np.eye(period) - dt * self._coupling     # solved, not kept
        else:
            if self._inverse is None or self._inverse[0] != dt:
                self._inverse = None      # one set alive at a time, also while rebuilding
                blocks = np.eye(period) - dt * self._coupling
                self._inverse = (dt, 1.0 / blocks if period == 1 else np.linalg.inv(blocks))
            inverse = self._inverse[1]
        if period == 1:
            spec *= (1.0 / blocks if inverse is None else inverse).reshape(-1)
            return np.fft.irfft(spec, n=u.size)
        spec = _take(spec, self._gather)[:, :, None]
        spec = np.linalg.solve(blocks, spec) if inverse is None else np.matmul(inverse, spec)
        return np.fft.irfft(_take(spec.reshape(-1), self._scatter), n=u.size)

    def residual(self, u: np.ndarray, diffs: Optional[tuple] = None) -> np.ndarray:
        dl, dr = one_sided_diffs(u, self.h) if diffs is None else diffs
        lv = None if self.table is None else apply_table(u, self.table)
        out = self.const
        if self.minus_a is not None and lv is not None:
            if self.drift:
                lv = lv - self.drift * (dl if self.drift > 0.0 else dr)
            nonlocal_part = self.minus_a * lv
            out = nonlocal_part if out is None else out + nonlocal_part
        flux = self._flux(dl, dr, lv)
        return flux if out is None else out + flux

    def _flux(self, dl: np.ndarray, dr: np.ndarray, lv: Optional[np.ndarray]) -> np.ndarray:
        """The numerical Hamiltonian on the one-sided differences (dl, dr)."""
        ql, qr = (self.p + dl, self.p + dr) if self.p else (dl, dr)
        if self.power is not None:
            coeff, m, at_zero = self.power
            return at_zero + coeff * godunov_power_flux(m, ql, qr)
        mid, diss = ql + qr, qr - ql
        diss *= 0.5 * self.theta
        return np.subtract(self.ham(np.multiply(mid, 0.5, out=mid), lv), diss, out=diss)

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """Dense n x n derivative of F at u, for Newton solves.

        The nonlocal value must enter through the coefficient a, as in every
        cell scheme and the closed-form effective scheme, and the flux be
        Godunov's; it is differentiated on its active one-sided difference.
        The rows sum to zero, so the constants are in the kernel.  For the
        built-in kernel families, the tilts included, every off-diagonal
        entry is <= 0 as well, so the matrix is a singular M-matrix.  The
        state-free part, -diag(a) times the quadrature circulant, is built at
        the first call and copied at every later one.
        """
        if self.ham is not None:
            raise ValueError("jacobian needs the nonlocal value to enter through a")
        n, h = u.size, self.h
        j = np.arange(n)
        up, dn = (j + 1) % n, (j - 1) % n
        if self._linear_jac is None:
            lin_jac = np.zeros((n, n))
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
                lin_jac = self.minus_a[:, None] * lin
            self._linear_jac = lin_jac
        jac = self._linear_jac.copy()
        dl, dr = one_sided_diffs(u, h)
        coeff, m, _ = self.power
        left, right = np.maximum(self.p + dl, 0.0), np.maximum(-(self.p + dr), 0.0)
        use_left = left >= right
        g = coeff * m * np.where(use_left, left, right) ** (m - 1.0) / h
        jac[j, j] += g
        jac[j, dn] -= np.where(use_left, g, 0.0)
        jac[j, up] -= np.where(use_left, 0.0, g)
        return jac


def coefficient_scheme(h: float, xs: np.ndarray, ys: np.ndarray, a: np.ndarray,
                       ham: HamiltonianSpec, **kw) -> MonotoneScheme:
    """Scheme for -a (I_h u - drift D u) + H(x, y, p + D u) at the nodes (xs, ys):
    the Godunov flux on H's power form."""
    power = (np.asarray(ham.b(xs, ys), dtype=float), ham.m,
             -np.asarray(ham.f(xs, ys), dtype=float))
    return MonotoneScheme(h, power=power, a=a, **kw)


def oscillating_scheme(eps: float, a: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       ham: HamiltonianSpec, table: QuadratureTable) -> MonotoneScheme:
    """Scheme for -a(x, x/eps) I_h u + H(x, x/eps, Du) on the table's n nodes;
    raises ValueError unless eps = 1/k for an integer k and n >= 16 k."""
    k = 1.0 / eps
    if abs(k - round(k)) > 1e-12:
        raise ValueError("eps must be the reciprocal of a positive integer")
    n, k = table.n, round(k)
    if n < 16 * k:
        raise ValueError("need n >= 16 / eps to resolve the fast variable")
    # y = x / eps mod 1 in exact integer arithmetic, so a(x, y) repeats
    # exactly every n eps nodes
    xs, ys = np.arange(n) / n, (np.arange(n) * k % n) / n
    return coefficient_scheme(1.0 / n, xs, ys, np.asarray(a(xs, ys), dtype=float), ham,
                              table=table)


class SolverConfig(NamedTuple):
    """Discretization knobs; dt is always derived from the CFL bound, and the
    flux and its dissipation from the problem data."""

    snapshots: int = 10              # recorded times beyond t = 0

    def resolved_record_times(self, T: float) -> np.ndarray:
        return np.linspace(0.0, T, self.snapshots + 1)[1:]


class ParabolicProblem(NamedTuple):
    """u_t + F(u) = 0 from u0 on [0, T], F the MonotoneScheme `scheme` on
    u0's nodes.  solve fits the scheme's theta in place, so each problem is
    solved once."""

    scheme: MonotoneScheme
    u0: GridFunction
    T: float


class Trajectory(NamedTuple):
    """A solve's recorded states and what it did to reach them.  The step
    follows the fitted theta: dt and max_dt bound the full steps, not the
    shortened ones that land on the recorded times."""

    times: np.ndarray
    snapshots: list
    sup_norm_track: np.ndarray
    dt: float              # the smallest full step taken
    steps: int             # time steps taken, the shortened ones included
    path: str              # "implicit" or "explicit": how the nonlocal term was stepped
    max_dt: float = math.nan     # the largest full step taken

    def final(self) -> GridFunction:
        return self.snapshots[-1]


def solve(problem: ParabolicProblem, cfg: SolverConfig) -> Trajectory:
    """March the problem to its horizon, recording exact snapshot times.

    Each step is MonotoneScheme.step at the scheme's step_dt(), shortened to
    land on the recorded times.  fit_theta fits theta to the state first, so
    the step follows the gradients the state has (a table's theta over their
    range, the Godunov theta by factors of GRADIENT_RISE both ways), and its
    one-sided differences serve the step as well.  The trajectory keeps the
    smallest and the largest full step (dt, max_dt).  Raises NumericalFailure
    on NaN (with the step index and time) or on a failure the source raises
    within a step (prefixed with them).
    """
    u = problem.u0.values.copy()
    scheme = problem.scheme
    dt, max_dt = math.inf, 0.0
    record = cfg.resolved_record_times(problem.T)

    t = 0.0
    times = [0.0]
    snapshots = [GridFunction(u)]
    step_index = 0
    for t_target in record:
        while t < t_target - 1e-14:
            diffs = scheme.fit_theta(u)
            full = scheme.step_dt()
            dt, max_dt = min(dt, full), max(max_dt, full)
            step = min(full, t_target - t)
            t += step
            step_index += 1
            try:
                nxt = scheme.step(u, step, diffs)
            except NumericalFailure as exc:
                raise NumericalFailure(f"at step {step_index}, t = {t:.6g}: {exc}") from None
            if not np.isfinite(nxt).all():
                raise NumericalFailure(f"non-finite state at step {step_index}, t = {t:.6g}")
            u = nxt
        times.append(t)
        snapshots.append(GridFunction(u))
    return Trajectory(times=np.array(times), snapshots=snapshots,
                      sup_norm_track=np.array([s.sup_norm() for s in snapshots]),
                      dt=dt, steps=step_index,
                      path="implicit" if scheme.implicit else "explicit", max_dt=max_dt)


def initial_layer_modulus(traj: Trajectory, u0: GridFunction) -> np.ndarray:
    """Table t -> sup_x |u(x, t) - u0(x)| over the recorded snapshots."""
    gaps = [float(np.max(np.abs(s.values - u0.values))) for s in traj.snapshots]
    return np.column_stack([traj.times, gaps])


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
