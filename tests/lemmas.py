"""The paper's constructions that no command computes, kept as test oracles.

Barrier envelopes and the time sup-convolution of the comparison principle,
the localized split of the nonlocal operator and the two-scale remainder J,
the vanishing-discount ladder of the cell problem in all three regimes, with
the linear cell operator above order one that hjhom solves in closed form, the
corrector regularity ratios, the least-squares rate fit of a sweep, and its
corrector residual with each node's profile solved alone.  Beside them, the
scheme on H's power form at given nodes and the node-by-node table fill
that many tests build their tables with.
The tests check the paper's lemmas and hjhom's direct cell solvers against
them; hjhom itself never calls them.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import hjhom.cell
from hjhom.cell import (CellConfig, CellParams, _cell_scheme, cell_coefficients,
                        corrector_regularity, spectral_cell_above_one)
from hjhom.grid import GridFunction, nearest_node
from hjhom.effective import ClosedForm, EffectiveTable
from hjhom.hamiltonians import HamiltonianSpec
from hjhom.homogenize import SweepReport
from hjhom.kernels import (_GAUSS_NODES, _GAUSS_WEIGHTS, KernelSpec, constant_kernel,
                           periodized_weights)
from hjhom.operators import apply_table
from hjhom.parabolic import MonotoneScheme, NumericalFailure


# Barrier envelopes and the time sup-convolution (comparison principle).


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


# The localized split of the operator and the two-scale remainder J.


def spectral_gradient(u: GridFunction) -> GridFunction:
    """Exact derivative of a band-limited grid function."""
    freq = np.fft.rfftfreq(u.n, d=1.0 / u.n)
    fu = np.fft.rfft(u.values)
    fu *= 2j * np.pi * freq
    if u.n % 2 == 0:
        fu[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return GridFunction(np.fft.irfft(fu, n=u.n))


@dataclass(frozen=True)
class LocalizedSplit:
    """Inner (smooth-model) and outer (grid) pieces of the operator at one node."""

    delta: float
    inner: float
    outer: float
    gradient_used: float

    @property
    def total(self) -> float:
        return self.inner + self.outer


def eval_localized(u: GridFunction, phi_gradient: float, phi_curvature: float,
                   x_index: int, delta: float, k: KernelSpec,
                   image_budget: int = 16, phi_diff=None) -> LocalizedSplit:
    """Split evaluation: smooth model inside |z| < delta, grid values outside.

    The default model is the quadratic jet
    phi(x + z) = u(x) + phi_gradient z + phi_curvature z^2 / 2; passing
    phi_diff(z) = phi(x + z) - phi(x) refines it to an arbitrary smooth test
    function (the cubic-and-higher remainder is integrated by dyadic panels).
    For sigma >= 1 the inner piece subtracts the model gradient and the outer
    piece carries the compensator <p, z> on 1 >= |z| > delta with
    p = phi_gradient; for sigma < 1 no compensator appears anywhere, matching
    the full-operator convention.  Symmetric kernels skip the compensator,
    whose contribution vanishes identically for them.
    """
    n, h = u.n, u.h
    if not (0.0 < delta < 0.5):
        raise ValueError("splitting radius must lie in (0, 1/2)")
    if delta < h:
        raise ValueError("splitting radius below one grid cell")
    sigma = k.sigma
    with_comp = sigma >= 1.0

    beta = 1.0 / (2.0 - sigma)
    u_nodes = 0.5 + 0.5 * _GAUSS_NODES
    inner = 2.0 * delta ** (2.0 - sigma) * beta * 0.5 * phi_curvature * float(
        np.sum(0.5 * _GAUSS_WEIGHTS * k.kbar_sym(delta * u_nodes ** beta)))
    if not with_comp and not k.symmetric:
        z = delta * u_nodes ** 2
        inner += phi_gradient * 2.0 * float(np.sum(
            0.5 * _GAUSS_WEIGHTS * k.kbar_asym(z) * z ** (-sigma) * delta * 2.0 * u_nodes))
    if phi_diff is not None:
        # cubic-and-higher remainder of the model, O(z^3) at the origin, so a
        # small inner cut keeps float cancellation noise out of the integral
        def remainder(z):
            return (phi_diff(z) - phi_gradient * z - 0.5 * phi_curvature * z * z) \
                * np.asarray(k.kbar(z)) * np.abs(z) ** (-1.0 - sigma)

        z_cut = max(1e-7, delta * 2.0 ** -30)
        edges = [z_cut]
        while edges[-1] < delta:
            edges.append(min(2.0 * edges[-1], delta))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            zq = mid + half * _GAUSS_NODES
            inner += float(np.sum(half * _GAUSS_WEIGHTS * (remainder(zq) + remainder(-zq))))

    # outer piece: per-cell quadrature of the kernel against grid differences,
    # cells clipped to |z| > delta, periodic images up to the budget plus the
    # analytic far tail spread over the last image.
    uj = u.values[x_index]
    vals = u.values
    K = image_budget * n
    jj = np.arange(1, K + 1)
    lo = np.maximum((jj - 0.5) * h, delta)
    hi = np.maximum((jj + 0.5) * h, delta)
    keep = hi > lo
    outer = 0.0
    for sign in (+1, -1):
        diffs = vals[(x_index + sign * jj) % n] - uj

        def integrand(z, s=sign):
            return np.asarray(k.kbar(s * z)) * z ** (-1.0 - sigma)

        mid = 0.5 * (lo[keep] + hi[keep])
        half = 0.5 * (hi[keep] - lo[keep])
        zq = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
        cell_mass = np.sum(half[:, None] * _GAUSS_WEIGHTS[None, :] * integrand(zq), axis=1)
        outer += float(np.sum(cell_mass * diffs[keep]))
        if with_comp and not k.symmetric:
            clip_hi = np.minimum(hi[keep], 1.0)
            ok = clip_hi > lo[keep]
            if np.any(ok):
                midc = 0.5 * (lo[keep][ok] + clip_hi[ok])
                halfc = 0.5 * (clip_hi[ok] - lo[keep][ok])
                zc = midc[:, None] + halfc[:, None] * _GAUSS_NODES[None, :]
                first_moment = np.sum(
                    halfc[:, None] * _GAUSS_WEIGHTS[None, :] * integrand(zc) * zc, axis=1)
                outer -= float(phi_gradient * sign * np.sum(first_moment))
        z_far = hi[-1]
        k_far = float(np.asarray(k.kbar(np.array([sign * z_far])))[0])
        tail = k_far * z_far ** (-sigma) / sigma
        outer += tail * float(np.mean(vals) - uj)
    return LocalizedSplit(delta=delta, inner=inner, outer=outer,
                          gradient_used=phi_gradient)


def corrector_remainder_J(psi: GridFunction, k: KernelSpec, eps: float,
                          x_index: int, nodes_per_panel: int = 192) -> tuple[float, float]:
    """Remainder of the two-scale expansion at one node: the integral of the
    rescaled difference of psi against (kbar(eps xi) - kbar(0)) |xi|^(-1-sigma).

    The compensator inside the rescaled unit ball (radius 1/eps) is active only
    for sigma >= 1.  Differences use nearest-node values of psi (band-limited
    inputs assumed); the gradient at the base point is spectral, hence exact
    for band-limited psi.  Returns (value, quadrature error estimate).
    """
    if eps <= 0.0:
        raise ValueError("scale eps must be positive")
    sigma = k.sigma
    n, h = psi.n, psi.h
    k0 = k.kbar0()
    y = x_index / n
    psi_y = psi.values[x_index]
    dpsi_y = spectral_gradient(psi).values[x_index] if sigma >= 1.0 else 0.0
    R = 1.0 / eps

    def integrand(xi):
        dif = psi.values[nearest_node(y + xi, n)] - psi_y
        if sigma >= 1.0:
            dif = dif - np.where(np.abs(xi) <= R, dpsi_y * xi, 0.0)
        return dif * (np.asarray(k.kbar(eps * xi)) - k0) * np.abs(xi) ** (-1.0 - sigma)

    # dyadic panels from one grid cell out to the rescaled unit ball, both signs
    edges = [h]
    while edges[-1] < R:
        edges.append(min(2.0 * edges[-1], R))
    total = 0.0
    coarse = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for m, acc in ((nodes_per_panel, "fine"), (nodes_per_panel // 2, "coarse")):
            gn, gw = np.polynomial.legendre.leggauss(m)
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            xi = mid + half * gn
            piece = float(np.sum(half * gw * (integrand(xi) + integrand(-xi))))
            if acc == "fine":
                total += piece
            else:
                coarse += piece
    # innermost sliver (0, h): second differences are O(xi^2), mass negligible
    # beyond |xi| = R the density equals its far value; the surviving term is
    # the mean-field tail of psi
    k_far_p = float(np.asarray(k.kbar(np.array([1.0 + eps])))[0])
    k_far_m = float(np.asarray(k.kbar(np.array([-1.0 - eps])))[0])
    tail = ((k_far_p - k0) + (k_far_m - k0)) * (psi.mean() - psi_y) * R ** (-sigma) / sigma
    total += tail
    err = abs(total - (coarse + tail))
    return total, err


# The scheme on H's power form at given nodes and the node-by-node table
# fill: reference schemes, and the tables many tests build from a callback.


def coefficient_scheme(h: float, xs: np.ndarray, ys: np.ndarray, a: np.ndarray,
                       ham: HamiltonianSpec, **kw) -> MonotoneScheme:
    """Scheme for -a (I_h u - drift D u) + H(x, y, p + D u) at the nodes (xs, ys):
    the Godunov flux on H's power form."""
    power = (np.asarray(ham.b(xs, ys), dtype=float), ham.m,
             -np.asarray(ham.f(xs, ys), dtype=float))
    return MonotoneScheme(h, power=power, a=a, **kw)


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


def cell_a(params: CellParams, ys: np.ndarray) -> np.ndarray:
    """a at the frozen x on the cell nodes ys, where it must be positive."""
    return cell_coefficients(params.a, params.ham, np.array([[params.x]]), ys)[0][0]


# The vanishing-discount ladder of the cell problem.


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


@dataclass
class LadderSolution:
    psi: GridFunction              # corrector, normalized psi(0) = 0
    H_bar: float
    spread: float
    residuals: tuple               # (DiscountSolve, ...) per discount

    @property
    def converged(self) -> bool:
        return all(rec.converged for rec in self.residuals)


class LinearCell:
    """The cell operator above order one, F(phi) = -a l + H(y, p) - a I_h phi
    on the constant kernel's table: linear in phi, with no gradient term.
    hjhom builds no scheme for it, since its Hbar and corrector have closed
    forms.  residual and jacobian serve the ladder's Newton, `budget` (max a
    times the table's tail mass, dt <= 1 / budget) the explicit march."""

    def __init__(self, params: CellParams, cfg: CellConfig):
        n = cfg.n
        ys = np.arange(n) / n
        self.a = cell_a(params, ys)
        self.table = periodized_weights(constant_kernel(params.sigma), n)
        self.const = -self.a * params.l + params.ham.eval(np.full(n, params.x), ys,
                                                          np.full(n, params.p))
        j = np.arange(n)
        lin = self.table.weights[(j[None, :] - j[:, None]) % n]
        lin[j, j] -= self.table.mass
        self._jac = -self.a[:, None] * lin
        self.budget = float(np.max(self.a)) * self.table.tail_mass

    def residual(self, phi: np.ndarray) -> np.ndarray:
        return self.const - self.a * apply_table(phi, self.table)

    def jacobian(self, phi: np.ndarray) -> np.ndarray:
        """-diag(a) times the quadrature circulant, whatever phi; a copy."""
        return self._jac.copy()


def cell_scheme(params: CellParams, cfg: CellConfig):
    """The cell operator of the parameters' regime: LinearCell above order
    one, hjhom's ergodic scheme at order one, and below order one the
    first-order F(v) = -a l + H(y, p + Dv), with no nonlocal term."""
    if params.sigma > 1.0:
        return LinearCell(params, cfg)
    if params.sigma == 1.0:
        return _cell_scheme(params, cfg)
    n = cfg.n
    ys = np.arange(n) / n
    a_vals = cell_a(params, ys)
    return coefficient_scheme(1.0 / n, np.full(n, params.x), ys, a_vals, params.ham,
                              p=params.p, const=-a_vals * params.l)


def discounted_newton(scheme, phi: np.ndarray, delta: float,
                      cfg: CellConfig, source=0.0) -> tuple:
    """Mean-pinned Newton for delta phi + F(phi) = source + const, with a
    mean-free source; (phi, DiscountSolve).

    The step matrix is delta I plus the Jacobian plus the all-ones matrix,
    as in hjhom's ergodic Newton; at delta > 0 the border moves the step only
    by a constant, delta I plus the Jacobian is an M-matrix, and the iterates
    after the first decrease monotonically to the solution.  It stops as
    hjhom's does (tol, stagnated or budget), with delta phi added to F(phi)
    in the rounding floor.  The floor grows with phi, so the stagnated stop
    counts only while delta |phi|_inf <= 2 |F(0) - source|_inf, the
    comparison principle's bound on the solution's oscillation; a larger
    iterate raises NumericalFailure.  A NumericalFailure it raises carries
    the steps taken.
    """
    eps = np.finfo(float).eps
    diag = np.arange(phi.size)
    phi = phi - np.mean(phi)
    steps = 0
    while True:
        full = delta * phi + scheme.residual(phi) - source
        r = full - np.mean(full)
        nr = float(np.max(np.abs(r)))
        if not math.isfinite(nr):
            raise NumericalFailure(f"cell Newton produced a non-finite residual at "
                                   f"delta = {delta:g}, step {steps}", steps)
        if nr < cfg.tol:
            return phi, DiscountSolve(delta, nr, steps, "tol")
        jac = scheme.jacobian(phi)
        jac[diag, diag] += delta
        floor = hjhom.cell.ROUNDOFF_MULTIPLE * eps * (
            float(np.max(np.sum(np.abs(jac), axis=1))) * float(np.max(np.abs(phi)))
            + float(np.max(np.abs(full))))
        if nr <= floor:
            # the comparison principle bounds the solution w by max|F(0)| / delta,
            # so its mean-free part by twice that; a larger iterate blew up
            size = delta * float(np.max(np.abs(phi)))
            bound = 2.0 * float(np.max(np.abs(scheme.residual(np.zeros_like(phi)) - source)))
            if size > bound:
                raise NumericalFailure(f"cell Newton stagnated at delta = {delta:g}, step "
                                       f"{steps}, on an iterate with delta max|phi| = "
                                       f"{size:.6g} > 2 max|F(0)| = {bound:.6g}", steps)
            return phi, DiscountSolve(delta, nr, steps, "stagnated")
        if steps >= cfg.max_steps:
            return phi, DiscountSolve(delta, nr, steps, "budget")
        jac += 1.0                # the ergodic border, as a rank-one term
        phi = phi - np.linalg.solve(jac, r)
        phi -= np.mean(phi)
        steps += 1


def vanishing_discount_sweep(params: CellParams, deltas,
                             cfg: Optional[CellConfig] = None) -> LadderSolution:
    """Solve the discounted cell problem along a decreasing discount list.

    The first discount starts Newton from zero, each later one from the
    previous discount's solution.  The last discount may be 0, the ergodic
    pair itself, which is singular on the flat piece below order one.  The
    ergodic constant estimate is the midpoint of [min, max] of F(phi) at the
    last discount, max - min its error bar: at delta > 0 the
    vanishing-discount bracket of -delta phi + mean F(phi) to within the
    residual, leaving out the discount's own bias, linear in delta.
    """
    cfg = cfg or CellConfig()
    deltas = sorted(set(float(d) for d in deltas), reverse=True)
    if not deltas or not deltas[-1] >= 0.0:
        raise ValueError("discounts must not be negative")
    scheme = cell_scheme(params, cfg)
    phi = np.zeros(cfg.n)
    residuals = []
    for d in deltas:
        phi, rec = discounted_newton(scheme, phi, d, cfg)
        residuals.append(rec)
    f_phi = scheme.residual(phi)
    lo, hi = float(np.min(f_phi)), float(np.max(f_phi))
    return LadderSolution(psi=GridFunction(phi - phi[0]), H_bar=0.5 * (lo + hi),
                          spread=hi - lo, residuals=tuple(residuals))


# Regularity of the cell correctors.


def holder_quotients(psi: np.ndarray, gammas=(0.25, 0.5, 0.75, 0.9)) -> tuple:
    """((gamma, quotient), ...): the largest |psi(y + s) - psi(y)| / |s|^gamma
    over the dyadic node shifts s."""
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


@dataclass(frozen=True)
class RegularityRatios:
    psi_delta: float   # delta |psi^delta|_inf / (1 + |l| + |p|^m)
    osc: float         # osc(psi) / (1 + |p| + |l|^(1/m))
    lip: float         # Lip(psi) / (1 + |l| + |p|^m)
    flap: float        # sup |order-1 fractional Laplacian of psi| / (1+|l|+|p|^m)^m


def regularity_audit(sol: LadderSolution, params: CellParams) -> RegularityRatios:
    m = params.ham.m
    pl = 1.0 + abs(params.l) + abs(params.p) ** m
    # -delta psi^delta spans [lo, hi] = H_bar -/+ spread / 2 at the smallest
    # discount delta, so delta |psi^delta|_inf = max(|lo|, |hi|)
    lo, hi = sol.H_bar - sol.spread / 2, sol.H_bar + sol.spread / 2
    osc, lip, flap_sup = corrector_regularity(sol.psi)
    return RegularityRatios(
        psi_delta=max(abs(lo), abs(hi)) / pl,
        osc=osc / (1.0 + abs(params.p) + abs(params.l) ** (1.0 / m)),
        lip=lip / pl,
        flap=flap_sup / pl ** m,
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


# Observed convergence rate of a sweep.


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



def per_node_corrector_residual(form: ClosedForm, sigma: float, cells: int,
                                u_eps: GridFunction, u_bar: GridFunction,
                                p_vals: np.ndarray, l_vals: np.ndarray, eps: float) -> float:
    """sup |u_eps - u_bar - eps^(1 v sigma) psi(x / eps)| as a loop over the
    nodes x, each node's mean-free profile psi on `cells` cell nodes solved
    alone from the closed form's value at (x, p(x), l(x)) and read at the
    node nearest x / eps mod 1: the per-node form of the sweep's
    corrector_residual column."""
    ys = np.arange(cells) / cells
    xs = u_eps.nodes()
    corr = np.empty(u_eps.n)
    for i in range(u_eps.n):
        x, p, l = float(xs[i]), float(p_vals[i]), float(l_vals[i])
        X = np.full(cells, x)
        f = l + (form.value(X[:1], p, l)[0] - form.ham.eval(X, ys, np.full(cells, p))) / form.a(X, ys)
        psi = GridFunction(spectral_cell_above_one(sigma, f - np.mean(f)))
        corr[i] = psi.values[nearest_node((xs[i] / eps) % 1.0, cells)] - psi.mean()
    return float(np.max(np.abs(u_eps.values - u_bar.values - eps ** max(1.0, sigma) * corr)))
