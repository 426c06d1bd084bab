"""Evaluation of the nonlocal operator and its relatives on the torus.

The workhorse is the monotone quadrature route: contract a periodized weight
table against finite differences of a grid function.  A spectral route for
the pure fractional Laplacian serves as oracle and as the direct solver for
the smooth (sigma > 1) stationary problems; it is never used inside the
monotone time steppers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, central_diff
from .kernels import _GAUSS_NODES, _GAUSS_WEIGHTS, KernelSpec, QuadratureTable


def apply_table(values: np.ndarray, table: QuadratureTable) -> np.ndarray:
    """Operator values at every node, as a plain array.

    out[j] = sum_r c[r] (values[j + r] - values[j]) with c = weights + antisym,
    one FFT pair against the table's stored spectrum.  Evaluates on the
    deviation from the mean so that constants are annihilated exactly, not
    just to FFT roundoff.
    """
    if values.size != table.n:
        raise ValueError(f"table built for n = {table.n}, grid has n = {values.size}")
    dev = values - values.sum() / values.size
    out = np.fft.irfft(table.spectrum * np.fft.rfft(dev), n=values.size) - dev * table.mass
    if table.comp_coeff:
        out -= table.comp_coeff * central_diff(dev, 1.0 / table.n)
    return out


def spectral_flap(u: GridFunction, sigma: float) -> GridFunction:
    """Fractional Laplacian of order sigma via the multiplier (2 pi |k|)^sigma.

    Output has zero mean by construction (zero multiplier at mode 0).
    """
    if not (0.0 < sigma < 2.0):
        raise ValueError(f"order must lie in (0, 2), got {sigma}")
    freq = np.fft.rfftfreq(u.n, d=1.0 / u.n)  # integer wavenumbers 0..n//2
    mult = (2.0 * np.pi * freq) ** sigma
    return GridFunction(np.fft.irfft(mult * np.fft.rfft(u.values), n=u.n))


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
        dif = psi.value_near(y + xi) - psi_y
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
