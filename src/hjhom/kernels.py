"""Interaction kernels K(z) = kbar(z) |z|^(-1-sigma) on the line, 1-D setting.

A kernel of order sigma in (0, 2) is described by its bounded density kbar,
normalized so that kbar(0) equals the constant that makes the constant-density
kernel act as the fractional Laplacian of order sigma, with Fourier multiplier
(2*pi*|k|)^sigma on the unit torus.

This module owns everything precomputable about a kernel: the ellipticity
audit, the modulus of continuity of kbar at 0 and its logarithmic integral,
the drift coefficient produced by an asymmetric density at sigma = 1, and the
periodized quadrature weights used by the grid operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(12)


def normalizing_constant(sigma: float) -> float:
    """Constant C such that the kernel C |z|^(-1-sigma) has multiplier (2 pi |k|)^sigma.

    Standard Gamma-function expression; validated independently by applying
    the discrete operator to cos(2 pi y) (see tests).
    """
    if not (0.0 < sigma < 2.0):
        raise ValueError(f"kernel order must lie in (0, 2), got {sigma}")
    return float(
        sigma * 2.0 ** (sigma - 1.0) * math.gamma((1.0 + sigma) / 2.0)
        / (np.pi ** 0.5 * math.gamma(1.0 - sigma / 2.0))
    )


@dataclass(frozen=True)
class KernelSpec:
    """Order sigma plus bounded density kbar (vectorized callable on z)."""

    sigma: float
    kbar: Callable[[np.ndarray], np.ndarray]
    symmetric: bool

    def __post_init__(self):
        if not (0.0 < self.sigma < 2.0):
            raise ValueError(f"kernel order must lie in (0, 2), got {self.sigma}")

    def kbar0(self) -> float:
        return float(np.asarray(self.kbar(np.array([0.0])))[0])

    def kbar_sym(self, z: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(self.kbar(z)) + np.asarray(self.kbar(-z)))

    def kbar_asym(self, z: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(self.kbar(z)) - np.asarray(self.kbar(-z)))


def constant_kernel(sigma: float) -> KernelSpec:
    c = normalizing_constant(sigma)
    return KernelSpec(sigma, lambda z: np.full_like(np.asarray(z, dtype=float), c),
                      symmetric=True)


def tilt_kernel(sigma: float, slope: float) -> KernelSpec:
    """Density C (1 + slope * z) inside the unit ball, C outside; |slope| <= 1."""
    if abs(slope) > 1.0:
        raise ValueError("tilt slope must satisfy |slope| <= 1 to keep kbar >= 0")
    c = normalizing_constant(sigma)

    def kbar(z):
        z = np.asarray(z, dtype=float)
        return c * np.where(np.abs(z) <= 1.0, 1.0 + slope * z, 1.0)

    return KernelSpec(sigma, kbar, symmetric=(slope == 0.0))


def quadratic_tilt_kernel(sigma: float, slope: float) -> KernelSpec:
    """Density C (1 + slope * z |z|) inside the unit ball, C outside."""
    if abs(slope) > 1.0:
        raise ValueError("quadratic tilt slope must satisfy |slope| <= 1")
    c = normalizing_constant(sigma)

    def kbar(z):
        z = np.asarray(z, dtype=float)
        return c * np.where(np.abs(z) <= 1.0, 1.0 + slope * z * np.abs(z), 1.0)

    return KernelSpec(sigma, kbar, symmetric=(slope == 0.0))


def kernel_from_table(sigma: float, z_vals: np.ndarray, k_vals: np.ndarray) -> KernelSpec:
    """Kernel density interpolated from (z, kbar) samples, constant beyond the range."""
    z_vals = np.asarray(z_vals, dtype=float)
    k_vals = np.asarray(k_vals, dtype=float)
    order = np.argsort(z_vals)
    z_vals, k_vals = z_vals[order], k_vals[order]

    def kbar(z):
        return np.interp(np.asarray(z, dtype=float), z_vals, k_vals)

    sym = bool(np.allclose(kbar(z_vals), kbar(-z_vals), rtol=0.0, atol=1e-14))
    return KernelSpec(sigma, kbar, symmetric=sym)


def modulus_omega_bar(k: KernelSpec, r, samples: int = 4097):
    """sup over |z| <= r of |kbar(z) - kbar(0)|, sampled at r * linspace(-1, 1, samples).

    r is one radius (a float is returned) or an array of radii (an array of
    the same shape); every radius is sampled in one call of kbar.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    z = r[..., None] * np.linspace(-1.0, 1.0, samples)
    omega = np.max(np.abs(np.asarray(k.kbar(z)) - k.kbar0()), axis=-1)
    return float(omega) if omega.ndim == 0 else omega


@dataclass(frozen=True)
class ModulusIntegralReport:
    value: float            # partial dyadic-panel sum of omega_bar(r)/r over (0, 1]
    tail_estimate: float
    finite: bool
    panels: int
    detail: str = ""


def modulus_log_integral(k: KernelSpec, panels: int = 48,
                         samples: int = 257) -> ModulusIntegralReport:
    """Adaptive dyadic quadrature of omega_bar(r)/r over (0, 1].

    Finiteness is decided from the decay of the panel increments; a
    harmonic-like signature (j * increment roughly constant) or a stalled
    geometric ratio is reported as divergent.  Sampling-budget limits are
    reported, never fatal.
    """
    hi = 2.0 ** -np.arange(panels, dtype=float)[:, None]       # panel j is [hi/2, hi]
    mid, half = 0.75 * hi, 0.25 * hi
    r = mid + half * _GAUSS_NODES
    inc = np.sum(half * _GAUSS_WEIGHTS * modulus_omega_bar(k, r, samples) / r, axis=1)
    total = float(np.sum(inc))

    tail = float(inc[-1])
    finite = True
    detail = "increments decayed"
    if inc[-1] > 1e-12 * (1.0 + total):
        window = inc[-10:]
        ratios = window[1:] / np.maximum(window[:-1], 1e-300)
        q = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
        jj = np.arange(panels - 10, panels) + 1.0
        scaled = window * jj
        harmonic_like = float(np.max(scaled) - np.min(scaled)) < 0.15 * float(np.max(scaled))
        if q >= 0.995 or harmonic_like:
            finite = False
            detail = f"panel increments not summable (ratio {q:.4f})"
            tail = float("inf")
        else:
            tail = float(inc[-1] * q / max(1.0 - q, 1e-12))
            detail = f"geometric tail (ratio {q:.4f})"
    return ModulusIntegralReport(value=total, tail_estimate=tail, finite=finite,
                                 panels=panels, detail=detail)


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    a0: float
    witness: Optional[tuple]
    kbar_bounded: bool
    kbar0_positive: bool
    kbar0_matches_normalization: bool
    modulus_integral: Optional[ModulusIntegralReport]
    messages: tuple


def audit_ellipticity(a: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      k: KernelSpec, nx: int = 512, ny: int = 512,
                      z_extent: float = 4.0, z_samples: int = 4096,
                      modulus: Optional[ModulusIntegralReport] = None) -> EllipticityReport:
    """Check uniform ellipticity of a and the structural kernel conditions.

    Returns the largest a0 with a0 <= a <= 1/a0 on the sample, or a failure
    witness.  For sigma = 1 asymmetric kernels the logarithmic modulus
    integral must be finite; `modulus` is k's modulus_log_integral when the
    caller has already taken it.
    """
    xs = np.arange(nx) / nx
    ys = np.arange(ny) / ny
    A = np.asarray(a(xs[:, None], ys[None, :]), dtype=float)
    A = np.broadcast_to(A, (nx, ny))
    messages = []

    i_min = np.unravel_index(np.argmin(A), A.shape)
    a_min = float(A[i_min])
    a_max = float(np.max(A))
    witness = None
    if a_min <= 0.0:
        witness = (float(xs[i_min[0]]), float(ys[i_min[1]]), a_min)
        messages.append(f"coefficient a vanishes or is negative at {witness}")
        a0 = 0.0
    else:
        a0 = min(a_min, 1.0 / a_max)

    z = np.linspace(-z_extent, z_extent, z_samples + 1)
    kv = np.asarray(k.kbar(z), dtype=float)
    kbar_bounded = bool(np.all(np.isfinite(kv)))
    if not kbar_bounded:
        messages.append("kbar is unbounded on the audit grid")
    k0 = k.kbar0()
    kbar0_positive = k0 > 0.0
    if not kbar0_positive:
        messages.append(f"kbar(0) = {k0} is not positive")
    c_ref = normalizing_constant(k.sigma)
    kbar0_matches = abs(k0 - c_ref) <= 1e-10 * max(1.0, abs(c_ref))
    if not kbar0_matches:
        messages.append(f"kbar(0) = {k0} differs from normalizing constant {c_ref}")

    modulus_report = None
    if k.sigma == 1.0 and not k.symmetric:
        modulus_report = modulus if modulus is not None else modulus_log_integral(k)
        if not modulus_report.finite:
            messages.append("logarithmic modulus integral diverges: " + modulus_report.detail)

    passed = (witness is None and kbar_bounded and kbar0_positive and kbar0_matches
              and (modulus_report is None or modulus_report.finite))
    return EllipticityReport(passed=passed, a0=a0, witness=witness,
                             kbar_bounded=kbar_bounded, kbar0_positive=kbar0_positive,
                             kbar0_matches_normalization=kbar0_matches,
                             modulus_integral=modulus_report, messages=tuple(messages))


@dataclass(frozen=True)
class DriftVector:
    """Limit of the truncated odd moment of kbar - kbar(0) (scalar in 1-D)."""

    b: float
    rho_sequence: tuple
    converged: bool
    residual: float


def drift_vector(k: KernelSpec, tol: float = 1e-8, max_panels: int = 60) -> DriftVector:
    """Drift coefficient b = int_0^1 (kbar(z) - kbar(-z)) / z dz, by shrinking truncation.

    Dyadic panels [2^-(j+1), 2^-j] are accumulated until successive
    truncations differ by less than tol.  Requires sigma = 1.
    """
    if k.sigma != 1.0:
        raise ValueError("drift extraction is defined for kernels of order sigma = 1")

    def g(z):
        return (np.asarray(k.kbar(z)) - np.asarray(k.kbar(-z))) / z

    total = 0.0
    rhos = [1.0]
    increment = np.inf
    for j in range(max_panels):
        lo, hi = 2.0 ** (-(j + 1)), 2.0 ** (-j)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        increment = float(np.sum(half * _GAUSS_WEIGHTS * g(mid + half * _GAUSS_NODES)))
        total += increment
        rhos.append(lo)
        if j >= 4 and abs(increment) < 0.05 * tol:
            break
    rho = rhos[-1]
    near = np.array([rho / 2.0, rho / 4.0])
    residual = float(rho * np.max(np.abs(g(near))) + abs(increment))
    return DriftVector(b=total, rho_sequence=tuple(rhos),
                       converged=residual < tol, residual=residual)


@dataclass(frozen=True)
class QuadratureTable:
    """Periodized kernel mass per node offset for grid functions on the torus.

    weights[r] multiplies u[j+r] - u[j]; it collects the symmetric kernel part
    over all periodic images (singular cell folded in by second-difference
    pairing), so weights >= 0 and the discrete operator is monotone.  An
    asymmetric density adds the signed antisym[r] coefficients plus, for
    sigma >= 1, a first-order compensator coefficient applied to a centered
    difference (comp_coeff is 0.0 when there is none).  Both parts act
    through one correlation, so the conjugate spectrum and the total mass of
    weights + antisym are kept.
    """

    n: int
    sigma: float
    weights: np.ndarray
    antisym: np.ndarray
    comp_coeff: float
    tail_mass: float
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    mass: float = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("weights", "antisym"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        coeffs = self.weights + self.antisym
        object.__setattr__(self, "spectrum", np.conj(np.fft.rfft(coeffs)))
        object.__setattr__(self, "mass", np.sum(coeffs))

    def antisym_cfl_mass(self) -> float:
        """Extra diagonal budget from the signed part, for CFL bookkeeping."""
        return float(np.sum(np.abs(self.antisym)) + abs(self.comp_coeff) * self.n)


def _cell_integrals(fun: Callable[[np.ndarray], np.ndarray],
                    lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    z = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    return np.sum(half[:, None] * _GAUSS_WEIGHTS[None, :] * fun(z), axis=1)


def periodized_weights(k: KernelSpec, n: int, image_budget: int = 16) -> QuadratureTable:
    """Build the per-offset quadrature table for grid size n.

    On each interval [mh, (m+1)h] the grid difference is linearly interpolated
    between the offsets m and m+1 (hat weights), which preserves the kernel's
    first moments and keeps every weight nonnegative.  The singular interval
    (0, h) is paired across +z/-z so only second differences meet the
    singularity.  Mass beyond image_budget periods is added analytically with
    the density frozen at its far value and spread uniformly over offsets.
    """
    if n < 8:
        raise ValueError("grid size must be at least 8")
    if image_budget < 1:
        raise ValueError("image budget must be at least 1")
    sigma = k.sigma
    h = 1.0 / n
    M = image_budget * n
    m = np.arange(1, M + 1)
    lo = m * h
    hi = (m + 1) * h

    def spread(density, sign):
        """Hat-spread the cell integrals of density(z) z^(-1-sigma) onto the
        offsets m, m + 1 and, times sign, -m, -(m + 1)."""
        def kernel(z):
            return density(z) * z ** (-1.0 - sigma)

        k0 = _cell_integrals(kernel, lo, hi)
        k1 = _cell_integrals(lambda z: kernel(z) * (z - lo[:, None]) / h, lo, hi)
        out = np.zeros(n)
        np.add.at(out, m % n, k0 - k1)
        np.add.at(out, (m + 1) % n, k1)
        np.add.at(out, (-m) % n, sign * (k0 - k1))
        np.add.at(out, (-(m + 1)) % n, sign * k1)
        return out

    weights = spread(k.kbar_sym, 1.0)

    # singular interval: int_0^h kbar_sym(z) z^(1-sigma) dz against the offset-1
    # second difference, via the regularizing substitution z = h u^(1/(2-sigma))
    beta = 1.0 / (2.0 - sigma)
    u = 0.5 + 0.5 * _GAUSS_NODES
    s_inner = h ** (2.0 - sigma) * beta * float(
        np.sum(0.5 * _GAUSS_WEIGHTS * k.kbar_sym(h * u ** beta)))
    weights[1 % n] += s_inner / h ** 2
    weights[(-1) % n] += s_inner / h ** 2

    z_far = hi[-1]
    k_far = float(k.kbar_sym(np.array([z_far]))[0])
    tail_side = k_far * z_far ** (-sigma) / sigma
    weights += 2.0 * tail_side / n

    antisym = np.zeros(n)
    comp = 0.0
    if not k.symmetric:
        antisym = spread(k.kbar_asym, -1.0)
        # inner interval: linear profile (z/h) of the one-sided difference,
        # substitution z = h u^2 regularizes kbar_asym(z) z^-sigma
        inner = float(np.sum(
            0.5 * _GAUSS_WEIGHTS * k.kbar_asym(h * u ** 2) * 2.0 * u ** (1.0 - 2.0 * sigma)))
        a_lin = h ** (-sigma) * inner
        antisym[1 % n] += a_lin
        antisym[(-1) % n] -= a_lin
        if sigma >= 1.0:
            # kappa = 2 int_0^1 kbar_asym(z) z^-sigma dz, inner piece as above
            clip_hi = np.minimum(hi, 1.0)
            keep = clip_hi > lo
            comp_cells = _cell_integrals(lambda z: k.kbar_asym(z) * z ** (-sigma),
                                         lo[keep], clip_hi[keep])
            comp = 2.0 * (float(np.sum(comp_cells)) + h ** (1.0 - sigma) * inner)

    if np.any(weights < 0.0):
        raise ValueError("negative symmetric weight; kernel density must be nonnegative")
    return QuadratureTable(n=n, sigma=sigma, weights=weights, antisym=antisym,
                           comp_coeff=comp, tail_mass=float(np.sum(weights)))
