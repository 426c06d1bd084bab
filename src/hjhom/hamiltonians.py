"""Hamiltonians H(x, y, p) and their structural audits.

The audits are sampled, never symbolic: superlinearity in p, the two-scale
regularity increments, and the polynomial growth constant are all measured on
deterministic grids.  A failed audit is a finding for the caller (solvers
refuse to run on failed audits unless forced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class PowerForm:
    """Structure hint H = b(x, y) |p|^m - f(x, y), enabling the Godunov flux.

    b_min = min b and f_sup = sup |f| are the sampled bounds the effective
    table's coercivity audit takes.
    """

    b: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: float
    b_min: float
    f_sup: float


def coercive_reach(b_min: float, f_sup: float, m: float) -> float:
    """Gradient bound where the Godunov theta starts: b_min |q|^m <= 2 f_sup
    + 4 at steady gradients, the 4 a fixed slack."""
    return ((2.0 * f_sup + 4.0) / b_min) ** (1.0 / m)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Evaluator (x, y, p) -> H plus the constants claimed for the audits.

    m is the superlinearity exponent; (b0, C0) the claimed superlinearity
    constants; L the claimed two-scale Lipschitz constant (order-one kernels).
    """

    eval: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    m: float
    b0: float
    C0: float
    L: float = np.inf
    power_form: Optional[PowerForm] = None

    def __post_init__(self):
        if self.m <= 1.0:
            raise ValueError("superlinearity exponent must exceed 1")
        if self.b0 <= 0.0 or self.C0 < 0.0:
            raise ValueError("need b0 > 0 and C0 >= 0")

    def h_at_zero_sup(self, nx: int = 128, ny: int = 128) -> float:
        xs = np.arange(nx) / nx
        ys = np.arange(ny) / ny
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return float(np.max(np.abs(self.eval(X, Y, np.zeros_like(X)))))


def audit_periodicity(h: HamiltonianSpec, samples: int = 64,
                      p_max: float = 10.0) -> float:
    """Largest sampled |H(x, y + 1, p) - H(x, y, p)| (must vanish)."""
    xs = np.arange(samples) / samples
    ps = np.linspace(-p_max, p_max, samples + 1)
    X, Y, P = np.meshgrid(xs, xs, ps, indexing="ij")
    return float(np.max(np.abs(h.eval(X, Y + 1.0, P) - h.eval(X, Y, P))))


_COEFFICIENTS = {
    "one": lambda x, y: np.ones(np.broadcast(x, y).shape),
    "two_plus_cos_y": lambda x, y: 2.0 + np.cos(2.0 * np.pi * y) + 0.0 * x,
    "cos_y": lambda x, y: np.cos(2.0 * np.pi * y) + 0.0 * x,
    "cos_x_cos_y": lambda x, y: np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y),
}


def coefficient(spec: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Built-in coefficient by name; 'constant:c' scales the unit coefficient."""
    if spec.startswith("constant:"):
        c = float(spec.split(":", 1)[1])
        return lambda x, y: np.full(np.broadcast(x, y).shape, c)
    try:
        return _COEFFICIENTS[spec]
    except KeyError:
        raise ValueError(f"unknown coefficient '{spec}'; known: "
                         f"{sorted(_COEFFICIENTS)} or constant:<value>") from None


def model_bpm(b_spec: str, f_spec: str, m: float) -> HamiltonianSpec:
    """Built-in model H = b(x,y) |p|^m - f(x,y) with audited claim constants.

    The claimed superlinearity pair is ((m-1) min b, sup |f|), which the
    sampled audit confirms for every member of the family.
    """
    b = coefficient(b_spec)
    f = coefficient(f_spec)
    xs = np.arange(256) / 256
    B = b(xs[:, None], xs[None, :])
    F = f(xs[:, None], xs[None, :])
    b_min = float(np.min(B))
    if b_min <= 0.0:
        raise ValueError("coefficient b must be strictly positive")
    b_max, f_sup = float(np.max(B)), float(np.max(np.abs(F)))

    def H(x, y, p):
        return b(x, y) * np.abs(p) ** m - f(x, y)

    # two-scale Lipschitz surrogate: |grad_(x,y)| of b, f sampled, p-slope m b_max
    db = float(np.max(np.abs(np.gradient(B, 1.0 / 256, axis=0)))) if B.size > 1 else 0.0
    db = max(db, float(np.max(np.abs(np.gradient(B, 1.0 / 256, axis=1)))))
    df = max(float(np.max(np.abs(np.gradient(F, 1.0 / 256, axis=0)))),
             float(np.max(np.abs(np.gradient(F, 1.0 / 256, axis=1)))))
    L = max(db + df, m * b_max, 1.0)
    return HamiltonianSpec(eval=H, m=m, b0=(m - 1.0) * b_min, C0=f_sup, L=L,
                           power_form=PowerForm(b=b, f=f, m=m, b_min=b_min, f_sup=f_sup))


@dataclass(frozen=True)
class SuperlinearityAudit:
    worst_slack: float
    witness: tuple  # (x, y, p, mu) at the sampled minimum
    passed: bool


def audit_superlinearity(h: HamiltonianSpec, sample_budget: int = 64 ** 3,
                         p_max: float = 10.0) -> SuperlinearityAudit:
    """Minimum over samples of mu H(x,y,p/mu) - H(x,y,p) - (1-mu)(b0 |p|^m - C0)."""
    side = max(8, int(round(sample_budget ** (1.0 / 4.0))))
    xs = np.arange(side) / side
    ys = np.arange(side) / side
    ps = np.linspace(-p_max, p_max, side + 1)
    mus = np.linspace(1.0 / (side + 1), 1.0 - 1.0 / (side + 1), side)
    X, Y, P, MU = np.meshgrid(xs, ys, ps, mus, indexing="ij")
    slack = (MU * h.eval(X, Y, P / MU) - h.eval(X, Y, P)
             - (1.0 - MU) * (h.b0 * np.abs(P) ** h.m - h.C0))
    i = np.unravel_index(np.argmin(slack), slack.shape)
    worst = float(slack[i])
    witness = (float(X[i]), float(Y[i]), float(P[i]), float(MU[i]))
    return SuperlinearityAudit(worst_slack=worst, witness=witness,
                               passed=worst >= -1e-12)


@dataclass(frozen=True)
class RegularityAudit:
    L_x: float
    L_y: float
    L_p: float
    measured_L: float
    radii: tuple
    passed: bool
    witness: Optional[tuple]


def audit_regularity(h: HamiltonianSpec, sample_budget: int = 64 ** 3,
                     radii: tuple = (1.0, 2.0, 5.0, 10.0)) -> RegularityAudit:
    """Smallest L fitting the sampled increments
    |H(X,p)-H(X',p')| <= L (1+R^m)|X-X'| + L (1+R^(m-1))|p-p'| over |p| <= R.
    """
    side = max(8, int(round((sample_budget / len(radii)) ** (1.0 / 3.0))))
    xs = np.arange(side) / side
    ys = np.arange(side) / side
    d = 1e-5
    L_x = L_y = L_p = 0.0
    for R in radii:
        ps = np.linspace(-R, R, side)
        X, Y, P = np.meshgrid(xs, ys, ps, indexing="ij")
        base = h.eval(X, Y, P)
        gx = np.max(np.abs(h.eval(X + d, Y, P) - base)) / d
        gy = np.max(np.abs(h.eval(X, Y + d, P) - base)) / d
        gp = np.max(np.abs(h.eval(X, Y, P + d) - base)) / d
        L_x = max(L_x, float(gx) / (1.0 + R ** h.m))
        L_y = max(L_y, float(gy) / (1.0 + R ** h.m))
        L_p = max(L_p, float(gp) / (1.0 + R ** (h.m - 1.0)))
    measured = max(L_x, L_y, L_p)
    passed = measured <= h.L * (1.0 + 1e-8)
    witness = None if passed else ("measured", measured, "claimed", h.L)
    return RegularityAudit(L_x=L_x, L_y=L_y, L_p=L_p, measured_L=measured,
                           radii=radii, passed=passed, witness=witness)


def growth_bound(h: HamiltonianSpec, sample_budget: int = 64 ** 3,
                 p_max: float = 10.0) -> float:
    """Smallest sampled C with |H(x,y,p)| <= C (1 + |p|^m)."""
    side = max(8, int(round(sample_budget ** (1.0 / 3.0))))
    xs = np.arange(side) / side
    ys = np.arange(side) / side
    ps = np.linspace(-p_max, p_max, 2 * side + 1)
    X, Y, P = np.meshgrid(xs, ys, ps, indexing="ij")
    ratio = np.abs(h.eval(X, Y, P)) / (1.0 + np.abs(P) ** h.m)
    return float(np.max(ratio))


@dataclass(frozen=True)
class CoercivityCertificate:
    c_m: float
    C_m: float
    C_tilde: float
    K: float
    valid_above: float = 2.0


def coercivity_constants(m: float, b0: float, C0: float, C_grow: float,
                         K_small: float) -> CoercivityCertificate:
    """Constants making H >= C_tilde (|p|^m + 1) - K from superlinearity + growth.

    c_m and C_m bracket (1-mu)/(mu^(1-m)-1) over mu in [1/4, 1/2]; in the
    region |p| > 2 the chain
        H >= b0 c_m |p|^m - |p| (b0 C_m + C_grow + C0) + C0
    is absorbed into the final form; K_small covers |p| <= 2.
    """
    if m <= 1.0:
        raise ValueError("exponent must exceed 1")
    c_m = 0.5 / (0.25 ** (1.0 - m) - 1.0)
    C_m = 0.75 / (0.5 ** (1.0 - m) - 1.0)
    B = b0 * C_m + C_grow + C0
    C_tilde = 0.5 * b0 * c_m
    # K makes C_tilde (t^m + 1) - K sit below b0 c_m t^m - B t + C0 for all t > 0
    t_star = (B / (m * C_tilde)) ** (1.0 / (m - 1.0))
    K_large = -C_tilde * t_star ** m + B * t_star + C_tilde - C0
    K = max(K_small, K_large, 0.0)
    return CoercivityCertificate(c_m=c_m, C_m=C_m, C_tilde=C_tilde, K=K)
