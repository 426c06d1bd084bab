"""Long-time cross-check of the ergodic constant, a test oracle for the
discounted cell solves: it reaches the constant through the undiscounted
flow instead of the vanishing discount."""

from typing import Optional

import numpy as np

from hjhom.cell import CellConfig, CellParams
from hjhom.parabolic import NumericalFailure
from lemmas import cell_scheme, discounted_newton

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
    scheme = cell_scheme(params, cfg)
    dt = T_max / LONG_TIME_STEPS
    v = np.zeros(cfg.n)
    checkpoints = []
    next_check = T_max / 64.0
    t = 0.0
    for s in range(LONG_TIME_STEPS):
        mean_v = float(np.mean(v))
        phi, rec = discounted_newton(scheme, v, 1.0 / dt, cfg, source=(v - mean_v) / dt)
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
