"""Evaluation of the nonlocal operator and its relatives on the torus.

The workhorse is the monotone quadrature route: contract a periodized weight
table against finite differences of a grid function.  A spectral route for
the pure fractional Laplacian serves as oracle and as the direct solver for
the smooth (sigma > 1) stationary problems; it is never used inside the
monotone time steppers.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, central_diff
from .kernels import QuadratureTable


def apply_table(values: np.ndarray, table: QuadratureTable) -> np.ndarray:
    """Operator values at every node, as a plain array.

    out[j] = sum_r c[r] (values[j + r] - values[j]) with c = weights + antisym:
    one FFT pair against the table's symbol, exactly 0 at mode 0.
    """
    if values.size != table.n:
        raise ValueError(f"table built for n = {table.n}, grid has n = {values.size}")
    out = np.fft.irfft(table.symbol * np.fft.rfft(values), n=values.size)
    if table.comp_coeff:
        out -= table.comp_coeff * central_diff(values, 1.0 / table.n)
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
