"""Homogenization toolkit for nonlocal Hamilton-Jacobi equations on the 1-D torus."""

from .grid import GridFunction
from .kernels import (KernelSpec, QuadratureTable, constant_kernel, drift_vector,
                      modulus_omega_bar, normalizing_constant, periodized_weights,
                      quadratic_tilt_kernel, tilt_kernel)
from .operators import spectral_flap

__all__ = [
    "GridFunction", "KernelSpec", "QuadratureTable", "constant_kernel",
    "drift_vector", "modulus_omega_bar", "normalizing_constant",
    "periodized_weights", "quadratic_tilt_kernel", "tilt_kernel",
    "spectral_flap",
]
