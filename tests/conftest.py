import os

# One BLAS/OpenMP thread: the dense Newton solves are small, and a pool that
# spins on a core another process holds slows them by orders of magnitude.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from hjhom.effective import effective_source_from_formula
from hjhom.grid import GridFunction
from hjhom.hamiltonians import coefficient, model_bpm
from hjhom.homogenize import ProblemFamily, SweepConfig, run_sweep
from hjhom.kernels import constant_kernel


@pytest.fixture(scope="session")
def eikonal_ham():
    # H(x, y, p) = |p|^2 - cos(2 pi y)
    return model_bpm("one", "cos_y", 2.0)


@pytest.fixture(scope="session")
def unit_a():
    return coefficient("one")


@pytest.fixture(scope="session")
def wavy_a():
    return coefficient("two_plus_cos_y")


@pytest.fixture(scope="session")
def wavy_sweep(eikonal_ham, wavy_a):
    """The eps = 1/4, 1/8, 1/16 sweep of the wavy model above order one, T = 0.2."""
    family = ProblemFamily(a=wavy_a, ham=eikonal_ham, kernel=constant_kernel(1.5),
                           u0_func=lambda x: np.sin(2 * np.pi * x), T=0.2,
                           effective=effective_source_from_formula(wavy_a, eikonal_ham))
    return run_sweep(family, [1 / 4, 1 / 8, 1 / 16], SweepConfig(n_per_k=16),
                     psi_provider=family.effective.corrector(1.5, 256))


def formula_fill(a, ham):
    """Node filler for tabulate from the closed form above order one: the
    value at one (x, p, l), error 0, 'formula'."""
    form = effective_source_from_formula(a, ham)
    return lambda x, p, l: (float(form.value(np.array([x]), p, l)[0]), 0.0, "formula")


def trig_poly(seed: int, n: int, modes: int = 4, scale: float = 1.0) -> GridFunction:
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    vals = np.zeros(n)
    for k in range(1, modes + 1):
        vals += rng.normal() * np.cos(2 * np.pi * k * x) / k
        vals += rng.normal() * np.sin(2 * np.pi * k * x) / k
    return GridFunction(scale * vals)
