import importlib
import os
import pkgutil
import tracemalloc
from pathlib import Path

# One BLAS/OpenMP thread: the dense Newton solves are small, and a pool that
# spins on a core another process holds slows them by orders of magnitude.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import hjhom
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


# the kernel order of the wavy_sweep fixture
WAVY_SWEEP_SIGMA = 1.5


@pytest.fixture(scope="session")
def wavy_sweep(eikonal_ham, wavy_a):
    """The eps = 1/4, 1/8, 1/16 sweep of the wavy model above order one, T = 0.2."""
    family = ProblemFamily(a=wavy_a, ham=eikonal_ham,
                           kernel=constant_kernel(WAVY_SWEEP_SIGMA),
                           u0_func=lambda x: np.sin(2 * np.pi * x), T=0.2,
                           effective=effective_source_from_formula(wavy_a, eikonal_ham))
    return run_sweep(family, [1 / 4, 1 / 8, 1 / 16], SweepConfig(n_per_k=16),
                     psi_provider=family.effective.corrector(WAVY_SWEEP_SIGMA, 256))


def formula_fill(a, ham):
    """Node filler for tabulate from the closed form above order one: the
    value at one (x, p, l), error 0, 'formula'."""
    form = effective_source_from_formula(a, ham)
    return lambda x, p, l: (float(form.value(np.array([x]), p, l)[0]), 0.0, "formula")


def eikonal_root(p: float) -> float:
    """H_bar of H = |p|^2 - cos(2 pi y), a = 1, l = 0 from the classical 1-D
    root condition: 1 on the flat piece |p| <= 2 sqrt(2) / pi, else the c
    with int_0^1 sqrt(c + cos(2 pi y)) dy = |p|, by adaptive quadrature."""
    if abs(p) <= 2.0 * np.sqrt(2.0) / np.pi:
        return 1.0
    F = lambda c: quad(lambda y: np.sqrt(c + np.cos(2 * np.pi * y)), 0.0, 1.0,
                       limit=200)[0] - abs(p)
    return brentq(F, 1.0, abs(p) ** 2 + 2.0, xtol=1e-12)


def trig_poly(seed: int, n: int, modes: int = 4, scale: float = 1.0) -> GridFunction:
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    vals = np.zeros(n)
    for k in range(1, modes + 1):
        vals += rng.normal() * np.cos(2 * np.pi * k * x) / k
        vals += rng.normal() * np.sin(2 * np.pi * k * x) / k
    return GridFunction(scale * vals)


def traced_peak_mb(fn) -> float:
    """Peak traced allocation while fn runs, numpy's buffers included, in MB."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Hypothesis mixes into its draws constants it collects from the local modules
# in sys.modules, so a property draws the same examples in every selection and
# order of tests only if the same modules are loaded before it runs: every
# hjhom and tests/ module is imported here, before the first test (last in
# this file, since the test modules import from it).
for _module in pkgutil.iter_modules(hjhom.__path__):
    importlib.import_module(f"hjhom.{_module.name}")
for _path in sorted(Path(__file__).parent.glob("*.py")):
    if _path.stem != "conftest":
        importlib.import_module(_path.stem)
