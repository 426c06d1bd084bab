"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import numpy as np
import pytest

from conftest import WAVY_SWEEP_SIGMA, eikonal_root, formula_fill, trig_poly
from hjhom.cell import CellConfig, CellParams
from hjhom.effective import EffectiveTable, audit_properties, effective_source_from_formula
from hjhom.grid import GridFunction
from hjhom.hamiltonians import coefficient, coercivity_constants, model_bpm
from hjhom.homogenize import ProblemFamily, SweepConfig, run_sweep
from hjhom.kernels import (constant_kernel, drift_vector, periodized_weights,
                           quadratic_tilt_kernel, tilt_kernel)
from hjhom.operators import apply_table, spectral_flap
from hjhom.parabolic import (ParabolicProblem, SolverConfig, holder_exponent_alpha0,
                             oscillating_scheme, solve)
from lemmas import (corrector_remainder_J, sup_convolution_time, tabulate,
                    vanishing_discount_sweep)

EIKONAL = model_bpm("one", "cos_y", 2.0)      # H = |p|^2 - cos(2 pi y)
UNIT_A = coefficient("one")
WAVY_A = coefficient("two_plus_cos_y")


def _report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def eikonal_table():
    """First-order cell solves at n = 256 with discounts down to 1e-3."""
    cfg = CellConfig(n=256)

    def fill(x, p, l):
        params = CellParams(x=x, p=p, l=l, sigma=0.5, a=UNIT_A, ham=EIKONAL)
        sol = vanishing_discount_sweep(params, (0.1, 0.01, 0.001), cfg)
        return sol.H_bar, sol.spread, "discount"

    return tabulate(fill, [0.0], [0.0, 0.45, 1.2, 2.0], [-1.0, 0.0, 1.0], sigma=0.5)


@pytest.fixture(scope="module")
def order_one_solutions():
    cfg = CellConfig(n=256)
    out = {}
    for l in (-1.0, 0.0, 1.0):
        params = CellParams(x=0.0, p=0.5, l=l, sigma=1.0, a=UNIT_A, ham=EIKONAL)
        out[l] = vanishing_discount_sweep(params, (0.1, 0.05, 0.025, 0.0125), cfg)
    return out


@pytest.fixture(scope="module")
def above_one_solutions():
    cfg = CellConfig(n=256)
    out = {}
    for l in (-1.0, 0.0, 1.0):
        params = CellParams(x=0.0, p=0.5, l=l, sigma=1.5, a=UNIT_A, ham=EIKONAL)
        out[l] = vanishing_discount_sweep(params, (0.1, 0.05, 0.025, 0.0125), cfg)
    return out


@pytest.fixture(scope="module")
def formula_table():
    return tabulate(formula_fill(WAVY_A, EIKONAL), [0.0],
                    np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 5), sigma=1.5)


def test_criterion_01_eigenfunction_identity():
    n = 512
    u = np.cos(2 * np.pi * np.arange(n) / n)
    worst_quad = worst_spec = 0.0
    for sigma in (0.5, 1.0, 1.5):
        target = (2 * np.pi) ** sigma
        table = periodized_weights(constant_kernel(sigma), n)
        worst_quad = max(worst_quad,
                         np.max(np.abs(apply_table(u, table) + target * u)) / target)
        flap = spectral_flap(GridFunction(u), sigma).values
        worst_spec = max(worst_spec, np.max(np.abs(flap - target * u)) / target)
    ok = worst_quad <= 2e-2 and worst_spec <= 1e-10
    _report(1, ok, f"quadrature rel err {worst_quad:.2e} (<= 2e-2), "
                   f"spectral {worst_spec:.2e} (<= 1e-10)")


def test_criterion_02_drift_oracle():
    b_tilt = drift_vector(tilt_kernel(1.0, 0.5), tol=1e-8).b
    b_sym = drift_vector(constant_kernel(1.0), tol=1e-10).b
    b_quad = drift_vector(quadratic_tilt_kernel(1.0, 0.5), tol=1e-8).b
    e1 = abs(b_tilt - 1.0 / np.pi)
    e2 = abs(b_sym)
    e3 = abs(b_quad - 1.0 / (2.0 * np.pi))
    ok = e1 <= 1e-6 and e2 <= 1e-12 and e3 <= 1e-6
    _report(2, ok, f"tilt err {e1:.1e} (<= 1e-6), symmetric {e2:.1e} (<= 1e-12), "
                   f"quadratic err {e3:.1e} (<= 1e-6)")


def test_criterion_03_eikonal_cell(eikonal_table):
    vals = {p: eikonal_table.values[0, j, 1]
            for j, p in enumerate(eikonal_table.ps)}       # l = 0 column
    e_zero = abs(vals[0.0] - 1.0)
    e_flat = abs(vals[0.45] - 1.0)
    e_root = max(abs(vals[1.2] - eikonal_root(1.2)), abs(vals[2.0] - eikonal_root(2.0)))
    ok = e_zero <= 5e-3 and e_flat <= 5e-3 and e_root <= 1e-2
    _report(3, ok, f"|Hbar(0,0)-1| = {e_zero:.1e} (<= 5e-3), flat piece at 0.45: "
                   f"{e_flat:.1e} (<= 5e-3), beyond threshold: {e_root:.1e} (<= 1e-2)")


def test_criterion_04_fredholm_oracle():
    params = CellParams(x=0.0, p=1.0, l=0.0, sigma=1.5, a=WAVY_A, ham=EIKONAL)
    sol = vanishing_discount_sweep(
        params, (0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125, 0.0015625, 0.001),
        CellConfig(n=256))
    target = 3.0 - np.sqrt(3.0)
    gap = abs(sol.H_bar - target)
    ok = gap <= 1e-2 and gap <= max(sol.spread, 1e-12) and abs(target - 1.2679) < 1e-4
    _report(4, ok, f"|Hbar - 1.2679| = {gap:.2e} (<= 1e-2 and <= spread "
                   f"{sol.spread:.2e})")


def test_criterion_05_constant_coefficient_shift(eikonal_table, order_one_solutions,
                                                 above_one_solutions):
    worst = 0.0
    detail = []
    # order below one: table column at p = 0.45, a0 = 1
    j = list(eikonal_table.ps).index(0.45)
    base = eikonal_table.values[0, j, 1]
    for k, l in enumerate(eikonal_table.ls):
        gap = abs(eikonal_table.values[0, j, k] - base + 1.0 * l)
        allowed = 2.0 * max(eikonal_table.err[0, j, k], 1e-12)
        worst = max(worst, gap / allowed)
        detail.append(f"s<1 l={l:+.0f}: {gap:.1e}")
    for name, sols in (("s=1", order_one_solutions), ("s>1", above_one_solutions)):
        for l in (-1.0, 1.0):
            gap = abs(sols[l].H_bar - sols[0.0].H_bar + 1.0 * l)
            allowed = 2.0 * max(sols[l].spread, 1e-12)
            worst = max(worst, gap / allowed)
            detail.append(f"{name} l={l:+.0f}: {gap:.1e}")
    ok = worst <= 1.0
    _report(5, ok, f"worst gap/(2 spread) = {worst:.3f} (<= 1); " + ", ".join(detail))


def test_criterion_06_monotone_in_l(eikonal_table, formula_table,
                                    order_one_solutions):
    order_one_table = EffectiveTable(
        xs=np.array([0.0]), ps=np.array([0.5]), ls=np.array([-1.0, 0.0, 1.0]),
        values=np.array([[[order_one_solutions[l].H_bar for l in (-1.0, 0.0, 1.0)]]]),
        err=np.array([[[order_one_solutions[l].spread for l in (-1.0, 0.0, 1.0)]]]),
        provenance=np.full((1, 1, 3), "discount", dtype=object), sigma=1.0)
    counts = []
    for table in (eikonal_table, formula_table, order_one_table):
        audit = audit_properties(table, b0=1.0, C=1.0,
                                 a_sup=3.0 if table is formula_table else 1.0, m=2.0)
        counts.append(audit.monotone_violations)
    ok = all(c == 0 for c in counts)
    _report(6, ok, f"monotone violations per table {counts} (all must be 0)")


def test_criterion_07_maximum_bound_and_comparison():
    # sup bound on the oscillating model run
    n, T = 128, 0.5
    kernel = constant_kernel(1.5)
    table = periodized_weights(kernel, n)
    u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
    prob = ParabolicProblem(oscillating_scheme(1 / 8, WAVY_A, EIKONAL, table), u0, T)
    traj = solve(prob, SolverConfig())
    bound = 1.0 + 1.0 * T + 1e-8
    sup_ok = bool(np.all(traj.sup_norm_track <= 1.0 + 1.0 * traj.times + 1e-8))

    # discrete comparison on ten seeded ordered pairs; every run also obeys
    # its own a-priori sup bound
    kernel1 = constant_kernel(1.0)
    table1 = periodized_weights(kernel1, 64)
    rng = np.random.default_rng(2024)
    comparisons_ok = True
    for _ in range(10):
        lo = trig_poly(int(rng.integers(1 << 30)), 64, scale=0.5)
        hi = GridFunction(lo.values + np.abs(trig_poly(int(rng.integers(1 << 30)), 64).values))
        cfg = SolverConfig(snapshots=4)
        t_lo, t_hi = (solve(ParabolicProblem(oscillating_scheme(1 / 4, UNIT_A, EIKONAL, table1),
                                             u0, 0.1), cfg) for u0 in (lo, hi))
        for tr, u0_run in ((t_lo, lo), (t_hi, hi)):
            sup_ok &= bool(np.all(tr.sup_norm_track
                                  <= u0_run.sup_norm() + 1.0 * tr.times + 1e-8))
        for a_snap, b_snap in zip(t_lo.snapshots, t_hi.snapshots):
            comparisons_ok &= bool(np.all(a_snap.values <= b_snap.values + 1e-12))
    ok = sup_ok and comparisons_ok
    _report(7, ok, f"sup {np.max(traj.sup_norm_track):.6f} <= {bound:.6f}; "
                   f"10/10 ordered pairs stay ordered: {comparisons_ok}")


def test_criterion_08_homogenization_sweep(wavy_sweep):
    e = wavy_sweep.errors
    decreasing = e[0] > e[1] > e[2]

    ham = model_bpm("one", "constant:0.5", 2.0)
    a = coefficient("constant:1")
    control = ProblemFamily(a=a, ham=ham, kernel=constant_kernel(1.5),
                            u0_func=lambda x: np.sin(2 * np.pi * x), T=0.2,
                            effective=effective_source_from_formula(a, ham))
    crep = run_sweep(control, [1 / 4, 1 / 8, 1 / 16], SweepConfig(n_fixed=256))
    control_spread = float(np.max(crep.errors) - np.min(crep.errors))
    ok = decreasing and control_spread <= 1e-6
    _report(8, ok, f"errors {np.array2string(e, precision=4)} strictly decreasing: "
                   f"{decreasing}; control spread {control_spread:.1e} (<= 1e-6)")


def test_criterion_09_remainder_drift():
    # the criterion as issued reads |J - b Dpsi|; the definitions of the
    # remainder, the difference quotient and the odd-moment coefficient force
    # the opposite orientation J -> -b Dpsi (the rescaling identity test pins
    # it), so the drift match is asserted in the sign-consistent form
    psi = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 4096)
    b = drift_vector(tilt_kernel(1.0, 0.5), tol=1e-8).b
    J1, _ = corrector_remainder_J(psi, tilt_kernel(1.0, 0.5), 1e-3, 0)
    gap1 = abs(J1 + b * 2.0 * np.pi)
    J05, _ = corrector_remainder_J(psi, tilt_kernel(0.5, 0.5), 1e-3, 0)
    gap05 = abs(J05)
    ok = gap1 <= 5e-2 and gap05 <= 5e-2
    _report(9, ok, f"order one: |J + b Dpsi| = {gap1:.2e} (<= 5e-2, sign-consistent "
                   f"form); order 1/2: |J| = {gap05:.2e} (<= 5e-2)")


def test_criterion_10_sup_convolution():
    n, T = 64, 0.3
    kernel = constant_kernel(1.0)
    table = periodized_weights(kernel, n)
    u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
    prob = ParabolicProblem(oscillating_scheme(1 / 4, UNIT_A, EIKONAL, table), u0, T)
    traj = solve(prob, SolverConfig(snapshots=12))
    u = np.column_stack([s.values for s in traj.snapshots])
    gamma = 0.5
    out, lip = sup_convolution_time(u, traj.times, gamma)
    dominates = bool(np.all(out >= u - 1e-15))
    lip_ok = lip <= 4.0 * np.max(np.abs(u)) / np.sqrt(gamma) + 1e-12
    brute_ok = True
    for i in range(u.shape[0]):
        for t_idx in range(traj.times.size):
            brute = max(u[i, s] - (traj.times[s] - traj.times[t_idx]) ** 2 / gamma
                        for s in range(traj.times.size))
            brute_ok &= out[i, t_idx] == brute
    ok = dominates and lip_ok and brute_ok
    _report(10, ok, f"dominates: {dominates}; lip {lip:.3f} <= "
                    f"{4 * np.max(np.abs(u)) / np.sqrt(gamma):.3f}; "
                    f"brute force identical: {brute_ok}")


def test_criterion_11_closed_form_constants():
    a1 = holder_exponent_alpha0(1.0, 1.0, 2.0)
    a2 = holder_exponent_alpha0(2.0, 1.0, 2.0)
    cert = coercivity_constants(2.0, 1.0, 1.0, 1.0, 0.0)
    from fractions import Fraction
    ok = (abs(a1 - 0.63397) <= 1e-5 and abs(a2 - 0.79289) <= 1e-5
          and cert.c_m == float(Fraction(1, 6)) and cert.C_m == float(Fraction(3, 4)))
    _report(11, ok, f"alpha0 = {a1:.6f}, {a2:.6f}; c_2 = {cert.c_m} (= 1/6), "
                    f"C_2 = {cert.C_m} (= 3/4)")


def test_criterion_12_corrector_ansatz(wavy_sweep):
    gap_final = float(np.max(np.abs(wavy_sweep.u_eps_final[-1] - wavy_sweep.u_eff_final)))
    resid = float(wavy_sweep.corrector_residuals[-1])
    ok = resid < gap_final
    _report(12, ok, f"sup residual {resid:.2e} < sup gap {gap_final:.2e} at eps = 1/16 "
                    f"(exponent {max(1.0, WAVY_SWEEP_SIGMA)})")
