import numpy as np
import pytest

from hjhom.cell import CellConfig, CellParams
from conftest import model_cells
from hjhom.effective import ClosedForm, effective_source_from_table
from hjhom.grid import GridFunction, central_diff
from hjhom.hamiltonians import coefficient, model_bpm
from hjhom.homogenize import (ProblemFamily, SweepConfig, SweepReport,
                              corrector_reconstruction, run_sweep)
from hjhom import homogenize
from hjhom.kernels import constant_kernel, periodized_weights
from hjhom.operators import apply_table
from hjhom.hamiltonians import growth_bound
from hjhom.parabolic import NumericalFailure, initial_layer_modulus
from lemmas import (barrier_bounds, convergence_rates, per_node_corrector_residual,
                    tabulate, vanishing_discount_sweep)


def _dummy_report(eps, errors):
    eps = np.asarray(eps)
    errors = np.asarray(errors)
    z = np.zeros_like(eps)
    return SweepReport(eps_list=eps, errors=errors, rates=z[:-1],
                       corrector_residuals=z, runtimes=z, ns=np.ones_like(eps, dtype=int),
                       dts=z, max_dts=z, steps=np.zeros(eps.size, dtype=int),
                       paths=("",) * eps.size,
                       coarse_nodes=np.zeros(4), u_eps_final=[], u_eff_final=np.zeros(4))


@pytest.fixture(scope="module")
def wavy_family(eikonal_ham, wavy_a):
    return ProblemFamily(a=wavy_a, ham=eikonal_ham, kernel=constant_kernel(1.5),
                         u0_func=lambda x: np.sin(2 * np.pi * x), T=0.15,
                         effective=ClosedForm(wavy_a, eikonal_ham),
                         cells=model_cells(wavy_a, eikonal_ham, 1.5))


class TestRates:
    def test_exact_geometric_sequences(self):
        slope, resid = convergence_rates(_dummy_report([1 / 4, 1 / 8, 1 / 16],
                                                       [0.4, 0.2, 0.1]))
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert resid <= 1e-12
        slope, _ = convergence_rates(_dummy_report([1 / 4, 1 / 8, 1 / 16],
                                                   [0.4, 0.1, 0.025]))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            convergence_rates(_dummy_report([1 / 4, 1 / 8], [0.4, 0.2]))


class TestControlCase:
    def test_no_oscillation_errors_identical(self):
        # y-independent data on a fixed grid: nothing to homogenize, so the
        # per-eps discrepancies coincide exactly
        ham = model_bpm("one", "constant:0.5", 2.0)
        a = coefficient("constant:1")
        family = ProblemFamily(a=a, ham=ham, kernel=constant_kernel(1.5),
                               u0_func=lambda x: np.sin(2 * np.pi * x), T=0.1,
                               effective=ClosedForm(a, ham), cells=model_cells(a, ham, 1.5))
        rep = run_sweep(family, [1 / 2, 1 / 4, 1 / 8],
                        SweepConfig(n_fixed=128, snapshots=4))
        assert np.max(rep.errors) - np.min(rep.errors) <= 1e-6
        assert np.all(rep.errors == rep.errors[0])


@pytest.fixture(scope="module")
def wavy_sweep(wavy_family):
    """(report, trajectories): the sweep and the trajectories of its solves,
    the effective one last."""
    trajectories, solve = [], homogenize.solve

    def recording(problem, cfg):
        trajectories.append(solve(problem, cfg))
        return trajectories[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homogenize, "solve", recording)
        report = run_sweep(wavy_family, [1 / 4, 1 / 8, 1 / 16],
                           SweepConfig(n_per_k=16))
    return report, trajectories


@pytest.fixture(scope="module")
def report(wavy_sweep):
    return wavy_sweep[0]


class TestWavySweep:
    def test_errors_strictly_decrease(self, report):
        assert report.errors[0] > report.errors[1] > report.errors[2]

    def test_steps_and_paths_reported(self, report, wavy_family):
        # a(x / eps) repeats every 16 nodes: each run steps -a I_h implicitly,
        # every full step in [dt, max_dt] and each recorded time shortening
        # at most one, more steps on each finer grid
        T, snapshots = wavy_family.T, SweepConfig().snapshots
        assert report.paths == ("implicit",) * 3
        assert np.all(report.steps >= np.round(T / report.max_dts))
        assert np.all(report.steps <= T / report.dts + snapshots)
        assert np.all(np.diff(report.steps) > 0)

    def test_fitted_rate_positive(self, report):
        slope, _ = convergence_rates(report)
        assert slope > 0.0

    def test_corrector_explains_part_of_the_gap(self, report):
        gap_final = np.max(np.abs(report.u_eps_final[-1] - report.u_eff_final))
        assert report.corrector_residuals[-1] < gap_final

    def test_half_relaxed_ordering_surrogate(self, report):
        lower = np.minimum.reduce(report.u_eps_final)
        assert np.all(lower <= report.u_eff_final + np.max(report.errors) + 1e-12)

    def test_corrector_residuals_are_the_per_node_loop(self, wavy_sweep, wavy_family):
        # the profiles batched once per sweep give each eps the residual of
        # the loop that solves each coarse node's profile alone, bit for bit
        report, trajectories = wavy_sweep
        u_eff = trajectories[-1].final()
        table = periodized_weights(wavy_family.kernel, u_eff.n)
        stride = u_eff.n // report.coarse_nodes.size
        p_eff = central_diff(u_eff.values, u_eff.h)[::stride]
        l_eff = apply_table(u_eff.values, table)[::stride]
        want = [per_node_corrector_residual(
            wavy_family.effective, 1.5, 256, GridFunction(final),
            GridFunction(report.u_eff_final), p_eff, l_eff, eps)
            for final, eps in zip(report.u_eps_final, report.eps_list)]
        assert np.all(np.isfinite(want))
        assert report.corrector_residuals.tolist() == want

    def test_initial_layers_dominated_by_one_modulus(self, wavy_sweep, eikonal_ham):
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 256)
        env = barrier_bounds(u0, 0.25, a_sup=3.0,
                             growth_C=growth_bound(eikonal_ham), m=2.0,
                             kernel=constant_kernel(1.5))
        oscillating = wavy_sweep[1][:-1]
        assert len(oscillating) == 3
        for layer in (initial_layer_modulus(tr, tr.snapshots[0]) for tr in oscillating):
            ts = np.array([t for t, _ in layer[1:]])
            gaps = np.array([g for _, g in layer[1:]])
            assert np.all(gaps <= env.initial_layer_bound(ts, u0, 2.0) + 1e-9)


class TestCorrectorReconstruction:
    def test_zero_profile_returns_the_gap(self):
        n = 64
        u_eps = GridFunction(np.sin(2 * np.pi * np.arange(n) / n))
        u_bar = GridFunction(np.cos(2 * np.pi * np.arange(n) / n))
        sup = corrector_reconstruction(u_eps, u_bar, np.zeros((n, 64)), 1 / 8, 1.5)
        assert sup == np.max(np.abs(u_eps.values - u_bar.values))

    def test_exponent_selector(self):
        # u_eps = u_bar: the residual is eps^max(1, sigma) times x node j's
        # mean-free profile, row j, read at y = x / eps mod 1, here node 8 j mod 64
        n = 64
        u = GridFunction(np.zeros(n))
        profile = np.cos(2 * np.pi * np.arange(64) / 64)
        profiles = (1.0 + np.arange(n) / n)[:, None] * (profile - np.mean(profile))
        corr = [profiles[j, 8 * j % 64] for j in range(n)]
        lo = corrector_reconstruction(u, u, profiles, 1 / 8, 0.5)
        hi = corrector_reconstruction(u, u, profiles, 1 / 8, 1.5)
        assert lo == (1 / 8) ** 1.0 * np.max(np.abs(corr))
        assert hi == (1 / 8) ** 1.5 * np.max(np.abs(corr))


class TestFailureHandling:
    def test_per_eps_failures_recorded_and_sweep_continues(self, monkeypatch, eikonal_ham,
                                                           unit_a):
        family = ProblemFamily(a=unit_a, ham=eikonal_ham, kernel=constant_kernel(1.5),
                               u0_func=lambda x: np.sin(2 * np.pi * x), T=0.1,
                               effective=ClosedForm(unit_a, eikonal_ham),
                               cells=model_cells(unit_a, eikonal_ham, 1.5))
        rep = run_sweep(family, [1 / 2, 1 / 4], SweepConfig(n_fixed=64, snapshots=3))
        assert rep.failures == ()
        # oscillating runs that blow up must still yield a report with the
        # failures listed; the effective run goes through
        solve, oscillating_scheme = homogenize.solve, homogenize.oscillating_scheme
        eps_of = {}           # each oscillating scheme's eps

        def tagged(eps, *args):
            scheme = oscillating_scheme(eps, *args)
            eps_of[scheme] = eps
            return scheme

        def failing(problem, cfg):
            if problem.scheme in eps_of:
                eps = eps_of[problem.scheme]
                raise NumericalFailure(f"non-finite state at step 3, eps = {eps}")
            return solve(problem, cfg)

        monkeypatch.setattr(homogenize, "oscillating_scheme", tagged)
        monkeypatch.setattr(homogenize, "solve", failing)
        rep_bad = run_sweep(family, [1 / 2, 1 / 4], SweepConfig(n_fixed=64, snapshots=3))
        assert rep_bad.failures == ((0.5, "non-finite state at step 3, eps = 0.5"),
                                    (0.25, "non-finite state at step 3, eps = 0.25"))
        assert np.all(np.isnan(rep_bad.errors))
        assert rep_bad.paths == ("", "") and np.all(rep_bad.steps == 0)
        assert np.array_equal(rep_bad.u_eff_final, rep.u_eff_final)


class TestBelowOneSweep:
    def test_errors_decrease_with_table_source(self, eikonal_ham, unit_a):
        # effective data from the first-order cell solver on a (p, l) box
        ccfg = CellConfig(n=64, tol=1e-7)

        def fill(x, p, l):
            params = CellParams(x=x, p=p, l=l, sigma=0.5, a=unit_a, ham=eikonal_ham)
            sol = vanishing_discount_sweep(params, (0.05, 0.01), ccfg)
            return sol.H_bar, sol.spread, "discount"

        table = tabulate(fill, [0.0], np.arange(-3.0, 3.01, 0.5), [-2.0, 0.0, 2.0],
                         sigma=0.5)
        family = ProblemFamily(a=unit_a, ham=eikonal_ham, kernel=constant_kernel(0.5),
                               u0_func=lambda x: 0.3 * np.sin(2 * np.pi * x), T=0.2,
                               effective=effective_source_from_table(table),
                               cells=model_cells(unit_a, eikonal_ham, 0.5, ccfg))
        rep = run_sweep(family, [1 / 4, 1 / 8], SweepConfig(n_per_k=16))
        assert rep.errors[0] > rep.errors[1]


class TestOrderOneSweep:
    def test_errors_decrease_with_table_source(self, eikonal_ham, unit_a):
        ccfg = CellConfig(n=64, tol=1e-7)

        def fill(x, p, l):
            params = CellParams(x=x, p=p, l=l, sigma=1.0, a=unit_a, ham=eikonal_ham,
                                drift_b=0.0)
            sol = vanishing_discount_sweep(params, (0.1, 0.02), ccfg)
            return sol.H_bar, sol.spread, "discount"

        table = tabulate(fill, [0.0], np.arange(-3.0, 3.01, 1.0), [-3.0, 0.0, 3.0],
                         sigma=1.0)
        family = ProblemFamily(a=unit_a, ham=eikonal_ham, kernel=constant_kernel(1.0),
                               u0_func=lambda x: 0.3 * np.sin(2 * np.pi * x), T=0.15,
                               effective=effective_source_from_table(table),
                               cells=model_cells(unit_a, eikonal_ham, 1.0, ccfg))
        rep = run_sweep(family, [1 / 4, 1 / 8], SweepConfig(n_per_k=16))
        assert rep.errors[0] > rep.errors[1]
