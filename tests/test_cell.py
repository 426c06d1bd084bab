import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eikonal_root, traced_peak_mb
import hjhom.cell
from hjhom.cell import (CellConfig, CellParams, corrector_below_one, corrector_regularity,
                        formula_below_one, regime_of, solve_ergodic_pair,
                        spectral_cell_above_one)
from hjhom.effective import EffectiveTable, audit_properties
from hjhom.grid import GridFunction
from hjhom.hamiltonians import coefficient, model_bpm
from hjhom.kernels import constant_kernel, drift_vector, tilt_kernel
from hjhom.operators import spectral_flap
from hjhom.parabolic import CFL_SAFETY, NumericalFailure
from lemmas import (cell_scheme, discounted_newton, holder_quotients, regularity_audit,
                    regularity_sweep_audit, vanishing_discount_sweep)
from long_time import long_time_average

FAST = CellConfig(n=128, tol=1e-9)
DELTAS = (0.1, 0.05, 0.025, 0.0125)
WAVY = coefficient("two_plus_cos_y")


def discount_trace(params: CellParams, deltas, cfg: CellConfig) -> list:
    """((delta, lo, hi), ...): [lo, hi] = H_bar -/+ spread / 2 of the sweep
    over each prefix deltas[:k] of the ladder, whose last discount's iterate
    is the whole ladder's at that discount."""
    out = []
    for k in range(1, len(deltas) + 1):
        sol = vanishing_discount_sweep(params, deltas[:k], cfg)
        out.append((deltas[k - 1], sol.H_bar - sol.spread / 2, sol.H_bar + sol.spread / 2))
    return out


def march_oracle(params: CellParams, deltas, n: int, tol: float = 1e-11) -> tuple:
    """(H_bar, spread) by explicit monotone steps to steady state, mean pinned."""
    scheme = cell_scheme(params, CellConfig(n=n))
    phi = np.zeros(n)
    for d in deltas:
        dt = CFL_SAFETY / (scheme.budget + d)
        for _ in range(2_000_000):
            r = d * phi + scheme.residual(phi)
            r -= np.mean(r)
            if np.max(np.abs(r)) < tol:
                break
            phi = phi - dt * r
            phi -= np.mean(phi)
        else:
            raise AssertionError(f"oracle march did not reach {tol} at delta = {d}")
    minus_dpsi = -deltas[-1] * phi + np.mean(scheme.residual(phi))
    lo, hi = float(np.min(minus_dpsi)), float(np.max(minus_dpsi))
    return 0.5 * (lo + hi), hi - lo


class TestRegimes:
    def test_dispatch(self):
        assert regime_of(0.5) == "below_one"
        assert regime_of(1.0) == "equal_one"
        assert regime_of(1.5) == "above_one"


class TestSlowDataIsExact:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_constant_cell_data(self, sigma):
        # y-independent data: psi = 0 and the constant is -a l + H(x, p), for
        # every discount, with zero spread
        ham = model_bpm("constant:2.0", "constant:0.3", 2.0)
        params = CellParams(x=0.0, p=0.7, l=0.4, sigma=sigma,
                            a=coefficient("constant:1.5"), ham=ham)
        sol = vanishing_discount_sweep(params, DELTAS, FAST)
        expect = -1.5 * 0.4 + 2.0 * 0.7 ** 2 - 0.3
        assert sol.H_bar == pytest.approx(expect, abs=1e-12)
        assert sol.spread <= 1e-12
        assert sol.psi.sup_norm() <= 1e-12
        for d, lo, hi in discount_trace(params, DELTAS, FAST):
            assert lo == pytest.approx(expect, abs=1e-12)
            assert hi == pytest.approx(expect, abs=1e-12)


class TestEikonalCell:
    def test_flat_piece_value(self, eikonal_ham, unit_a):
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, DELTAS, FAST)
        assert sol.converged
        assert sol.H_bar == pytest.approx(1.0, abs=1e-2)

    def test_corrector_shape_and_lipschitz(self, eikonal_ham, unit_a):
        # the flat-piece corrector is -(sqrt2/pi) sin(pi y) up to a constant,
        # with a single downward kink at the origin and |psi'| <= sqrt 2
        n = 128
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, DELTAS, CellConfig(n=n))
        ys = np.arange(n) / n
        closed = -np.sqrt(2.0) / np.pi * np.sin(np.pi * ys)
        assert sol.psi.values[0] == 0.0
        assert np.max(np.abs(sol.psi.values - closed)) <= 0.05
        osc, lip, _ = corrector_regularity(sol.psi)
        assert lip == pytest.approx(np.sqrt(2.0), abs=0.05)
        assert osc == pytest.approx(np.sqrt(2.0) / np.pi, abs=0.03)
        # Lipschitz profiles keep every Holder quotient below the slope bound
        for gamma, quotient in holder_quotients(sol.psi.values):
            assert quotient <= lip * 0.5 ** (1.0 - gamma) + 1e-9

    def test_beyond_threshold_matches_root(self, eikonal_ham, unit_a):
        params = CellParams(x=0.0, p=1.4, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, (0.1, 0.01), FAST)
        assert sol.H_bar == pytest.approx(eikonal_root(1.4), abs=1e-2)

    def test_step_budget_exhaustion_is_diagnosed(self, eikonal_ham, unit_a):
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, (0.1,), CellConfig(n=128, max_steps=1))
        assert not sol.converged
        assert sol.residuals[0][1] > 1e-9
        assert sol.residuals[0][2] == 1
        assert sol.residuals[0].reason == "budget"

    def test_roundoff_floor_stops_as_stagnated(self, eikonal_ham, unit_a):
        # tol 0 is out of reach: each discount stops at the rounding floor,
        # long before the cap, and counts as converged
        params = CellParams(x=0.0, p=0.45, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, (0.1, 0.01), CellConfig(n=128, tol=0.0))
        assert sol.converged
        for rec in sol.residuals:
            assert rec.reason == "stagnated"
            assert rec[1] <= 1e-11 and rec[2] <= 50

    def test_stagnated_stop_needs_the_comparison_bound(self, eikonal_ham, unit_a,
                                                       monkeypatch):
        # with the rounding floor made huge every iterate stops at once; the
        # bound delta max|phi| <= 2 max|F(0)| (about 2.4 here) takes zero and
        # refuses an iterate of oscillation 2000 at delta = 0.1
        monkeypatch.setattr(hjhom.cell, "ROUNDOFF_MULTIPLE", 1e300)
        params = CellParams(x=0.0, p=0.45, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        cfg = CellConfig(n=64, tol=0.0)
        scheme = cell_scheme(params, cfg)
        _, rec = discounted_newton(scheme, np.zeros(64), 0.1, cfg)
        assert (rec.reason, rec[2]) == ("stagnated", 0)
        blown_up = 1e3 * np.cos(2 * np.pi * np.arange(64) / 64)
        with pytest.raises(NumericalFailure, match=r"stagnated at delta = 0\.1, step 0, "
                                                   r".* = 100 > 2 max\|F\(0\)\| = 2\.4"):
            discounted_newton(scheme, blown_up, 0.1, cfg)

    @pytest.mark.parametrize("p", [0.0, 0.45, 1.2, 2.0])
    def test_fine_grid_small_discount(self, p, eikonal_ham, unit_a):
        # n = 512 with discounts to 1e-3: far past the explicit march's budget,
        # within the tolerances of acceptance criterion 03
        params = CellParams(x=0.0, p=p, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, (0.1, 0.01, 0.001), CellConfig(n=512))
        assert sol.converged
        assert all(rec.reason == "tol" for rec in sol.residuals)
        tol = 5e-3 if p < 2.0 * np.sqrt(2.0) / np.pi else 1e-2
        assert abs(sol.H_bar - eikonal_root(p)) <= tol

    def test_discount_trace_tightens(self, eikonal_ham, unit_a):
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        spreads = [hi - lo for _, lo, hi in discount_trace(params, DELTAS, FAST)]
        for a, b in zip(spreads, spreads[1:]):
            assert b <= a + 1e-12


class TestFormulaBelowOne:
    """The one-dimensional cell formula below order one."""

    @pytest.mark.parametrize("p", [0.0, 0.45, -0.9, 0.95, 1.2, -1.6, 2.0, 4.5])
    def test_matches_the_eikonal_root(self, eikonal_ham, p):
        # b = a = 1, m = 2, l = 0: the flat piece and the root beyond it
        got = float(formula_below_one(coefficient("one"), eikonal_ham, 0.0, p, 0.0))
        assert abs(got - eikonal_root(p)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
    def test_discrete_solve_within_its_spread(self, p, l):
        # a non-constant b: the n = 256 discrete solve against the formula
        ham = model_bpm("two_plus_cos_y", "cos_y", 2.0)
        params = CellParams(x=0.0, p=p, l=l, sigma=0.5, a=WAVY, ham=ham)
        sol = vanishing_discount_sweep(params, (0.1, 0.01, 0.001), CellConfig(n=256))
        assert sol.converged
        exact = float(formula_below_one(WAVY, ham, 0.0, p, l))
        assert abs(sol.H_bar - exact) <= sol.spread + 1e-5

    def test_each_value_is_the_value_alone(self):
        # 512 nodes give blocks of 32 queries; no value depends on its block
        ham = model_bpm("two_plus_cos_y", "cos_x_cos_y", 3.0)
        a = lambda x, y: 2.0 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        X, P, L = np.meshgrid([0.0, 0.3], np.linspace(-3.0, 3.0, 13), [-1.0, 0.0, 0.7],
                              indexing="ij")
        got = formula_below_one(a, ham, X, P, L, nodes=512)
        alone = np.vectorize(lambda x, p, l: float(
            formula_below_one(a, ham, x, p, l, nodes=512)))(X, P, L)
        assert np.array_equal(got, alone)

    def test_table_passes_the_property_audit(self, eikonal_ham):
        xs, ps, ls = np.array([0.0]), np.linspace(-4.0, 4.0, 17), np.linspace(-3.0, 3.0, 7)
        values = formula_below_one(WAVY, eikonal_ham, 0.0, ps[:, None], ls)[None]
        table = EffectiveTable(xs=xs, ps=ps, ls=ls, values=values,
                               err=np.zeros_like(values),
                               provenance=np.full(values.shape, "formula", dtype=object),
                               sigma=0.5)
        audit = audit_properties(table, b0=1.0, C=1.0, a_sup=3.0, m=2.0)
        assert audit.passed and np.all(np.diff(values, axis=2) < 0.0)
        assert np.array_equal(values, values[:, ::-1])        # even in p

    def test_traced_peak_of_a_large_table(self, eikonal_ham):
        # 1,024 queries on 2,048 nodes peaked near 113 MB in one block
        P, L = np.meshgrid(np.linspace(-5.0, 5.0, 32), np.linspace(-3.0, 3.0, 32))
        assert traced_peak_mb(lambda: formula_below_one(WAVY, eikonal_ham, 0.0, P, L)) < 4.0


class TestCorrectorBelowOne:
    """hjhom cell's corrector below order one, a cumulative sum of the cell
    formula's slopes on the cell nodes."""

    @pytest.mark.parametrize("a_name", ["one", "two_plus_cos_y"])
    @pytest.mark.parametrize("p", [0.0, 0.45, -0.45, 1.2])
    def test_closes_and_matches_the_ladder(self, eikonal_ham, a_name, p):
        # the mean-free sup gap to the ladder's corrector at discounts down to
        # 1e-3 is first order in the cell step: it halves from n = 128 to 256
        for l in (0.0, 0.5):
            params = CellParams(x=0.0, p=p, l=l, sigma=0.5, a=coefficient(a_name),
                                ham=eikonal_ham)
            gaps = []
            for n in (128, 256):
                psi = corrector_below_one(params, n)
                assert psi.size == n + 1 and psi[0] == 0.0
                assert abs(psi[-1] - psi[0]) <= 1e-12
                ladder = vanishing_discount_sweep(params, (0.1, 0.01, 0.001),
                                                  CellConfig(n=n)).psi.values
                gaps.append(np.max(np.abs((psi[:-1] - np.mean(psi[:-1]))
                                          - (ladder - np.mean(ladder)))))
            assert gaps[0] <= 1.2e-2 and gaps[0] >= 1.8 * gaps[1]

    @pytest.mark.parametrize("p, switches", [(0.45, 1), (-0.6, 1), (1.2, 0), (-2.0, 0)])
    def test_solves_the_cell_problem_off_the_switch(self, p, switches):
        # b |p + psi'|^m - g is the formula's Hbar on those nodes on every node
        # interval but the one where s switches inside the flat piece, |p| <= 0.69
        n, l = 64, 0.3
        ham = model_bpm("two_plus_cos_y", "cos_y", 2.0)
        params = CellParams(x=0.0, p=p, l=l, sigma=0.5, a=WAVY, ham=ham)
        ys = np.arange(n) / n
        q = p + np.diff(corrector_below_one(params, n)) * n
        hbar = float(formula_below_one(WAVY, ham, 0.0, p, l, nodes=n))
        gap = ham.b(0.0, ys) * np.abs(q) ** 2 - ham.f(0.0, ys) - WAVY(0.0, ys) * l - hbar
        assert np.count_nonzero(np.abs(gap) > 1e-9) == switches

    @pytest.mark.parametrize("p", [0.0, 0.7])
    def test_slow_data_give_a_zero_corrector(self, p):
        # y-independent data: w is constant, and zero where the flat piece
        # is the one point p = 0
        params = CellParams(x=0.0, p=p, l=0.4, sigma=0.5, a=coefficient("constant:1.5"),
                            ham=model_bpm("constant:2.0", "constant:0.3", 2.0))
        assert np.max(np.abs(corrector_below_one(params, 64))) <= 1e-12


class TestFractionalCell:
    def test_matches_closed_form(self, eikonal_ham, wavy_a):
        params = CellParams(x=0.0, p=1.0, l=0.0, sigma=1.5, a=wavy_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, DELTAS, FAST)
        assert sol.converged
        assert sol.H_bar == pytest.approx(3.0 - np.sqrt(3.0), abs=5e-3)
        assert abs(sol.H_bar - (3.0 - np.sqrt(3.0))) <= sol.spread

    def test_symmetric_kernel_drift_is_inert(self, eikonal_ham, unit_a):
        # drift coefficient of a symmetric density is zero, so forcing it to
        # zero changes nothing
        b = drift_vector(constant_kernel(1.0), tol=1e-10).b
        base = CellParams(x=0.0, p=0.5, l=0.0, sigma=1.0, a=unit_a,
                          ham=eikonal_ham, drift_b=b)
        forced = CellParams(x=0.0, p=0.5, l=0.0, sigma=1.0, a=unit_a,
                            ham=eikonal_ham, drift_b=0.0)
        s1 = vanishing_discount_sweep(base, (0.1, 0.05), FAST)
        s2 = vanishing_discount_sweep(forced, (0.1, 0.05), FAST)
        assert s1.H_bar == pytest.approx(s2.H_bar, abs=1e-10)

    def test_asymmetric_drift_shifts_the_constant(self, eikonal_ham, unit_a):
        b = drift_vector(tilt_kernel(1.0, 0.5), tol=1e-8).b
        with_drift = CellParams(x=0.0, p=0.5, l=0.0, sigma=1.0, a=unit_a,
                                ham=eikonal_ham, drift_b=b)
        without = CellParams(x=0.0, p=0.5, l=0.0, sigma=1.0, a=unit_a,
                             ham=eikonal_ham, drift_b=0.0)
        s1 = vanishing_discount_sweep(with_drift, (0.1, 0.05), FAST)
        s2 = vanishing_discount_sweep(without, (0.1, 0.05), FAST)
        assert abs(s1.H_bar - s2.H_bar) > 1e-3


class TestNewtonAgainstMarch:
    @pytest.mark.parametrize("sigma, p, drift", [(0.5, 0.45, False), (0.5, 1.2, False),
                                                  (1.0, 0.5, True), (1.5, 1.0, False)])
    def test_matches_march_oracle(self, sigma, p, drift, eikonal_ham, wavy_a):
        b = drift_vector(tilt_kernel(1.0, 0.5), tol=1e-8).b if drift else 0.0
        params = CellParams(x=0.0, p=p, l=0.3, sigma=sigma, a=wavy_a, ham=eikonal_ham,
                            drift_b=b)
        deltas = (0.1, 0.05)
        sol = vanishing_discount_sweep(params, deltas, CellConfig(n=64, tol=1e-11))
        H_march, spread_march = march_oracle(params, deltas, 64)
        assert sol.converged
        assert abs(sol.H_bar - H_march) <= 1e-8
        assert abs(sol.spread - spread_march) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_order_one_tilt_exact_column(self, p, eikonal_ham, wavy_a):
        # l = -1 with a = 2 + cos: -a l cancels the forcing, so psi = 0 and
        # H_bar = 2 + p^2 with no Newton step at all
        b = drift_vector(tilt_kernel(1.0, 0.5), tol=1e-8).b
        params = CellParams(x=0.0, p=p, l=-1.0, sigma=1.0, a=wavy_a, ham=eikonal_ham,
                            drift_b=b)
        sol = vanishing_discount_sweep(params, (0.1, 0.05, 0.025, 0.0125),
                                       CellConfig(n=256))
        assert abs(sol.H_bar - (2.0 + p * p)) <= 1e-12
        assert all(rec[2] == 0 for rec in sol.residuals)


class TestErgodicPair:
    """Zero discount: Newton on F(phi) = Hbar, mean phi = 0, where the
    Jacobian couples the whole cell."""

    @pytest.mark.parametrize("slope", [0.3, 0.5])
    def test_matches_the_ladder_richardson_value(self, slope, eikonal_ham, wavy_a):
        # the ladder's bias is linear in delta: 2 Hbar(delta / 2) - Hbar(delta)
        # at delta = 1e-3 removes it
        b = drift_vector(tilt_kernel(1.0, slope), tol=1e-8).b
        for p, l in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)):
            params = CellParams(x=0.0, p=p, l=l, sigma=1.0, a=wavy_a, ham=eikonal_ham,
                                drift_b=b)
            sol = solve_ergodic_pair(params, FAST)
            coarse, fine = (vanishing_discount_sweep(params, deltas, FAST).H_bar
                            for deltas in ((0.1, 0.01, 1e-3), (0.1, 0.01, 1e-3, 5e-4)))
            assert sol.stop.converged and sol.spread <= 2.0 * FAST.tol
            assert abs(sol.H_bar - (2.0 * fine - coarse)) <= 1e-8
            assert abs(sol.H_bar - coarse) > 1e-5

    def test_positive_discounts_give_the_old_bracket(self, eikonal_ham, wavy_a):
        # at delta > 0, min and max of F(phi) are those of -delta phi +
        # mean F(phi) to within the mean-free residual
        params = CellParams(x=0.0, p=0.5, l=0.3, sigma=0.5, a=wavy_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, DELTAS, FAST)
        scheme = cell_scheme(params, FAST)
        phi = sol.psi.values - np.mean(sol.psi.values)
        scaled = -DELTAS[-1] * phi + np.mean(scheme.residual(phi))
        assert abs(sol.H_bar - 0.5 * (scaled.min() + scaled.max())) <= FAST.tol
        assert abs(sol.spread - np.ptp(scaled)) <= 2.0 * FAST.tol

    def test_flat_piece_below_order_one_is_singular(self, eikonal_ham, unit_a):
        # below order one the upwind Jacobian decouples on the flat piece, so
        # hjhom cell takes the exact forms there
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        with pytest.raises(np.linalg.LinAlgError):
            vanishing_discount_sweep(params, (0.0,), FAST)

    def test_negative_discount_rejected(self, eikonal_ham, unit_a):
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=1.0, a=unit_a, ham=eikonal_ham)
        with pytest.raises(ValueError, match="must not be negative"):
            vanishing_discount_sweep(params, (0.1, -0.01), FAST)


class TestContinuationStart:
    """The ergodic solve's `start`, which the order-one table fill passes."""

    def test_start_ignored_when_zero_has_the_smaller_residual(self, eikonal_ham, wavy_a):
        # at l = -1, a = 2 + cos(2 pi y) cancels -cos(2 pi y): zero is exact
        exact = CellParams(x=0.0, p=0.5, l=-1.0, sigma=1.0, a=wavy_a, ham=eikonal_ham)
        other = solve_ergodic_pair(exact._replace(l=1.0), FAST)
        cold = solve_ergodic_pair(exact, FAST)
        warm = solve_ergodic_pair(exact, FAST, start=other.psi.values)
        assert other.stop.steps > 0
        assert not warm.warm_start
        assert cold.stop.steps == 0
        assert warm.stop == cold.stop
        assert warm.H_bar == cold.H_bar
        assert abs(cold.H_bar - 2.25) <= 1e-12
        assert np.array_equal(warm.psi.values, cold.psi.values)

    def test_start_taken_when_its_residual_is_smaller(self, eikonal_ham, wavy_a):
        params = CellParams(x=0.0, p=0.5, l=0.0, sigma=1.0, a=wavy_a, ham=eikonal_ham)
        cold = solve_ergodic_pair(params, FAST)
        # a constant shift of the solution is the solution: Newton pins the mean
        warm = solve_ergodic_pair(params, FAST, start=cold.psi.values + 3.0)
        assert cold.stop.steps > 0 and not cold.warm_start
        assert warm.warm_start
        assert warm.stop.steps == 0
        assert abs(warm.H_bar - cold.H_bar) <= FAST.tol


class TestConstantCoefficientShift:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_l_dependence_is_exact_shift(self, sigma, eikonal_ham, unit_a):
        sols = {}
        for l in (-1.0, 0.0, 1.0):
            params = CellParams(x=0.0, p=0.5, l=l, sigma=sigma, a=unit_a,
                                ham=eikonal_ham)
            sols[l] = vanishing_discount_sweep(params, (0.1, 0.05), FAST)
        for l in (-1.0, 1.0):
            gap = abs(sols[l].H_bar - sols[0.0].H_bar + 1.0 * l)
            assert gap <= 2.0 * max(sols[l].spread, 1e-12)


class TestLongTimeAverage:
    def test_slow_data_exact(self):
        ham = model_bpm("constant:2.0", "constant:0.3", 2.0)
        params = CellParams(x=0.0, p=0.7, l=0.4, sigma=0.5,
                            a=coefficient("constant:1.5"), ham=ham)
        est, err, _ = long_time_average(params, 5.0, FAST)
        assert est == pytest.approx(-1.5 * 0.4 + 2.0 * 0.49 - 0.3, abs=1e-10)
        assert err <= 1e-10

    def test_cross_method_agreement(self, eikonal_ham, unit_a):
        params = CellParams(x=0.0, p=0.0, l=0.0, sigma=0.5, a=unit_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, DELTAS, FAST)
        est, err, _ = long_time_average(params, 60.0, FAST)
        assert abs(est - sol.H_bar) <= sol.spread + err + 1e-6

    def test_fractional_cross_method(self, eikonal_ham, wavy_a):
        params = CellParams(x=0.0, p=1.0, l=0.0, sigma=1.5, a=wavy_a, ham=eikonal_ham)
        est, err, _ = long_time_average(params, 40.0, FAST)
        assert abs(est - (3.0 - np.sqrt(3.0))) <= err + 5e-3


class TestSpectralCell:
    def test_cosine_eigenfunction(self):
        n = 256
        f = GridFunction.from_callable(lambda y: np.cos(2 * np.pi * y), n)
        psi = spectral_cell_above_one(1.5, f.values)
        expect = (2 * np.pi) ** -1.5 * f.values
        assert np.max(np.abs(psi - (expect - expect[0]))) <= 1e-12

    def test_random_right_side_residual(self):
        rng = np.random.default_rng(3)
        n = 256
        y = np.arange(n) / n
        f_vals = sum(rng.normal() * np.cos(2 * np.pi * k * y)
                     + rng.normal() * np.sin(2 * np.pi * k * y) for k in range(1, 6))
        f = GridFunction(f_vals)
        psi = spectral_cell_above_one(1.7, f.values)
        resid = spectral_flap(GridFunction(psi), 1.7).values - f.values
        assert np.max(np.abs(resid)) <= 1e-10

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError):
            spectral_cell_above_one(1.5, np.full(64, 1.0))

    def test_order_domain(self):
        f = np.cos(2 * np.pi * np.arange(64) / 64)
        with pytest.raises(ValueError):
            spectral_cell_above_one(0.5, f)


class TestRegularityAudit:
    def test_slow_data_gives_zero_ratios(self):
        ham = model_bpm("constant:2.0", "constant:0.3", 2.0)
        params = CellParams(x=0.0, p=0.7, l=0.4, sigma=0.5,
                            a=coefficient("constant:1.5"), ham=ham)
        sol = vanishing_discount_sweep(params, DELTAS, FAST)
        ratios = regularity_audit(sol, params)
        assert ratios.osc <= 1e-10
        assert ratios.lip <= 1e-8
        assert ratios.flap <= 1e-8

    def test_gradient_sweep_trends(self, eikonal_ham, unit_a):
        entries = []
        for p in (1.0, 2.0, 4.0):
            params = CellParams(x=0.0, p=p, l=0.0, sigma=1.0, a=unit_a,
                                ham=eikonal_ham)
            sol = vanishing_discount_sweep(params, (0.1, 0.05), CellConfig(n=128))
            entries.append((params, sol))
        report = regularity_sweep_audit(entries)
        # the Lipschitz ratio trends down; the discounted-sup ratio climbs
        # toward (but stays below) its structural bound of order one
        lips = report["lip"]["series"]
        assert lips[0] > lips[1] > lips[2]
        assert not report["lip"]["growth_flagged"]
        assert max(report["psi_delta"]["series"]) <= 1.05
        assert max(report["flap"]["series"]) == report["flap"]["series"][0]
