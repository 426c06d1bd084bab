import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trig_poly
from hjhom.cell import CellConfig, CellParams, vanishing_discount_sweep
from hjhom.effective import (EffectiveTable, effective_source_from_formula,
                             effective_source_from_table, tabulate)
from hjhom.grid import GridFunction, forward_diff
from hjhom.hamiltonians import (HamiltonianSpec, PowerForm, coefficient, coercive_reach,
                                growth_bound, model_bpm)
from hjhom.kernels import constant_kernel, periodized_weights, tilt_kernel
from hjhom.operators import apply_table
from hjhom.parabolic import (GRADIENT_RISE, MonotoneScheme, NumericalFailure,
                             ParabolicProblem, SolverConfig, barrier_bounds,
                             coefficient_scheme,
                             holder_exponent_alpha0, initial_layer_modulus,
                             sampled_modulus, solve, sup_convolution_time)


def _oscillating(u0, ham, a, sigma, eps, T, kernel=None, **kw):
    kernel = kernel or constant_kernel(sigma)
    table = periodized_weights(kernel, u0.n)
    return ParabolicProblem(kind="oscillating", u0=u0, T=T,
                            table=table, eps=eps, a=a, ham=ham, **kw)


def _explicit_march(scheme, u, times):
    """Forward Euler u - dt F(u) at the scheme's own dt(), shortened to land
    on each of the times: (the states there, the steps taken)."""
    dt, t, states, steps = scheme.dt(), 0.0, [], 0
    for target in times:
        while t < target - 1e-14:
            step = min(dt, target - t)
            u = u - step * scheme.residual(u)
            t += step
            steps += 1
        states.append(u)
    return states, steps


class TestSolve:
    def test_constants_are_exact_solutions(self, unit_a):
        ham = model_bpm("one", "constant:0", 2.0)  # H(.,.,0) = 0
        u0 = GridFunction.constant(3.25, 64)
        traj = solve(_oscillating(u0, ham, unit_a, 0.5, 0.25, 0.3), SolverConfig())
        for snap in traj.snapshots:
            assert np.all(snap.values == 3.25)

    def test_linear_in_time_exact_solution(self, unit_a):
        # H = |p|^2 - 1 and flat data: u(x, t) = t
        ham = model_bpm("one", "constant:1", 2.0)
        u0 = GridFunction.constant(0.0, 64)
        traj = solve(_oscillating(u0, ham, unit_a, 1.0, 0.25, 0.4), SolverConfig())
        final = traj.final().values
        assert np.max(np.abs(final - traj.times[-1])) <= 1e-10
        assert np.max(final) - np.min(final) == 0.0

    def test_steps_counted(self, eikonal_ham, unit_a):
        # each recorded time can shorten at most one step
        n, T, snapshots = 64, 0.3, 7
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        traj = solve(_oscillating(u0, eikonal_ham, unit_a, 0.5, 0.25, T),
                     SolverConfig(snapshots=snapshots))
        assert T / traj.dt <= traj.steps <= T / traj.dt + snapshots

    def test_sup_norm_bound(self, eikonal_ham, unit_a):
        # |u(t)|_inf <= |u0|_inf + |H(.,.,0)|_inf t, snapshot by snapshot
        n, T = 128, 0.5
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        traj = solve(_oscillating(u0, eikonal_ham, unit_a, 0.5, 1.0 / 8.0, T),
                     SolverConfig())
        assert np.all(traj.sup_norm_track <= 1.0 + 1.0 * traj.times + 1e-8)

    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), tilt_kernel(1.0, 0.5)],
                             ids=["constant", "tilt"])
    @pytest.mark.parametrize("flux", ["godunov", "lax_friedrichs"])
    def test_discrete_comparison(self, eikonal_ham, unit_a, flux, kernel):
        # without the power-form hint the scheme falls back to Lax-Friedrichs
        ham = eikonal_ham if flux == "godunov" else replace(eikonal_ham, power_form=None)
        n = 64
        rng = np.random.default_rng(123)
        for _ in range(10):
            lo = trig_poly(int(rng.integers(1 << 30)), n, scale=0.5)
            hi = GridFunction(lo.values
                              + np.abs(trig_poly(int(rng.integers(1 << 30)), n).values)
                              + 1e-3)
            cfg = SolverConfig(snapshots=4)
            prob_lo = _oscillating(lo, ham, unit_a, 1.0, 0.25, 0.1, kernel=kernel)
            prob_hi = _oscillating(hi, ham, unit_a, 1.0, 0.25, 0.1, kernel=kernel)
            cfg.gradient_range = 60.0
            t_lo = solve(prob_lo, cfg)
            t_hi = solve(prob_hi, cfg)
            for a_snap, b_snap in zip(t_lo.snapshots, t_hi.snapshots):
                assert np.all(a_snap.values <= b_snap.values + 1e-12)

    def test_eps_must_be_reciprocal_integer(self, eikonal_ham, unit_a):
        u0 = GridFunction.constant(0.0, 64)
        with pytest.raises(ValueError):
            _oscillating(u0, eikonal_ham, unit_a, 0.5, 0.3, 0.1)

    def test_fast_variable_resolution_enforced(self, eikonal_ham, unit_a):
        u0 = GridFunction.constant(0.0, 64)
        with pytest.raises(ValueError):
            _oscillating(u0, eikonal_ham, unit_a, 0.5, 1.0 / 8.0, 0.1)

    def test_gradient_range_breach_aborts(self, eikonal_ham, unit_a):
        # a Lax-Friedrichs flux on a general H samples its theta over the range
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 64)
        prob = _oscillating(u0, replace(eikonal_ham, power_form=None), unit_a, 1.0, 0.25, 0.2)
        with pytest.raises(NumericalFailure, match="left the a-priori range 0.05"):
            solve(prob, SolverConfig(gradient_range=0.05))

    @pytest.mark.parametrize("flux", ["godunov", "table"])
    def test_gradient_range_unread_by_fitted_theta(self, eikonal_ham, unit_a, flux):
        # the Godunov and table fluxes fit theta to every state they meet, so
        # a range they do not use neither stops them nor moves a bit
        u0 = GridFunction.from_callable(lambda x: 0.3 * np.sin(2 * np.pi * x), 64)
        prob = _oscillating(u0, eikonal_ham, unit_a, 1.0, 0.25, 0.2)
        if flux == "table":
            table = tabulate(lambda x, p, l: (p * p - l, 0.0, "formula"), [0.0],
                             np.linspace(-3.0, 3.0, 13), [-2.0, 0.0, 2.0], sigma=0.5)
            prob = ParabolicProblem(kind="effective", u0=u0, T=0.2,
                                    table=periodized_weights(constant_kernel(0.5), 64),
                                    source=effective_source_from_table(table))
        traj = solve(prob, SolverConfig(gradient_range=0.05))
        assert traj.max_gradient_seen > 0.05 and prob.scheme(0.05).p_range is None
        assert np.array_equal(traj.final().values, solve(prob, SolverConfig()).final().values)


class TestImplicitStep:
    """-a I_h is stepped implicitly when a repeats with a short period on the
    grid; the explicit march at the nonlocal CFL step and a dense solve of
    the implicit operator are the oracles."""

    P_RANGE = 4.0 * np.pi      # twice the largest slope of sin(2 pi x)

    def _wavy(self, kind, eikonal_ham, wavy_a, n, T):
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        table = periodized_weights(constant_kernel(1.5), n)
        if kind == "oscillating":
            return ParabolicProblem(kind=kind, u0=u0, T=T, table=table, eps=1.0 / 16.0,
                                    a=wavy_a, ham=eikonal_ham)
        return ParabolicProblem(kind=kind, u0=u0, T=T, table=table,
                                source=effective_source_from_formula(wavy_a, eikonal_ham))

    def test_matches_explicit_oracle(self, eikonal_ham, wavy_a, wavy_sweep):
        T = 0.2
        for kind in ("effective", "oscillating"):
            gaps = []
            for n in (256, 512):
                prob = self._wavy(kind, eikonal_ham, wavy_a, n, T)
                traj = solve(prob, SolverConfig(gradient_range=self.P_RANGE, snapshots=1))
                assert traj.path == "implicit"
                # the oracle's theta covers the range, so its march is monotone
                # on every state it meets
                fixed = prob.scheme(self.P_RANGE)
                fixed.theta = fixed._godunov_theta(self.P_RANGE)
                oracle = _explicit_march(fixed, prob.u0.values, [T])[0][0]
                gap = float(np.max(np.abs(traj.final().values - oracle)))
                # first order in time: the measured gap is 13.7 dt (n = 256) and
                # 14.0 dt (n = 512) for the closed form, 14.0 dt and 14.2 dt
                # for the oscillating problem at eps = 1/16
                assert gap <= 20.0 * traj.dt
                gaps.append(gap)
            assert gaps[1] <= 0.6 * gaps[0]
            # the time error stays below the homogenization error it is part of
            assert gaps[0] < np.min(wavy_sweep.errors)

    def test_path_reported(self, eikonal_ham, wavy_a):
        n, cfg = 64, SolverConfig(snapshots=2)
        closed_form = self._wavy("effective", eikonal_ham, wavy_a, n, 0.02)
        assert solve(closed_form, cfg).path == "implicit"
        u0 = GridFunction.from_callable(lambda x: 0.3 * np.sin(2 * np.pi * x), n)
        # a(x / eps) = 2 + cos repeats every n eps = 16 nodes
        oscillating = _oscillating(u0, eikonal_ham, wavy_a, 1.5, 0.25, 0.02)
        assert solve(oscillating, cfg).path == "implicit"
        # a slow x dependence has period n: explicit
        slow_a = lambda x, y: 2.0 + np.cos(2.0 * np.pi * x)
        assert solve(_oscillating(u0, eikonal_ham, slow_a, 1.5, 0.25, 0.02),
                     cfg).path == "explicit"
        table = tabulate(lambda x, p, l: (p * p - l, 0.0, "formula"), [0.0],
                         np.linspace(-3.0, 3.0, 13), [-2.0, 0.0, 2.0], sigma=0.5)
        from_table = ParabolicProblem(kind="effective", u0=u0, T=0.02,
                                      table=periodized_weights(constant_kernel(0.5), n),
                                      source=effective_source_from_table(table))
        assert solve(from_table, cfg).path == "explicit"

    def test_non_dyadic_eps_is_periodic(self, eikonal_ham, wavy_a):
        # eps = 1/3 is not a float-exact fraction; y = x / eps mod 1 still
        # repeats exactly every 16 of the 48 nodes
        u0 = GridFunction.from_callable(lambda x: 0.3 * np.sin(2 * np.pi * x), 48)
        prob = _oscillating(u0, eikonal_ham, wavy_a, 1.5, 1.0 / 3.0, 0.02)
        assert solve(prob, SolverConfig(snapshots=2)).path == "implicit"

    @pytest.mark.parametrize("kernel", [constant_kernel(0.5), tilt_kernel(0.5, 0.5)],
                             ids=["symmetric", "tilt"])
    @pytest.mark.parametrize("n, period", [(64, 1), (64, 4), (64, 16), (45, 15)])
    def test_block_step_matches_dense_solve(self, eikonal_ham, kernel, n, period):
        j = np.arange(n)
        table = periodized_weights(kernel, n)
        y = 2.0 * np.pi * (j * (n // period) % n) / n
        a = 2.0 + np.cos(y) + 0.5 * np.sin(y)         # not even: fft(a[:P]) is complex
        c = table.weights + table.antisym
        lin = c[(j[None, :] - j[:, None]) % n]       # I_h as a dense matrix
        lin[j, j] -= table.mass
        u = trig_poly(7, n, scale=0.5).values
        scheme = coefficient_scheme(1.0 / n, j / n, j / n, a, eikonal_ham, 4.0, table=table)
        assert scheme.implicit
        rest = scheme.residual(u) + a * (lin @ u)    # the gradient part G(u)
        for dt in (scheme.step_dt(), 0.3 * scheme.step_dt()):    # cached, shortened
            implicit_op = np.eye(n) - dt * a[:, None] * lin
            expected = np.linalg.solve(implicit_op, u - dt * rest)
            assert np.max(np.abs(scheme.step(u, dt) - expected)) <= 1e-12
            # an M-matrix: the implicit step keeps the comparison principle
            assert np.min(np.linalg.inv(implicit_op)) >= 0.0

    # (kernel, whether its table admits the implicit step)
    KERNELS = [(constant_kernel(0.5), True), (constant_kernel(1.5), True),
               (tilt_kernel(0.5, 0.5), True), (tilt_kernel(1.2, 0.5), False)]

    @given(seed=st.integers(0, 1 << 30), lift=st.floats(0.0, 1.0),
           kernel=st.sampled_from(KERNELS), lax_friedrichs=st.booleans(),
           a_kind=st.sampled_from(["constant", "eps_periodic", "x_dependent"]))
    @settings(max_examples=80, deadline=None)
    def test_one_step_is_monotone(self, eikonal_ham, seed, lift, kernel, lax_friedrichs,
                                  a_kind):
        # ordered data stay ordered after one step at step_dt()
        kernel, admits = kernel
        ham = replace(eikonal_ham, power_form=None) if lax_friedrichs else eikonal_ham
        n = 64
        lo = trig_poly(seed, n, scale=0.5).values
        hi = lo + lift * np.abs(trig_poly(seed + 1, n).values)
        p_range = max(2.0, 1.01 * max(np.max(np.abs(forward_diff(v, 1.0 / n)))
                                      for v in (lo, hi)))
        xs = np.arange(n) / n
        a = {"constant": np.full(n, 2.0),
             # a(x / eps) at eps = 1/4: period 16 nodes
             "eps_periodic": 2.0 + np.cos(2.0 * np.pi * (np.arange(n) * 4 % n) / n),
             "x_dependent": 2.0 + np.cos(2.0 * np.pi * xs)}[a_kind]
        scheme = coefficient_scheme(1.0 / n, xs, xs, a, ham, p_range,
                                    table=periodized_weights(kernel, n))
        assert scheme.implicit == (a_kind != "x_dependent" and admits)
        assert (scheme.power is None) == lax_friedrichs
        if lax_friedrichs:
            # as built, only the sampled Lax-Friedrichs theta covers both
            # states; the Godunov theta covers the coercive reach until fitted
            dt = scheme.step_dt()
            assert np.all(scheme.step(lo, dt) <= scheme.step(hi, dt) + 1e-12)
        # at the theta fitted over both states, as solve fits it (the
        # sampled Lax-Friedrichs theta stays); b = 1 and m = 2: theta = 2 G
        diffs = [scheme.fit_theta(v) for v in (lo, hi)]
        if not lax_friedrichs:
            assert scheme.theta >= 2.0 * max(np.max(np.abs(d[1])) for d in diffs)
        dt = scheme.step_dt()
        assert np.all(scheme.step(lo, dt, diffs[0]) <= scheme.step(hi, dt, diffs[1]) + 1e-12)

    @pytest.mark.parametrize("a_kind", ["eps_periodic", "x_dependent"])
    @pytest.mark.parametrize("data", ["zero", "sin"])
    def test_fitted_theta_follows_the_gradient(self, monkeypatch, wavy_a, data, a_kind):
        # H = |p|^2 - 16 cos(2 pi y), coercive reach 6: from zero data the
        # gradients stay below the reach, from sin(2 pi x) the forcing drives
        # them past their start (6.27 -> 7.04), and theta rises three times
        F, n, T = 16.0, 64, 0.5
        f = lambda x, y: F * np.cos(2.0 * np.pi * y) + 0.0 * x
        ham = HamiltonianSpec(eval=lambda x, y, p: p * p - f(x, y), m=2.0, b0=1.0, C0=F,
                              power_form=PowerForm(b=coefficient("one"), f=f, m=2.0,
                                                   b_min=1.0, f_sup=F))
        a = wavy_a if a_kind == "eps_periodic" else (lambda x, y: 2.0 + np.cos(2.0 * np.pi * x))
        u0 = GridFunction.from_callable(
            (lambda x: np.sin(2.0 * np.pi * x)) if data == "sin" else np.zeros_like, n)
        seen, builds = [], []
        step, inv = MonotoneScheme.step, np.linalg.inv

        def recording_step(self, u, dt, diffs=None):
            seen.append((self.theta, float(np.max(np.abs(forward_diff(u, 1.0 / n))))))
            return step(self, u, dt, diffs)

        def counting_inv(blocks):
            builds.append(blocks.shape)
            return inv(blocks)

        monkeypatch.setattr(MonotoneScheme, "step", recording_step)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        traj = solve(_oscillating(u0, ham, a, 0.5, 0.25, T), SolverConfig(snapshots=5))
        implicit = a_kind == "eps_periodic"
        assert traj.path == ("implicit" if implicit else "explicit")
        thetas, grads = np.array(seen).T
        reach = coercive_reach(1.0, F, 2.0)
        # theta = 2 G never falls, and G covers the reach and every state met
        assert np.all(np.diff(thetas) >= 0.0)
        assert np.all(thetas >= 2.0 * np.maximum(reach, grads))
        # each rise multiplies G by GRADIENT_RISE at least: one inverse per G
        rises = math.log(thetas[-1] / (2.0 * max(reach, grads[0]))) / math.log(GRADIENT_RISE)
        assert len(builds) <= (1 + math.floor(rises + 1e-9) if implicit else 0)
        assert (thetas[-1] > thetas[0]) == (data == "sin")
        # |u(t)|_inf <= |u0|_inf + |H(., ., 0)|_inf t, snapshot by snapshot
        assert np.all(traj.sup_norm_track <= u0.sup_norm() + F * traj.times + 1e-8)


@pytest.fixture(scope="module")
def eikonal_table_below_one(eikonal_ham, wavy_a):
    """Cell solves of |p|^2 - cos(2 pi y), a = 2 + cos(2 pi y), at order 1/2
    on the p, l nodes -8, -6, ..., 8 and -6, -4, ..., 6: the p-slopes are 14,
    10, 6 and 1.5 from the box edge inward."""
    cfg = CellConfig(n=64)

    def fill(x, p, l):
        params = CellParams(x=x, p=p, l=l, sigma=0.5, a=wavy_a, ham=eikonal_ham)
        sol = vanishing_discount_sweep(params, (0.1, 0.01, 0.001), cfg)
        return sol.H_bar, sol.spread, "discount"

    return tabulate(fill, [0.0], np.linspace(-8.0, 8.0, 9), np.linspace(-6.0, 6.0, 7),
                    sigma=0.5)


class TestStateTheta:
    """A table source's Lax-Friedrichs dissipation is fitted to the state's
    gradients before every step; the march at the table-wide dissipation is
    the oracle."""

    N = 64
    TOP = 8.0        # the random tables span p in [-TOP, TOP]

    @staticmethod
    def _sine_problem(table, n):
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        return ParabolicProblem(kind="effective", u0=u0, T=0.5,
                                table=periodized_weights(constant_kernel(0.5), n),
                                source=effective_source_from_table(table))

    def test_matches_fixed_theta_march(self, eikonal_table_below_one):
        table, cfg = eikonal_table_below_one, SolverConfig()
        gaps = []
        for n in (256, 512):
            prob = self._sine_problem(table, n)
            traj = solve(prob, cfg)
            fixed = prob.scheme(2.0 * np.pi)     # never fitted: theta(-inf, inf)
            assert fixed.theta == table.p_slope_bound()
            states, fixed_steps = _explicit_march(fixed, prob.u0.values,
                                                  cfg.resolved_record_times(prob.T))
            gap = max(float(np.max(np.abs(snap.values - v)))
                      for snap, v in zip(traj.snapshots[1:], states))
            # over all snapshots: 2.7e-2, 1.5e-2, 8.7e-3 and 4.9e-3 at
            # n = 256, 512, 1024 and 2048
            assert gap <= 10.0 / n
            gaps.append(gap)
            # the first steps see |p| up to 2 pi, in the steepest cells
            assert traj.theta == fixed.theta and traj.dt == fixed.dt()
            assert 3 * traj.steps <= fixed_steps
        assert gaps[1] <= 0.6 * gaps[0]

    def _random_table(self, rng, nx):
        """Uneven p nodes over [-TOP, TOP]; values random in p, decreasing in l."""
        ps = np.sort(np.concatenate([[-self.TOP, self.TOP],
                                     rng.uniform(-self.TOP, self.TOP, 5)]))
        ls = np.linspace(-40.0, 40.0, 5)
        values = (rng.normal(scale=10.0, size=(nx, ps.size, 1))
                  - np.cumsum(rng.uniform(0.0, 3.0, (nx, ps.size, ls.size)), axis=2))
        return EffectiveTable(xs=np.linspace(0.0, 1.0, nx), ps=ps, ls=ls, values=values,
                              err=np.zeros_like(values),
                              provenance=np.full(values.shape, "discount", dtype=object),
                              sigma=0.5)

    def _state(self, seed, slope):
        """A trigonometric polynomial with largest forward difference slope."""
        u = trig_poly(seed, self.N).values
        return u * (slope / np.max(np.abs(forward_diff(u, 1.0 / self.N))))

    @given(seed=st.integers(0, 1 << 30), slope=st.floats(0.1, 7.5),
           nx=st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_difference_quotients_within_theta(self, seed, slope, nx):
        # the p-quotient over any part of [lo, hi] around a node's central
        # query (x, (Dl u + Dr u) / 2, I_h u) is bounded by theta(lo, hi)
        n, h = self.N, 1.0 / self.N
        src = effective_source_from_table(self._random_table(np.random.default_rng(seed), nx))
        u = self._state(seed, slope)
        d = forward_diff(u, h)
        lo, hi = float(np.min(d)), float(np.max(d))
        theta = src.theta(lo, hi)
        x = np.arange(n) / n
        centre = 0.5 * (np.roll(d, 1) + d)
        lv = apply_table(u, periodized_weights(constant_kernel(0.5), n))
        for reach in (1e-3, 0.1, np.inf):
            left, right = np.maximum(centre - reach, lo), np.minimum(centre + reach, hi)
            quotient = (src.value(x, right, lv) - src.value(x, left, lv)) / (right - left)
            assert np.all(np.abs(quotient) <= theta * (1.0 + 1e-9) + 1e-9)

    @given(seed=st.integers(0, 1 << 30), slope=st.floats(0.1, 6.5),
           lift=st.floats(0.0, 1.0), nx=st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_one_step_keeps_order(self, seed, slope, lift, nx):
        # u <= v stay ordered after one step at the dt of a theta covering both
        n, h = self.N, 1.0 / self.N
        src = effective_source_from_table(self._random_table(np.random.default_rng(seed), nx))
        u = self._state(seed, slope)
        w = np.abs(trig_poly(seed + 1, n).values)
        v = u + lift * w / np.max(np.abs(forward_diff(w, h)))
        scheme = src.scheme(np.arange(n) / n, periodized_weights(constant_kernel(0.5), n),
                            self.TOP)
        both = np.concatenate((forward_diff(u, h), forward_diff(v, h)))
        scheme.theta = src.theta(float(np.min(both)), float(np.max(both)))
        dt = scheme.step_dt()
        assert np.all(scheme.step(u, dt) <= scheme.step(v, dt) + 1e-12)


class TestJacobian:
    N = 64

    def _scheme(self, ham, kernel, drift, closed_form):
        n = self.N
        xs, ys = np.zeros(n), np.arange(n) / n
        table = periodized_weights(kernel, n)
        if closed_form:
            # the effective scheme above order one: A(x) in the coefficient slot
            form = effective_source_from_formula(coefficient("two_plus_cos_y"), ham)
            return form.scheme(ys, table, 6.0)
        a = 2.0 + np.cos(2.0 * np.pi * ys)
        return coefficient_scheme(1.0 / n, xs, ys, a, ham, 6.0, p=0.7, table=table,
                                  const=-0.3 * a, drift=drift)

    @pytest.mark.parametrize("flux", ["godunov", "lax_friedrichs"])
    @pytest.mark.parametrize("kernel, drift, closed_form", [
        pytest.param(constant_kernel(0.5), 0.0, False, id="kernel0-0.0"),
        pytest.param(constant_kernel(1.0), 0.3, False, id="kernel1-0.3"),
        pytest.param(constant_kernel(1.0), -0.3, False, id="kernel2--0.3"),
        pytest.param(tilt_kernel(1.2, 0.5), 0.0, False, id="kernel3-0.0"),
        pytest.param(constant_kernel(1.5), 0.0, True, id="closed_form"),
    ])
    def test_matches_finite_differences(self, flux, kernel, drift, closed_form, eikonal_ham):
        ham = eikonal_ham
        if flux == "lax_friedrichs":
            ham = HamiltonianSpec(eval=lambda x, y, p: (1.5 + np.cos(2 * np.pi * y))
                                  * np.sqrt(1.0 + p * p) ** 3, m=3.0, b0=1.0, C0=1.0)
        scheme = self._scheme(ham, kernel, drift, closed_form)
        assert (scheme.power is None) == (flux == "lax_friedrichs")
        u = 0.3 * trig_poly(5, self.N).values
        delta, e = 0.05, 1e-6
        jac = scheme.jacobian(u, delta)
        fd = np.empty_like(jac)
        for k in range(self.N):
            up, dn = u.copy(), u.copy()
            up[k] += e
            dn[k] -= e
            fd[:, k] = (delta * (up - dn) + scheme.residual(up) - scheme.residual(dn)) / (2 * e)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))
        # rows of F's part sum to zero: constants are annihilated
        assert np.max(np.abs(jac.sum(axis=1) - delta)) <= 1e-9 * np.max(np.abs(jac))
        if kernel.symmetric:
            off = jac - np.diag(np.diag(jac))
            assert np.max(off) <= 0.0      # M-matrix sign pattern

    def test_effective_sources_are_rejected(self):
        from hjhom.effective import EffectiveSource
        src = EffectiveSource(value=lambda x, p, l: p * p - l, l_slope=1.0,
                              theta=lambda lo, hi: 4.0)
        n = 16
        scheme = src.scheme(np.arange(n) / n, periodized_weights(constant_kernel(0.5), n),
                            2.0)
        with pytest.raises(ValueError):
            scheme.jacobian(np.zeros(n))


class TestBarriers:
    def test_constant_data_envelope(self, eikonal_ham):
        u0 = GridFunction.constant(1.0, 64)
        env = barrier_bounds(u0, 0.3, a_sup=1.0, growth_C=growth_bound(eikonal_ham),
                             m=2.0, kernel=constant_kernel(0.5))
        assert env.omega0 == 0.0
        assert np.max(np.abs(env.u0_smoothed.values - 1.0)) <= 1e-12
        assert np.all(env.upper(0.7) == 1.0 + env.C_of_h * 0.7)

    def test_sine_modulus(self):
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 512)
        w = sampled_modulus(u0, 0.1)
        assert w <= 2 * np.pi * 0.1 + 1e-12
        assert w >= 0.55

    def test_solution_between_envelopes(self, eikonal_ham, wavy_a):
        n = 128
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        kernel = constant_kernel(1.5)
        table = periodized_weights(kernel, n)
        prob = ParabolicProblem(kind="oscillating", u0=u0, T=0.3,
                                table=table, eps=1.0 / 8.0, a=wavy_a, ham=eikonal_ham)
        traj = solve(prob, SolverConfig())
        env = barrier_bounds(u0, 0.25, a_sup=3.0, growth_C=growth_bound(eikonal_ham),
                             m=2.0, kernel=kernel)
        for t, snap in zip(traj.times, traj.snapshots):
            assert np.all(snap.values <= env.upper(t) + 1e-9)
            assert np.all(snap.values >= env.lower(t) - 1e-9)

    def test_initial_layer_tables(self, eikonal_ham, wavy_a, unit_a):
        # the linear-in-time exact solution has layer table exactly t
        ham = model_bpm("one", "constant:1", 2.0)
        u0 = GridFunction.constant(0.0, 64)
        traj = solve(_oscillating(u0, ham, unit_a, 1.0, 0.25, 0.4), SolverConfig())
        table = initial_layer_modulus(traj, u0)
        assert np.max(np.abs(table[:, 1] - table[:, 0])) <= 1e-10

        # flat data with vanishing forcing: the table is identically zero
        ham0 = model_bpm("one", "constant:0", 2.0)
        u0c = GridFunction.constant(2.0, 64)
        traj0 = solve(_oscillating(u0c, ham0, unit_a, 0.5, 0.25, 0.3), SolverConfig())
        assert np.max(initial_layer_modulus(traj0, u0c)[:, 1]) == 0.0

        # oscillating run dominated by the mollification envelope
        n = 128
        u0s = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        kernel = constant_kernel(1.5)
        prob = ParabolicProblem(kind="oscillating", u0=u0s, T=0.3,
                                table=periodized_weights(kernel, n), eps=1.0 / 8.0,
                                a=wavy_a, ham=eikonal_ham)
        traj = solve(prob, SolverConfig())
        env = barrier_bounds(u0s, 0.25, a_sup=3.0,
                             growth_C=growth_bound(eikonal_ham), m=2.0, kernel=kernel)
        tab = initial_layer_modulus(traj, u0s)
        bound = env.initial_layer_bound(tab[1:, 0], u0s, 2.0)
        assert np.all(tab[1:, 1] <= bound + 1e-12)


class TestSupConvolution:
    def test_constant_field_fixed(self):
        times = np.linspace(0.0, 1.0, 51)
        u = np.full((8, times.size), 2.5)
        out, lip = sup_convolution_time(u, times, 1.0)
        assert np.array_equal(out, u)
        assert lip == 0.0

    def test_tent_closed_form(self):
        # u(x, s) = -|s - 1/2| with gamma = 1: value 0 at t = 1/2, -1/4 at t = 0
        times = np.linspace(0.0, 1.0, 101)
        u = np.tile(-np.abs(times - 0.5), (4, 1))
        out, _ = sup_convolution_time(u, times, 1.0)
        assert out[0, 50] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 0] == pytest.approx(-0.25, abs=1e-12)

    def test_dominates_input_and_lipschitz_bound(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 41)
        u = rng.normal(size=(6, times.size))
        for gamma in (0.25, 1.0, 4.0):
            out, lip = sup_convolution_time(u, times, gamma)
            assert np.all(out >= u - 1e-15)
            assert lip <= 4.0 * np.max(np.abs(u)) / np.sqrt(gamma) + 1e-9

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 0.7, 23)
        u = rng.normal(size=(5, times.size))
        out, _ = sup_convolution_time(u, times, 0.8)
        for i in range(u.shape[0]):
            for t_idx in range(times.size):
                brute = max(u[i, s] - (times[s] - times[t_idx]) ** 2 / 0.8
                            for s in range(times.size))
                assert out[i, t_idx] == brute

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=2.1, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_gamma(self, g1, g2):
        rng = np.random.default_rng(17)
        times = np.linspace(0.0, 1.0, 21)
        u = rng.normal(size=(3, times.size))
        lo, _ = sup_convolution_time(u, times, g1)
        hi, _ = sup_convolution_time(u, times, g2)
        assert np.all(lo <= hi + 1e-15)


class TestHolderThreshold:
    def test_reference_values(self):
        assert holder_exponent_alpha0(1.0, 1.0, 2.0) == pytest.approx(0.63397, abs=1e-5)
        assert holder_exponent_alpha0(2.0, 1.0, 2.0) == pytest.approx(0.79289, abs=1e-5)

    @given(st.floats(min_value=1.0, max_value=8.0),
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=1.05, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_lands_in_unit_interval(self, n, sigma, m):
        a = holder_exponent_alpha0(n, sigma, m)
        assert 0.0 < a < 1.0

    def test_domain_errors(self):
        for bad in ((0.0, 1.0, 2.0), (1.0, 1.5, 2.0), (1.0, 1.0, 1.0)):
            with pytest.raises(ValueError):
                holder_exponent_alpha0(*bad)
