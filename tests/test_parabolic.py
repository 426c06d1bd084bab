import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import patch_source, trig_poly
import hjhom.parabolic
from hjhom.cell import CellConfig, CellParams
from hjhom.effective import (ClosedForm, EffectiveTable, TableCells,
                             effective_source_from_table, query_many)
from hjhom.grid import GridFunction, forward_diff
from hjhom.hamiltonians import (HamiltonianSpec, coefficient, coercive_reach, growth_bound,
                                model_bpm)
from hjhom.kernels import (constant_kernel, drift_vector, periodized_weights,
                           quadratic_tilt_kernel, tilt_kernel)
from hjhom.operators import apply_table
from hjhom.parabolic import (CFL_SAFETY, GRADIENT_RISE, MonotoneScheme, NumericalFailure,
                             ParabolicProblem, SolverConfig, godunov_power_flux,
                             holder_exponent_alpha0, initial_layer_modulus, oscillating_scheme,
                             solve)
from lemmas import (barrier_bounds, coefficient_scheme, sampled_modulus, sup_convolution_time,
                    tabulate, vanishing_discount_sweep)


def _oscillating(u0, ham, a, sigma, eps, T, kernel=None):
    kernel = kernel or constant_kernel(sigma)
    table = periodized_weights(kernel, u0.n)
    return ParabolicProblem(oscillating_scheme(eps, a, ham, table), u0, T)


def _explicit_march(scheme, u, times):
    """Forward Euler u - dt F(u) at the scheme's explicit CFL step
    CFL_SAFETY / budget, shortened to land on each of the times: (the states
    there, the steps taken)."""
    dt, t, states, steps = CFL_SAFETY / scheme.budget, 0.0, [], 0
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
        u0 = GridFunction(np.full(64, 3.25))
        traj = solve(_oscillating(u0, ham, unit_a, 0.5, 0.25, 0.3), SolverConfig())
        for snap in traj.snapshots:
            assert np.all(snap.values == 3.25)

    def test_linear_in_time_exact_solution(self, unit_a):
        # H = |p|^2 - 1 and flat data: u(x, t) = t
        ham = model_bpm("one", "constant:1", 2.0)
        u0 = GridFunction(np.full(64, 0.0))
        traj = solve(_oscillating(u0, ham, unit_a, 1.0, 0.25, 0.4), SolverConfig())
        final = traj.final().values
        assert np.max(np.abs(final - traj.times[-1])) <= 1e-10
        assert np.max(final) - np.min(final) == 0.0

    def test_steps_counted(self, eikonal_ham, unit_a):
        # every full step lies in [dt, max_dt], and each recorded time can
        # shorten at most one step; the step grows as the gradients decay
        n, T, snapshots = 64, 0.3, 7
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        traj = solve(_oscillating(u0, eikonal_ham, unit_a, 0.5, 0.25, T),
                     SolverConfig(snapshots=snapshots))
        assert T / traj.max_dt <= traj.steps <= T / traj.dt + snapshots
        assert traj.dt < traj.max_dt

    def test_sup_norm_bound(self, eikonal_ham, unit_a):
        # |u(t)|_inf <= |u0|_inf + |H(.,.,0)|_inf t, snapshot by snapshot
        n, T = 128, 0.5
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        traj = solve(_oscillating(u0, eikonal_ham, unit_a, 0.5, 1.0 / 8.0, T),
                     SolverConfig())
        assert np.all(traj.sup_norm_track <= 1.0 + 1.0 * traj.times + 1e-8)

    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), tilt_kernel(1.0, 0.5)],
                             ids=["godunov-constant", "godunov-tilt"])
    def test_discrete_comparison(self, eikonal_ham, unit_a, kernel):
        n = 64
        rng = np.random.default_rng(123)
        for _ in range(10):
            lo = trig_poly(int(rng.integers(1 << 30)), n, scale=0.5)
            hi = GridFunction(lo.values
                              + np.abs(trig_poly(int(rng.integers(1 << 30)), n).values)
                              + 1e-3)
            cfg = SolverConfig(snapshots=4)
            prob_lo = _oscillating(lo, eikonal_ham, unit_a, 1.0, 0.25, 0.1, kernel=kernel)
            prob_hi = _oscillating(hi, eikonal_ham, unit_a, 1.0, 0.25, 0.1, kernel=kernel)
            t_lo = solve(prob_lo, cfg)
            t_hi = solve(prob_hi, cfg)
            for a_snap, b_snap in zip(t_lo.snapshots, t_hi.snapshots):
                assert np.all(a_snap.values <= b_snap.values + 1e-12)

    def test_eps_must_be_reciprocal_integer(self, eikonal_ham, unit_a):
        u0 = GridFunction(np.full(64, 0.0))
        with pytest.raises(ValueError):
            _oscillating(u0, eikonal_ham, unit_a, 0.5, 0.3, 0.1)

    @pytest.mark.parametrize("eps, whole", [(-0.25, False), (5e-324, False), (0.3, False),
                                            (1.0 / 3.0, True)])
    def test_eps_is_the_config_reciprocal(self, eikonal_ham, unit_a, eps, whole):
        # the scheme takes eps = 1/k by the rule the configuration checks: a
        # negative eps does not run y backwards, nor does a subnormal one overflow
        table = periodized_weights(constant_kernel(1.5), 64)
        if whole:
            assert oscillating_scheme(eps, unit_a, eikonal_ham, table).power[0].size == 64
            return
        with pytest.raises(ValueError) as info:
            oscillating_scheme(eps, unit_a, eikonal_ham, table)
        assert str(info.value) == "eps must be the reciprocal of a positive integer"

    def test_fast_variable_resolution_enforced(self, eikonal_ham, unit_a):
        u0 = GridFunction(np.full(64, 0.0))
        with pytest.raises(ValueError):
            _oscillating(u0, eikonal_ham, unit_a, 0.5, 1.0 / 8.0, 0.1)

    def test_non_finite_state_names_its_step(self):
        # a scheme whose step number `bad` puts NaN at one node: solve stops
        # there, naming that step and the time it reached, also at the step
        # shortened onto the first recorded time and at the one after it
        n, T = 64, 0.3
        x = np.arange(n) / n
        args = dict(power=(np.ones(n), 2.0, -np.cos(2 * np.pi * x)), a=np.ones(n),
                    table=periodized_weights(constant_kernel(1.5), n))
        u0 = GridFunction(np.sin(2 * np.pi * x))

        class Poisoned(MonotoneScheme):
            def __init__(self, bad):
                super().__init__(1.0 / n, **args)
                self.bad, self.dts = bad, []

            def step(self, u, dt, diffs=None):
                out = super().step(u, dt, diffs)
                self.dts.append(dt)
                if len(self.dts) == self.bad:
                    out[5] = np.nan
                return out

        clean = Poisoned(0)
        traj = solve(ParabolicProblem(clean, u0, T), SolverConfig())
        # the step that ends on the first recorded time
        landing = int(np.flatnonzero(np.cumsum(clean.dts) == traj.times[1])[0]) + 1
        for bad in (1, landing, landing + 1, traj.steps):
            scheme = Poisoned(bad)
            with pytest.raises(NumericalFailure) as info:
                solve(ParabolicProblem(scheme, u0, T), SolverConfig())
            assert len(scheme.dts) == bad
            assert str(info.value) == f"non-finite state at step {bad}, t = {sum(scheme.dts):.6g}"


class TestImplicitStep:
    """-a I_h is stepped implicitly when a repeats with a short period on the
    grid; the explicit march at the nonlocal CFL step and a dense solve of
    the implicit operator are the oracles."""

    P_RANGE = 4.0 * np.pi      # the oracle's gradient bound: twice the largest slope of sin(2 pi x)

    def _wavy(self, kind, eikonal_ham, wavy_a, n, T):
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        table = periodized_weights(constant_kernel(1.5), n)
        if kind == "oscillating":
            scheme = oscillating_scheme(1.0 / 16.0, wavy_a, eikonal_ham, table)
        else:
            scheme = ClosedForm(wavy_a, eikonal_ham).scheme(u0.nodes(), table)
        return ParabolicProblem(scheme, u0, T)

    def test_matches_explicit_oracle(self, eikonal_ham, wavy_a, wavy_sweep):
        T = 0.2
        for kind in ("effective", "oscillating"):
            gaps = []
            for n in (256, 512):
                prob = self._wavy(kind, eikonal_ham, wavy_a, n, T)
                traj = solve(prob, SolverConfig(snapshots=1))
                assert traj.path == "implicit"
                # the oracle's theta covers the range, so its march is monotone
                # on every state it meets
                fixed = self._wavy(kind, eikonal_ham, wavy_a, n, T).scheme
                fixed.theta = fixed._godunov_theta(self.P_RANGE)
                oracle = _explicit_march(fixed, prob.u0.values, [T])[0][0]
                gap = float(np.max(np.abs(traj.final().values - oracle)))
                # first order in time, dt following the state: the measured gap
                # is 7.4 max_dt (n = 256) and 7.3 max_dt (n = 512) for the
                # closed form, 8.4 and 8.3 max_dt for the oscillating problem
                # at eps = 1/16
                assert gap <= 20.0 * traj.max_dt
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
        from_table = ParabolicProblem(effective_source_from_table(table).scheme(
            u0.nodes(), periodized_weights(constant_kernel(0.5), n)), u0, 0.02)
        assert solve(from_table, cfg).path == "explicit"

    def test_non_dyadic_eps_is_periodic(self, eikonal_ham, wavy_a):
        # eps = 1/3 is not a float-exact fraction; y = x / eps mod 1 still
        # repeats exactly every 16 of the 48 nodes
        u0 = GridFunction.from_callable(lambda x: 0.3 * np.sin(2 * np.pi * x), 48)
        prob = _oscillating(u0, eikonal_ham, wavy_a, 1.5, 1.0 / 3.0, 0.02)
        assert solve(prob, SolverConfig(snapshots=2)).path == "implicit"

    @staticmethod
    def check_block_step(ham, kernel, n, period):
        """The half-spectrum step's check: the implicit step of a coefficient
        of the given period against a dense solve of the implicit operator."""
        j = np.arange(n)
        table = periodized_weights(kernel, n)
        y = 2.0 * np.pi * (j * (n // period) % n) / n
        a = 2.0 + np.cos(y) + 0.5 * np.sin(y)         # not even: fft(a[:P]) is complex
        c = table.weights + table.antisym
        lin = c[(j[None, :] - j[:, None]) % n]       # I_h as a dense matrix
        lin[j, j] -= table.mass
        u = trig_poly(7, n, scale=0.5).values
        scheme = coefficient_scheme(1.0 / n, j / n, j / n, a, ham, table=table)
        assert scheme.implicit
        rest = scheme.residual(u) + a * (lin @ u)    # the gradient part G(u)
        for dt in (scheme.step_dt(), 0.3 * scheme.step_dt()):    # cached, shortened
            implicit_op = np.eye(n) - dt * a[:, None] * lin
            expected = np.linalg.solve(implicit_op, u - dt * rest)
            assert np.max(np.abs(scheme.step(u, dt) - expected)) <= 1e-12
            # an M-matrix: the implicit step keeps the comparison principle
            assert np.min(np.linalg.inv(implicit_op)) >= 0.0
        # the inverses kept at step_dt(): one block per class r <= K / 2
        assert scheme._inverse[1].shape == (n // period // 2 + 1, period, period)

    @pytest.mark.parametrize("kernel", [constant_kernel(0.5), tilt_kernel(0.5, 0.5)],
                             ids=["symmetric", "tilt"])
    @pytest.mark.parametrize("n, period", [(64, 1), (64, 2), (64, 4), (64, 16), (64, 32),
                                           (48, 16), (45, 1), (45, 15)])
    def test_block_step_matches_dense_solve(self, eikonal_ham, kernel, n, period):
        self.check_block_step(eikonal_ham, kernel, n, period)

    def test_the_check_catches_an_unconjugated_half_spectrum(self, eikonal_ham, monkeypatch):
        # the classes above K / 2 and the blocks' coupling read the half
        # spectrum without the conjugate their modes past n / 2 need
        patch_source(monkeypatch, hjhom.parabolic, "_take",
                     "return np.conjugate(out, out=out, where=index[1])", "return out")
        with pytest.raises(AssertionError):
            self.check_block_step(eikonal_ham, constant_kernel(0.5), 64, 16)

    # (kernel, whether its table admits the implicit step)
    KERNELS = [(constant_kernel(0.5), True), (constant_kernel(1.5), True),
               (tilt_kernel(0.5, 0.5), True), (tilt_kernel(1.2, 0.5), False)]

    @given(seed=st.integers(0, 1 << 30), lift=st.floats(0.0, 1.0),
           kernel=st.sampled_from(KERNELS),
           a_kind=st.sampled_from(["constant", "eps_periodic", "x_dependent"]),
           steeper_first=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_one_step_is_monotone(self, eikonal_ham, seed, lift, kernel, a_kind,
                                  steeper_first):
        # ordered data stay ordered after one step at step_dt()
        kernel, admits = kernel
        n = 64
        lo = trig_poly(seed, n, scale=0.5).values
        hi = lo + lift * np.abs(trig_poly(seed + 1, n).values)
        xs = np.arange(n) / n
        a = {"constant": np.full(n, 2.0),
             # a(x / eps) at eps = 1/4: period 16 nodes
             "eps_periodic": 2.0 + np.cos(2.0 * np.pi * (np.arange(n) * 4 % n) / n),
             "x_dependent": 2.0 + np.cos(2.0 * np.pi * xs)}[a_kind]
        scheme = coefficient_scheme(1.0 / n, xs, xs, a, eikonal_ham,
                                    table=periodized_weights(kernel, n))
        assert scheme.implicit == (a_kind != "x_dependent" and admits)
        # at the theta fitted over both states: fitted to each state in turn,
        # the steeper one last, as a run whose gradients steepen fits it.
        # When the steeper state also comes first, the fit to the flatter one
        # may lower theta, but never below what that state needs; b = 1 and
        # m = 2: theta = 2 G
        steepness = lambda v: float(np.max(np.abs(forward_diff(v, 1.0 / n))))
        flat, steep = sorted((lo, hi), key=steepness)
        diffs, reach = {}, coercive_reach(1.0, 1.0, 2.0)
        for v in (steep, flat, steep) if steeper_first else (flat, steep):
            diffs[id(v)] = scheme.fit_theta(v)
            assert scheme.theta >= 2.0 * max(reach, np.max(np.abs(diffs[id(v)][1])))
        assert scheme.theta >= 2.0 * max(steepness(lo), steepness(hi))
        dt = scheme.step_dt()
        assert np.all(scheme.step(lo, dt, diffs[id(lo)])
                      <= scheme.step(hi, dt, diffs[id(hi)]) + 1e-12)

    @pytest.mark.parametrize("a_kind", ["eps_periodic", "x_dependent"])
    @pytest.mark.parametrize("data", ["zero", "sin"])
    def test_fitted_theta_follows_the_gradient(self, monkeypatch, wavy_a, data, a_kind):
        # H = |p|^2 - 16 cos(2 pi y), coercive reach 6: from zero data the
        # gradients stay below the reach, from sin(2 pi x) the forcing drives
        # them past their start (6.27 -> 7.04) and they then decay (-> 5.33):
        # theta rises three times and falls three times
        F, n, T = 16.0, 64, 0.5
        f = lambda x, y: F * np.cos(2.0 * np.pi * y) + 0.0 * x
        ham = HamiltonianSpec(b=coefficient("one"), f=f, m=2.0, b_min=1.0, f_sup=F,
                              b0=1.0, C0=F, L=np.inf)
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
        # theta = 2 G covers the reach and the state before every step
        assert np.all(thetas >= 2.0 * np.maximum(reach, grads))
        # every change of G, up or down, is by GRADIENT_RISE at least: one
        # inverse per G
        changes = np.diff(np.log(thetas))
        changes = changes[changes != 0.0]
        assert np.all(np.abs(changes) >= math.log(GRADIENT_RISE) * (1.0 - 1e-9))
        assert len(builds) <= (1 + changes.size if implicit else 0)
        # theta moves, and falls as well as rises, only on the sin run
        assert (changes.size > 0) == (np.min(changes, initial=0.0) < 0.0) == (data == "sin")
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
        scheme = effective_source_from_table(table).scheme(
            u0.nodes(), periodized_weights(constant_kernel(0.5), n))
        return ParabolicProblem(scheme, u0, 0.5)

    def test_matches_fixed_theta_march(self, eikonal_table_below_one):
        table, cfg = eikonal_table_below_one, SolverConfig()
        gaps = []
        for n in (256, 512):
            prob = self._sine_problem(table, n)
            traj = solve(prob, cfg)
            fixed = self._sine_problem(table, n).scheme     # never fitted: theta(-inf, inf)
            assert fixed.theta == float(np.max(table.p_cell_slopes(), initial=0.0))
            states, fixed_steps = _explicit_march(fixed, prob.u0.values,
                                                  cfg.resolved_record_times(prob.T))
            gap = max(float(np.max(np.abs(snap.values - v)))
                      for snap, v in zip(traj.snapshots[1:], states))
            # over all snapshots: 2.7e-2, 1.5e-2, 8.7e-3 and 4.9e-3 at
            # n = 256, 512, 1024 and 2048
            assert gap <= 10.0 / n
            gaps.append(gap)
            # the first steps see |p| up to 2 pi, in the steepest cells: the
            # smallest step, which falls as theta rises, is the table-wide one
            assert traj.dt == fixed.step_dt()
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
            value = src.at(x)
            quotient = (value(right, lv) - value(left, lv)) / (right - left)
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
        scheme = src.scheme(np.arange(n) / n, periodized_weights(constant_kernel(0.5), n))
        both = np.concatenate((forward_diff(u, h), forward_diff(v, h)))
        scheme.theta = src.theta(float(np.min(both)), float(np.max(both)))
        dt = scheme.step_dt()
        assert np.all(scheme.step(u, dt) <= scheme.step(v, dt) + 1e-12)


class TestStepWork:
    """A step of either path costs one FFT pair, and the explicit table-source
    step is the Lax-Friedrichs update written out."""

    N = 256

    @classmethod
    def _state(cls):
        # gradients within 6 of 0 and I_h u within [-6, 6]: inside the table hull
        x = np.arange(cls.N) / cls.N
        return 0.6 * np.sin(2 * np.pi * x) + 0.1 * np.cos(6 * np.pi * x + 1.0)

    @staticmethod
    def _table():
        ps, ls = np.linspace(-8.0, 8.0, 9), np.linspace(-6.0, 6.0, 7)
        P, L = np.meshgrid(ps, ls, indexing="ij")
        values = (P ** 2 + 0.5 * np.cos(P) - (1.0 + 0.1 * np.sin(P)) * L)[None]
        return EffectiveTable(xs=np.array([0.0]), ps=ps, ls=ls, values=values,
                              err=np.zeros_like(values),
                              provenance=np.full(values.shape, "formula", dtype=object),
                              sigma=0.5)

    def test_one_fft_pair_per_step(self, monkeypatch, eikonal_ham, wavy_a):
        n, u = self.N, self._state()
        xs = np.arange(n) / n
        schemes = {
            "table source": effective_source_from_table(self._table()).scheme(
                xs, periodized_weights(constant_kernel(0.5), n)),
            # one constant A: P = 1
            "closed form": ClosedForm(wavy_a, eikonal_ham).scheme(
                xs, periodized_weights(constant_kernel(1.5), n)),
            # a(x / eps) at eps = 1/16: P = 16
            "oscillating": oscillating_scheme(1.0 / 16.0, wavy_a, eikonal_ham,
                                              periodized_weights(constant_kernel(1.5), n)),
        }
        for name, scheme in schemes.items():
            assert scheme.implicit == (name != "table source")
            diffs = scheme.fit_theta(u)
            calls = []

            def counted(fft):
                def call(*args, **kwargs):
                    calls.append(fft.__name__)
                    return fft(*args, **kwargs)
                return call

            for fft in ("rfft", "irfft"):
                monkeypatch.setattr(np.fft, fft, counted(getattr(np.fft, fft)))
            # twice at step_dt() (an implicit step builds, then reuses, its
            # block inverses) and once shortened
            for dt in (scheme.step_dt(), scheme.step_dt(), 0.3 * scheme.step_dt()):
                scheme.step(u, dt, diffs)
                assert sorted(calls) == ["irfft", "rfft"], name
                calls.clear()
            monkeypatch.undo()

    def test_explicit_step_is_the_written_out_update(self):
        n, table = self.N, self._table()
        qtable = periodized_weights(constant_kernel(0.5), n)
        scheme = effective_source_from_table(table).scheme(np.arange(n) / n, qtable)
        # the dense quadrature operator
        j = np.arange(n)
        lin = (qtable.weights + qtable.antisym)[(j[None, :] - j[:, None]) % n]
        lin[j, j] -= qtable.mass
        u = self._state()
        for _ in range(3):
            scheme.fit_theta(u)
            dt = scheme.step_dt()
            got = scheme.step(u, dt)
            ql, qr = (u - np.roll(u, 1)) * n, (np.roll(u, -1) - u) * n
            flux = (query_many(TableCells(table), None, 0.5 * (ql + qr), lin @ u)
                    - 0.5 * scheme.theta * (qr - ql))
            # measured: at most 1.1e-16
            assert np.max(np.abs(got - (u - dt * flux))) <= 1e-13
            u = got


# signed zeros, NaNs of both signs and infinities among the flux's arguments
FLUX_ARGUMENTS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf,
                                            -math.inf]), st.floats())


class TestGodunovFlux:
    @given(pairs=st.lists(st.tuples(FLUX_ARGUMENTS, FLUX_ARGUMENTS), min_size=1, max_size=80),
           m=st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_is_the_nested_maxima_bit_for_bit(self, pairs, m):
        ql, qr = np.array(pairs).T.copy()
        with np.errstate(over="ignore"):
            want = np.maximum(np.maximum(ql, 0.0), np.maximum(-qr, 0.0)) ** m
            assert godunov_power_flux(m, ql, qr).tobytes() == want.tobytes()


class TestJacobian:
    N = 64

    def _scheme(self, ham, kernel, drift, closed_form):
        n = self.N
        xs, ys = np.zeros(n), np.arange(n) / n
        table = periodized_weights(kernel, n)
        if closed_form:
            # the effective scheme above order one: A(x) in the coefficient slot
            form = ClosedForm(coefficient("two_plus_cos_y"), ham)
            return form.scheme(ys, table)
        a = 2.0 + np.cos(2.0 * np.pi * ys)
        return coefficient_scheme(1.0 / n, xs, ys, a, ham, p=0.7, table=table,
                                  const=-0.3 * a, drift=drift)

    @pytest.mark.parametrize("kernel, drift, closed_form", [
        pytest.param(constant_kernel(0.5), 0.0, False, id="kernel0-0.0-godunov"),
        pytest.param(constant_kernel(1.0), 0.3, False, id="kernel1-0.3-godunov"),
        pytest.param(constant_kernel(1.0), -0.3, False, id="kernel2--0.3-godunov"),
        pytest.param(tilt_kernel(1.2, 0.5), 0.0, False, id="kernel3-0.0-godunov"),
        pytest.param(constant_kernel(1.5), 0.0, True, id="closed_form-godunov"),
        # order one with the kernel's own drift (None: drift_vector's)
        pytest.param(tilt_kernel(1.0, 0.5), None, False, id="tilt1-drift-godunov"),
        pytest.param(quadratic_tilt_kernel(1.0, 0.5), None, False,
                     id="quadratic_tilt1-drift-godunov"),
    ])
    def test_matches_finite_differences(self, kernel, drift, closed_form, eikonal_ham):
        if drift is None:
            drift = drift_vector(kernel, tol=1e-8).b
        scheme = self._scheme(eikonal_ham, kernel, drift, closed_form)
        u = 0.3 * trig_poly(5, self.N).values
        e = 1e-6
        jac = scheme.jacobian(u)
        fd = np.empty_like(jac)
        for k in range(self.N):
            up, dn = u.copy(), u.copy()
            up[k] += e
            dn[k] -= e
            fd[:, k] = (scheme.residual(up) - scheme.residual(dn)) / (2 * e)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))
        # rows sum to zero: constants are annihilated
        assert np.max(np.abs(jac.sum(axis=1))) <= 1e-9 * np.max(np.abs(jac))
        # the M-matrix sign pattern, asymmetric kernels' compensator and drift
        # included: what makes the order-one spread a comparison bracket
        off = jac - np.diag(np.diag(jac))
        assert np.max(off) <= 0.0

    @pytest.mark.parametrize("kernel, drift, closed_form", [
        pytest.param(constant_kernel(1.0), 0.3, False, id="drift"),
        pytest.param(tilt_kernel(1.2, 0.5), 0.0, False, id="tilt"),
        pytest.param(constant_kernel(1.5), 0.0, True, id="closed_form"),
    ])
    def test_cached_linear_part_is_bit_identical(self, kernel, drift, closed_form,
                                                  eikonal_ham):
        # the state-free part is built once; later calls, at other states,
        # equal a fresh scheme's first call bit for bit
        u = 0.3 * trig_poly(5, self.N).values
        scheme = self._scheme(eikonal_ham, kernel, drift, closed_form)
        first = scheme.jacobian(u)
        first[:] = np.nan          # the caller's copy, not the cache
        for state in (u, 1.7 * u, np.zeros(self.N)):
            fresh = self._scheme(eikonal_ham, kernel, drift, closed_form)
            assert scheme.jacobian(state).tobytes() == fresh.jacobian(state).tobytes()

    def test_effective_sources_are_rejected(self):
        from hjhom.effective import EffectiveSource
        src = EffectiveSource(at=lambda x: lambda p, l: p * p - l, l_slope=1.0,
                              theta=lambda lo, hi: 4.0)
        n = 16
        scheme = src.scheme(np.arange(n) / n, periodized_weights(constant_kernel(0.5), n))
        with pytest.raises(ValueError):
            scheme.jacobian(np.zeros(n))


class TestBarriers:
    def test_constant_data_envelope(self, eikonal_ham):
        u0 = GridFunction(np.full(64, 1.0))
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
        prob = ParabolicProblem(oscillating_scheme(1.0 / 8.0, wavy_a, eikonal_ham, table), u0, 0.3)
        traj = solve(prob, SolverConfig())
        env = barrier_bounds(u0, 0.25, a_sup=3.0, growth_C=growth_bound(eikonal_ham),
                             m=2.0, kernel=kernel)
        for t, snap in zip(traj.times, traj.snapshots):
            assert np.all(snap.values <= env.upper(t) + 1e-9)
            assert np.all(snap.values >= env.lower(t) - 1e-9)

    def test_initial_layer_tables(self, eikonal_ham, wavy_a, unit_a):
        # the linear-in-time exact solution has layer table exactly t
        ham = model_bpm("one", "constant:1", 2.0)
        u0 = GridFunction(np.full(64, 0.0))
        traj = solve(_oscillating(u0, ham, unit_a, 1.0, 0.25, 0.4), SolverConfig())
        table = initial_layer_modulus(traj, u0)
        assert np.max(np.abs(table[:, 1] - table[:, 0])) <= 1e-10

        # flat data with vanishing forcing: the table is identically zero
        ham0 = model_bpm("one", "constant:0", 2.0)
        u0c = GridFunction(np.full(64, 2.0))
        traj0 = solve(_oscillating(u0c, ham0, unit_a, 0.5, 0.25, 0.3), SolverConfig())
        assert np.max(initial_layer_modulus(traj0, u0c)[:, 1]) == 0.0

        # oscillating run dominated by the mollification envelope
        n = 128
        u0s = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        kernel = constant_kernel(1.5)
        scheme = oscillating_scheme(1.0 / 8.0, wavy_a, eikonal_ham, periodized_weights(kernel, n))
        prob = ParabolicProblem(scheme, u0s, 0.3)
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
