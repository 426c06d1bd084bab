import numpy as np
import pytest

from conftest import trig_poly
from hjhom import kernels
from hjhom.grid import GridFunction
from hjhom.kernels import constant_kernel, normalizing_constant, periodized_weights, tilt_kernel
from hjhom.operators import apply_table, spectral_flap
from lemmas import corrector_remainder_J, eval_localized, spectral_gradient


class TestEvalOperator:
    """The operator evaluated by apply_table on its quadrature table."""

    def test_constants_map_to_zero(self):
        table = periodized_weights(tilt_kernel(1.0, 0.5), 64)
        out = apply_table(np.full(64, 5.0), table)
        assert np.max(np.abs(out)) == 0.0

    def test_cosine_eigenfunction(self):
        k = constant_kernel(1.0)
        n = 512
        table = periodized_weights(k, n)
        u = GridFunction.from_callable(lambda y: np.cos(2 * np.pi * y), n)
        out = apply_table(u.values, table)
        assert np.max(np.abs(out + 2 * np.pi * u.values)) <= 2e-2 * 2 * np.pi

    def test_tilted_kernel_self_convergence(self):
        # reference from the finest grid; coarser values must approach it
        k = tilt_kernel(1.0, 0.5)
        vals = {}
        for n in (1024, 2048, 4096, 8192):
            table = periodized_weights(k, n)
            u = np.cos(2 * np.pi * np.arange(n) / n)
            vals[n] = apply_table(u, table)[0]
        gaps = [abs(vals[n] - vals[8192]) for n in (1024, 2048, 4096)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("kernel", [constant_kernel(0.5), tilt_kernel(1.0, 0.5)],
                             ids=["constant", "tilt"])
    @pytest.mark.parametrize("n", [64, 96, 2048])
    def test_matches_the_deviation_form(self, kernel, n):
        # the oracle evaluates on the deviation from the mean against the
        # conjugate spectrum of c = weights + antisym, less dev * mass
        table = periodized_weights(kernel, n)
        c = table.weights + table.antisym
        # the tilt's sigma = 1 table carries a compensator
        assert (table.comp_coeff != 0.0) == (kernel.sigma == 1.0)
        # FFT roundoff scales with the operator's row norm: sum |c| off the
        # diagonal, |mass| on it and |comp_coeff| n / 2 on each neighbour.
        # Measured: up to 3e-16 max|u| norm, norm 96 (constant) and 5,900
        # (tilt) at n = 2048
        norm = np.sum(np.abs(c)) + abs(table.mass) + abs(table.comp_coeff) * n
        rng = np.random.default_rng(n)
        for u in (trig_poly(n, n).values + 3.0, rng.standard_normal(n)):
            dev = u - u.sum() / n
            want = np.fft.irfft(np.conj(np.fft.rfft(c)) * np.fft.rfft(dev), n=n) - dev * table.mass
            want -= table.comp_coeff * (np.roll(dev, -1) - np.roll(dev, 1)) * (n / 2.0)
            assert np.max(np.abs(apply_table(u, table) - want)) <= 1e-14 * norm * np.max(np.abs(u))

    def test_table_grid_mismatch(self):
        table = periodized_weights(constant_kernel(1.0), 64)
        with pytest.raises(ValueError, match="table built for n = 64, grid has n = 128"):
            apply_table(np.zeros(128), table)

    def test_monotonicity_at_touching_point(self):
        # u <= v with u(x0) = v(x0) forces I(u)(x0) <= I(v)(x0)
        k = constant_kernel(1.3)
        n = 128
        table = periodized_weights(k, n)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = trig_poly(int(rng.integers(1 << 30)), n).values
            bump = np.abs(trig_poly(int(rng.integers(1 << 30)), n).values)
            j0 = int(rng.integers(n))
            bump = bump - bump[j0]
            v = u + np.maximum(bump, 0.0)
            assert v[j0] == u[j0]
            assert apply_table(u, table)[j0] <= apply_table(v, table)[j0] + 1e-12


class TestSpectralFlap:
    def test_cosine_eigenfunction(self):
        u = GridFunction.from_callable(lambda y: np.cos(2 * np.pi * y), 256)
        out = spectral_flap(u, 1.0)
        assert np.max(np.abs(out.values - 2 * np.pi * u.values)) <= 1e-12

    def test_linearity_on_two_modes(self):
        n = 256
        y = np.arange(n) / n
        u = GridFunction(3 * np.cos(2 * np.pi * y) + np.cos(4 * np.pi * y))
        out = spectral_flap(u, 0.5)
        expect = (3 * (2 * np.pi) ** 0.5 * np.cos(2 * np.pi * y)
                  + (4 * np.pi) ** 0.5 * np.cos(4 * np.pi * y))
        assert np.max(np.abs(out.values - expect)) <= 1e-12

    def test_output_has_zero_mean(self):
        u = trig_poly(3, 256, scale=2.0)
        shifted = GridFunction(u.values + 4.0)
        assert abs(spectral_flap(shifted, 1.5).mean()) <= 1e-13

    @pytest.mark.parametrize("n", [100, 75])
    def test_oracles_at_any_grid_size(self, n):
        # numpy's FFT takes any n: the cosine eigenfunction and the exact
        # derivative hold at an even n that is no power of two and at an odd n
        y = np.arange(n) / n
        u = GridFunction(np.cos(2 * np.pi * y))
        out = spectral_flap(u, 1.0)
        assert np.max(np.abs(out.values - 2 * np.pi * u.values)) <= 1e-12
        out = spectral_gradient(GridFunction(np.sin(2 * np.pi * y)))
        assert np.max(np.abs(out.values - 2 * np.pi * np.cos(2 * np.pi * y))) <= 1e-11

    def test_spectral_gradient_exact_on_band_limited(self):
        n = 128
        y = np.arange(n) / n
        u = GridFunction(np.sin(2 * np.pi * y))
        out = spectral_gradient(u)
        assert np.max(np.abs(out.values - 2 * np.pi * np.cos(2 * np.pi * y))) <= 1e-11


class TestLocalizedSplit:
    def test_additivity_for_smooth_function(self, monkeypatch):
        monkeypatch.setattr(kernels, "IMAGES", 64)
        f = lambda y: np.sin(2 * np.pi * y) + 0.3 * np.cos(4 * np.pi * y)
        fp = lambda y: 2 * np.pi * np.cos(2 * np.pi * y) - 1.2 * np.pi * np.sin(4 * np.pi * y)
        fpp = lambda y: -(2 * np.pi) ** 2 * np.sin(2 * np.pi * y) \
            - 0.3 * (4 * np.pi) ** 2 * np.cos(4 * np.pi * y)
        for sigma in (0.5, 1.0, 1.5):
            k = tilt_kernel(sigma, 0.5)
            sups = []
            for n in (256, 1024):
                u = GridFunction.from_callable(f, n)
                table = periodized_weights(k, n)
                full = apply_table(u.values, table)
                j0 = n // 5
                x0 = j0 / n
                worst = 0.0
                for delta in (0.02, 0.1, 0.3):
                    sp = eval_localized(u, fp(x0), fpp(x0), j0, delta, k,
                                        image_budget=64,
                                        phi_diff=lambda z: f(x0 + z) - f(x0))
                    worst = max(worst, abs(sp.total - full[j0]))
                sups.append(worst)
            assert sups[1] <= 2e-3
            assert sups[1] < sups[0]

    def test_symmetric_kernel_outer_independent_of_gradient(self):
        k = constant_kernel(1.0)
        u = trig_poly(11, 512)
        a = eval_localized(u, 0.0, 0.0, 17, 0.1, k)
        b = eval_localized(u, 10.0, 0.0, 17, 0.1, k)
        assert a.outer == b.outer

    def test_quadratic_model_inner_closed_form(self):
        # model z^2/2 against the order-one constant density: inner = C delta
        k = constant_kernel(1.0)
        u = GridFunction(np.full(256, 0.0))
        c = normalizing_constant(1.0)
        for delta in (0.05, 0.2, 0.4):
            sp = eval_localized(u, 0.0, 1.0, 0, delta, k)
            assert sp.inner == pytest.approx(c * delta, abs=1e-12)

    def test_radius_below_one_cell_rejected(self):
        k = constant_kernel(1.0)
        u = GridFunction(np.full(64, 0.0))
        with pytest.raises(ValueError):
            eval_localized(u, 0.0, 0.0, 0, 0.5 / 64, k)


class TestRemainder:
    def test_constant_density_gives_exact_zero(self):
        psi = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 1024)
        J, _ = corrector_remainder_J(psi, constant_kernel(1.0), 1e-2, 0)
        assert J == 0.0

    def test_order_one_drift_limit(self):
        # at a node where cos(2 pi y) = 1 the remainder tends to -b * 2 pi,
        # the drift acting on the gradient of sin with the opposite
        # orientation to the truncated odd-moment coefficient b
        psi = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 4096)
        k = tilt_kernel(1.0, 0.5)
        vals = {}
        for eps in (1e-1, 1e-2, 1e-3):
            vals[eps], err = corrector_remainder_J(psi, k, eps, 0)
            assert err <= 1e-4
        # deviations shrink linearly in eps; Richardson-extrapolate the limit
        extrap = vals[1e-3] - (vals[1e-2] - vals[1e-3]) / 9.0
        assert extrap == pytest.approx(-2.0, abs=2e-3)
        assert vals[1e-3] == pytest.approx(-2.0, abs=5e-2)
        assert abs(vals[1e-2] + 2.0) < abs(vals[1e-1] + 2.0)

    def test_below_order_one_remainder_vanishes(self):
        psi = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 4096)
        k = tilt_kernel(0.5, 0.5)
        J3, _ = corrector_remainder_J(psi, k, 1e-3, 0)
        J1, _ = corrector_remainder_J(psi, k, 1e-1, 0)
        assert abs(J3) <= 5e-2
        assert abs(J3) < abs(J1)

    @pytest.mark.parametrize("kern", [tilt_kernel(1.0, 0.5), constant_kernel(1.0)])
    def test_rescaling_identity(self, kern):
        # eps^sigma I(psi(./eps))(x) + flap(psi)(x/eps) = J(psi, eps, x)
        eps = 1.0 / 8.0
        n_psi, n_x = 512, 4096
        psi = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), n_psi)
        psi_eps = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x / eps), n_x)
        table = periodized_weights(kern, n_x)
        flap = spectral_flap(psi, kern.sigma)
        for j0 in (0, 1024, 512):
            y_idx = int(round(((j0 / n_x) / eps % 1.0) * n_psi))
            lhs = (eps ** kern.sigma * apply_table(psi_eps.values, table)[j0]
                   + flap.values[y_idx])
            J, _ = corrector_remainder_J(psi, kern, eps, y_idx)
            assert lhs == pytest.approx(J, abs=2e-4)
