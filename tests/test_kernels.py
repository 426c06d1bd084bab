import numpy as np
import pytest
from scipy.integrate import quad

from conftest import traced_peak_mb
from hjhom.grid import GridFunction
from hjhom.kernels import (_GAUSS_NODES, _GAUSS_WEIGHTS, BLOCK_VALUES, KernelSpec,
                           audit_ellipticity, constant_kernel,
                           drift_vector, kernel_from_table, modulus_log_integral,
                           modulus_omega_bar, normalizing_constant,
                           periodized_weights, quadratic_tilt_kernel, tilt_kernel)
from hjhom.operators import apply_table


def test_gauss_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(_GAUSS_NODES, nodes) and np.array_equal(_GAUSS_WEIGHTS, weights)
    assert _GAUSS_NODES.dtype == nodes.dtype and _GAUSS_WEIGHTS.dtype == weights.dtype


class TestNormalizingConstant:
    def test_order_one_is_inverse_pi(self):
        assert normalizing_constant(1.0) == pytest.approx(1.0 / np.pi, abs=1e-14)

    def test_literal_values(self):
        assert normalizing_constant(0.5) == pytest.approx(0.19947, abs=1e-4)
        assert normalizing_constant(1.5) == pytest.approx(0.29924, abs=1e-4)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_eigenfunction_oracle(self, sigma):
        # the constant must make the discrete operator act as the multiplier
        # -(2 pi)^sigma on cos(2 pi y); this pins the Gamma expression
        n = 2048
        k = constant_kernel(sigma)
        table = periodized_weights(k, n)
        u = np.cos(2 * np.pi * np.arange(n) / n)
        out = apply_table(u, table)
        fitted = -np.dot(out, u) / np.dot(u, u)
        assert fitted == pytest.approx((2 * np.pi) ** sigma, rel=2e-3)

    @pytest.mark.parametrize("sigma", [0.0, 2.0, -0.3, 2.4])
    def test_domain_errors(self, sigma):
        with pytest.raises(ValueError):
            normalizing_constant(sigma)


class TestModulus:
    def test_constant_density_has_zero_modulus(self):
        k = constant_kernel(1.0)
        for t in (0.01, 0.3, 1.0, 2.5):
            assert modulus_omega_bar(k, t) == 0.0

    def test_linear_tilt_modulus(self):
        k = tilt_kernel(1.0, 0.5)
        c = normalizing_constant(1.0)
        # sup of |C z/2| over |z| <= 0.4
        assert modulus_omega_bar(k, 0.4) == pytest.approx(c * 0.2, rel=1e-3)

    def test_log_integral_of_linear_tilt(self):
        # omega(r) = C r / 2, so the integral of omega(r)/r over (0, 1] is C/2
        k = tilt_kernel(1.0, 0.5)
        c = normalizing_constant(1.0)
        rep = modulus_log_integral(k)
        assert rep.finite
        assert rep.value + rep.tail_estimate == pytest.approx(c / 2, rel=1e-3)

    def test_log_integral_divergence_detected(self):
        c = normalizing_constant(1.0)

        def kbar(z):
            z = np.asarray(z, dtype=float)
            mod = 0.5 / np.log(np.e / np.maximum(np.abs(z), 1e-300))
            return c * np.where(np.abs(z) <= 1.0, 1.0 + np.where(z == 0, 0.0, mod), 1.0)

        k = KernelSpec(1.0, kbar, symmetric=False)
        rep = modulus_log_integral(k)
        assert not rep.finite

    @pytest.mark.parametrize("name, finite", [
        ("constant", True), ("tilt", True), ("tilt_down", True), ("quadratic_tilt", True),
        ("log_rough", False), ("table_log_rough", False), ("table_tilt", True)])
    def test_log_integral_matches_per_radius_loop(self, name, finite):
        # oracle: one linspace(-r, r, 257) sample of kbar per Gauss radius
        c = normalizing_constant(1.0)

        def rough(z):
            z = np.asarray(z, dtype=float)
            mod = 0.5 / np.log(np.e / np.maximum(np.abs(z), 1e-300))
            return c * np.where(np.abs(z) <= 1.0, 1.0 + np.where(z == 0, 0.0, mod), 1.0)

        zs = np.concatenate([-np.geomspace(1e-15, 3.0, 4000)[::-1], [0.0],
                             np.geomspace(1e-15, 3.0, 4000)])
        k = {"constant": constant_kernel(1.0), "tilt": tilt_kernel(1.0, 0.5),
             "tilt_down": tilt_kernel(1.0, -1.0),
             "quadratic_tilt": quadratic_tilt_kernel(1.0, 0.5),
             "log_rough": KernelSpec(1.0, rough, symmetric=False),
             "table_log_rough": kernel_from_table(1.0, zs, rough(zs)),
             "table_tilt": kernel_from_table(1.0, zs, tilt_kernel(1.0, 0.5).kbar(zs))}[name]
        nodes, weights = np.polynomial.legendre.leggauss(12)
        total = 0.0
        for j in range(48):
            lo, hi = 2.0 ** (-(j + 1)), 2.0 ** (-j)
            r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            omega = np.array([np.max(np.abs(k.kbar(np.linspace(-ri, ri, 257)) - k.kbar0()))
                              for ri in r])
            assert np.allclose(modulus_omega_bar(k, r, 257), omega, rtol=1e-12, atol=0.0)
            total += float(np.sum(0.5 * (hi - lo) * weights * omega / r))
        rep = modulus_log_integral(k)
        assert rep.finite == finite
        assert rep.value == pytest.approx(total, rel=1e-12, abs=0.0)
        assert modulus_omega_bar(k, 0.4) == modulus_omega_bar(k, np.array([0.4]))[0]


class TestEllipticityAudit:
    def test_wavy_coefficient_bound(self, wavy_a):
        rep = audit_ellipticity(wavy_a, constant_kernel(1.0))
        assert rep.passed
        assert rep.a0 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.witness is None

    def test_vanishing_coefficient_fails_with_witness(self):
        a = lambda x, y: 1.0 + np.cos(2 * np.pi * y) + 0.0 * x
        rep = audit_ellipticity(a, constant_kernel(1.0))
        assert not rep.passed
        assert rep.witness is not None
        x_w, y_w, val = rep.witness
        assert val <= 0.0
        assert y_w == pytest.approx(0.5, abs=1e-2)

    def test_zero_at_origin_fails(self):
        k = KernelSpec(1.0, lambda z: np.asarray(z, dtype=float) ** 2,
                       symmetric=True)
        rep = audit_ellipticity(lambda x, y: 1.0 + 0.0 * x * y, k)
        assert not rep.passed
        assert "kbar(0) = 0.0 is not positive" in rep.messages

    def test_asymmetric_order_one_requires_finite_modulus_integral(self):
        rep = audit_ellipticity(lambda x, y: 1.0 + 0.0 * x * y, tilt_kernel(1.0, 0.5))
        assert rep.passed
        assert rep.modulus_integral is not None and rep.modulus_integral.finite


class TestDrift:
    def test_symmetric_density_has_zero_drift(self):
        dv = drift_vector(constant_kernel(1.0), tol=1e-10)
        assert abs(dv.b) <= 1e-12
        assert dv.converged

    def test_linear_tilt_drift(self):
        # oracle: adaptive quadrature of (kbar(z) - kbar(-z)) / z on (0, 1]
        k = tilt_kernel(1.0, 0.5)
        oracle = quad(lambda z: (k.kbar(np.array([z]))[0]
                                 - k.kbar(np.array([-z]))[0]) / z, 0.0, 1.0)[0]
        dv = drift_vector(k, tol=1e-8)
        assert dv.converged
        assert dv.b == pytest.approx(oracle, abs=1e-8)
        assert dv.b == pytest.approx(1.0 / np.pi, abs=1e-6)

    def test_quadratic_tilt_drift(self):
        dv = drift_vector(quadratic_tilt_kernel(1.0, 0.5), tol=1e-8)
        assert dv.b == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-6)

    def test_drift_linear_in_asymmetric_part(self):
        b_half = drift_vector(tilt_kernel(1.0, 0.25), tol=1e-10).b
        b_full = drift_vector(tilt_kernel(1.0, 0.5), tol=1e-10).b
        assert b_full == pytest.approx(2.0 * b_half, rel=1e-9)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            drift_vector(tilt_kernel(0.5, 0.5))


class TestPeriodizedWeights:
    def test_weights_nonnegative(self):
        for k in (constant_kernel(0.5), tilt_kernel(1.0, 0.5), constant_kernel(1.9)):
            table = periodized_weights(k, 128)
            assert np.all(table.weights >= 0.0)

    def test_constants_annihilated_exactly(self):
        table = periodized_weights(tilt_kernel(1.0, 0.5), 128)
        out = apply_table(np.full(128, 5.0), table)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_eigenfunction_identity(self, sigma):
        n = 512
        table = periodized_weights(constant_kernel(sigma), n)
        u = np.cos(2 * np.pi * np.arange(n) / n)
        rel = np.max(np.abs(apply_table(u, table) + (2 * np.pi) ** sigma * u))
        assert rel / (2 * np.pi) ** sigma <= 2e-2

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_eigenfunction_error_decreases_under_refinement(self, sigma):
        errs = []
        for n in (128, 256, 512):
            table = periodized_weights(constant_kernel(sigma), n)
            u = np.cos(2 * np.pi * np.arange(n) / n)
            errs.append(np.max(np.abs(apply_table(u, table) + (2 * np.pi) ** sigma * u)))
        assert errs[2] < errs[1] < errs[0]
        rate = np.log2(errs[0] / errs[2]) / 2.0
        assert rate > 0.3  # measured refinement rate stays positive

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_tail_mass_scales_like_n_to_sigma(self, sigma):
        k = constant_kernel(sigma)
        t1 = periodized_weights(k, 256)
        t2 = periodized_weights(k, 512)
        assert t2.tail_mass / t1.tail_mass == pytest.approx(2.0 ** sigma, rel=1e-2)

    def test_symmetric_density_has_no_compensator(self):
        assert periodized_weights(constant_kernel(1.2), 128).comp_coeff == 0.0
        assert periodized_weights(tilt_kernel(1.2, 0.0), 128).comp_coeff == 0.0
        assert periodized_weights(tilt_kernel(1.2, 0.5), 128).comp_coeff != 0.0

    def test_tabulated_kernel_round_trip(self):
        base = tilt_kernel(1.0, 0.5)
        z = np.linspace(-3.0, 3.0, 20001)
        k = kernel_from_table(1.0, z, base.kbar(z))
        assert not k.symmetric
        dv = drift_vector(k, tol=1e-6)
        assert dv.b == pytest.approx(1.0 / np.pi, abs=1e-4)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            periodized_weights(constant_kernel(1.0), 4)


def _cell_integrals(fun, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    z = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    return np.sum(half[:, None] * _GAUSS_WEIGHTS[None, :] * fun(z), axis=1)


def two_pass_weights(k, n, image_budget=16):
    """The unblocked build: every cell's Gauss nodes in one array, and the
    kernel evaluated once for the zeroth moment and again for the hat moment.
    Returns (weights, antisym, comp_coeff, tail_mass)."""
    sigma = k.sigma
    h = 1.0 / n
    M = image_budget * n
    m = np.arange(1, M + 1)
    lo = m * h
    hi = (m + 1) * h

    def spread(density, sign):
        def kernel(z):
            return density(z) * z ** (-1.0 - sigma)

        k0 = _cell_integrals(kernel, lo, hi)
        k1 = _cell_integrals(lambda z: kernel(z) * (z - lo[:, None]) / h, lo, hi)
        out = np.zeros(n)
        np.add.at(out, m % n, k0 - k1)
        np.add.at(out, (m + 1) % n, k1)
        np.add.at(out, (-m) % n, sign * (k0 - k1))
        np.add.at(out, (-(m + 1)) % n, sign * k1)
        return out

    weights = spread(k.kbar_sym, 1.0)
    beta = 1.0 / (2.0 - sigma)
    u = 0.5 + 0.5 * _GAUSS_NODES
    s_inner = h ** (2.0 - sigma) * beta * float(
        np.sum(0.5 * _GAUSS_WEIGHTS * k.kbar_sym(h * u ** beta)))
    weights[1 % n] += s_inner / h ** 2
    weights[(-1) % n] += s_inner / h ** 2
    z_far = hi[-1]
    k_far = float(k.kbar_sym(np.array([z_far]))[0])
    weights += 2.0 * (k_far * z_far ** (-sigma) / sigma) / n

    antisym = np.zeros(n)
    comp = 0.0
    if not k.symmetric:
        antisym = spread(k.kbar_asym, -1.0)
        inner = float(np.sum(
            0.5 * _GAUSS_WEIGHTS * k.kbar_asym(h * u ** 2) * 2.0 * u ** (1.0 - 2.0 * sigma)))
        a_lin = h ** (-sigma) * inner
        antisym[1 % n] += a_lin
        antisym[(-1) % n] -= a_lin
        if sigma >= 1.0:
            clip_hi = np.minimum(hi, 1.0)
            keep = clip_hi > lo
            comp_cells = _cell_integrals(lambda z: k.kbar_asym(z) * z ** (-sigma),
                                         lo[keep], clip_hi[keep])
            comp = 2.0 * (float(np.sum(comp_cells)) + h ** (1.0 - sigma) * inner)
    return weights, antisym, comp, float(np.sum(weights))


class TestBlockedBuild:
    """periodized_weights takes its cells BLOCK_VALUES Gauss nodes at a time;
    every cell's sums, and so every table entry, match the two-pass build."""

    ROWS = BLOCK_VALUES // _GAUSS_NODES.size      # cells per block

    # at n = 49, 49 * (1 / 49) < 1, so z = 1 cuts a compensator cell
    @pytest.mark.parametrize("n", [8, 49, 1000])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("family", ["constant", "tilt", "quadratic_tilt"])
    def test_matches_two_pass_oracle(self, family, sigma, n):
        cells = 16 * n
        assert cells < self.ROWS or (cells > self.ROWS and cells % self.ROWS != 0)
        k = {"constant": constant_kernel(sigma), "tilt": tilt_kernel(sigma, 0.5),
             "quadratic_tilt": quadratic_tilt_kernel(sigma, -0.75)}[family]
        table = periodized_weights(k, n)
        weights, antisym, comp, tail = two_pass_weights(k, n)
        assert np.array_equal(table.weights, weights)
        assert np.array_equal(table.antisym, antisym)
        assert table.comp_coeff == comp
        assert table.tail_mass == tail

    @pytest.mark.parametrize("n", [49, 256])
    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), tilt_kernel(1.0, 0.5)])
    def test_kbar_evaluated_once_at_each_node_and_its_mirror(self, kernel, n):
        # both parts and the compensator share kbar(z) and kbar(-z) of every
        # cell node; the inner and far pieces and a cut cell add a few dozen
        seen = []
        counted = KernelSpec(kernel.sigma, lambda z: seen.append(np.size(z)) or kernel.kbar(z),
                             kernel.symmetric)
        periodized_weights(counted, n)
        nodes = 16 * n * _GAUSS_NODES.size
        assert 2 * nodes <= sum(seen) <= 2 * nodes + 100

    def test_traced_peak_of_a_large_build(self):
        # the two-pass build peaks near 80 MB here
        assert traced_peak_mb(lambda: periodized_weights(tilt_kernel(1.0, 0.5), 8192)) < 12.0
