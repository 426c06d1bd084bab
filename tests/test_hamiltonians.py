import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjhom.hamiltonians import (HamiltonianSpec, audit_regularity,
                                audit_superlinearity, coefficient,
                                coercivity_constants, growth_bound, model_bpm)


def replace(ham, **changes):
    """ham with the given fields changed, built (and checked) anew."""
    return HamiltonianSpec(**{**vars(ham), **changes})


class TestSuperlinearity:
    def test_eikonal_claim_passes(self, eikonal_ham):
        # H = |p|^2 - cos(2 pi y) with claimed pair (1, 1)
        assert (eikonal_ham.b0, eikonal_ham.C0) == (1.0, 1.0)
        rep = audit_superlinearity(eikonal_ham)
        assert rep.passed
        assert rep.worst_slack >= -1e-12

    def test_slack_vanishes_as_mu_tends_to_one(self, eikonal_ham):
        h = eikonal_ham
        mu = 1.0 - 1e-9
        x = y = np.array([0.3])
        p = np.array([1.7])
        slack = (mu * h.eval(x, y, p / mu) - h.eval(x, y, p)
                 - (1 - mu) * (h.b0 * np.abs(p) ** h.m - h.C0))
        assert abs(slack[0]) <= 1e-7

    def test_inflated_claim_caught_with_witness(self, eikonal_ham):
        inflated = replace(eikonal_ham, b0=5.0)
        rep = audit_superlinearity(inflated)
        assert not rep.passed
        assert rep.worst_slack < 0.0
        # the witness must certify the violation; for this slack the exact
        # minimizer over mu is 1/sqrt(5) at the largest sampled |p|
        x_w, y_w, p_w, mu_w = rep.witness
        slack = (mu_w * inflated.eval(x_w, y_w, p_w / mu_w)
                 - inflated.eval(x_w, y_w, p_w)
                 - (1 - mu_w) * (5.0 * abs(p_w) ** 2 - 1.0))
        assert slack == rep.worst_slack
        assert mu_w == pytest.approx(1.0 / np.sqrt(5.0), abs=0.05)
        assert abs(p_w) == 10.0

    def test_power_family_claim(self):
        # for H = b |p|^m - f the pair ((m-1) min b, sup |f|) always passes
        for b_spec, f_spec, m in (("two_plus_cos_y", "cos_y", 2.0),
                                  ("one", "cos_x_cos_y", 3.0),
                                  ("constant:0.5", "constant:2", 1.5)):
            ham = model_bpm(b_spec, f_spec, m)
            assert audit_superlinearity(ham, sample_budget=12 ** 4).passed


class TestRegularity:
    def test_quadratic_slope_constant(self, eikonal_ham):
        rep = audit_regularity(eikonal_ham)
        # |dH/dp| = 2|p| <= 2R, so L_p = max over radii of 2R/(1+R)
        assert rep.L_p == pytest.approx(20.0 / 11.0, abs=0.05)
        assert rep.L_p <= 2.0 + 1e-9
        assert rep.passed

    def test_no_slow_variable_dependence(self, eikonal_ham):
        rep = audit_regularity(eikonal_ham)
        assert rep.L_x == 0.0

    def test_cubic_growth_slope(self):
        ham = model_bpm("one", "cos_y", 3.0)
        rep = audit_regularity(ham)
        assert 2.4 <= rep.L_p <= 3.0 + 1e-9

    @pytest.mark.parametrize("b, f", [("one", "cos_y"), ("two_plus_cos_y", "cos_x_cos_y"),
                                      ("constant:2.5", "two_plus_cos_y")])
    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_claimed_constant_matches_gradient_oracle(self, b, f, m):
        # the claim from np.gradient's differences of b and f sampled on 256 x 256
        xs = np.arange(256) / 256
        slopes = [float(np.max(np.abs(np.gradient(coefficient(spec)(xs[:, None], xs), 1.0 / 256,
                                                  axis=axis))))
                  for spec in (b, f) for axis in (0, 1)]
        b_max = float(np.max(coefficient(b)(xs[:, None], xs)))
        want = max(max(slopes[:2]) + max(slopes[2:]), m * b_max, 1.0)
        assert model_bpm(b, f, m).L == want

    @pytest.mark.parametrize("m", [8.0, 12.0, 100.0])
    def test_high_power_meets_its_claim(self, m):
        # L = m b_max is the sup of |dH/dp| / (1 + R^(m-1)); a quotient that
        # steps away from p = 0 overshoots it by 3.8e-6 relative at m = 8
        ham = model_bpm("one", "cos_y", m)
        rep = audit_regularity(ham)
        assert ham.L == m
        assert rep.passed, rep.witness
        assert 0.99 * m <= rep.L_p <= m

    def test_understated_claim_flagged(self, eikonal_ham):
        tight = replace(eikonal_ham, L=0.1)
        rep = audit_regularity(tight)
        assert not rep.passed
        assert rep.witness is not None


class TestGrowthBound:
    def test_eikonal_constant_is_one(self, eikonal_ham):
        assert growth_bound(eikonal_ham) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian(self, eikonal_ham):
        zero = coefficient("constant:0")
        ham = replace(eikonal_ham, b=zero, f=zero, b_min=0.0, f_sup=0.0, C0=0.0)
        assert growth_bound(ham) == 0.0

    def test_doubled_quadratic(self, eikonal_ham):
        ham = replace(eikonal_ham, b=coefficient("constant:2"), f=coefficient("constant:0"),
                      b_min=2.0, f_sup=0.0, C0=0.0)
        assert growth_bound(ham) == pytest.approx(2.0, abs=0.02)


class TestCoercivityConstants:
    def test_quadratic_exponent_rationals(self):
        cert = coercivity_constants(2.0, 1.0, 1.0, 1.0, 0.0)
        assert cert.c_m == float(Fraction(1, 6))
        assert cert.C_m == float(Fraction(3, 4))

    def test_cubic_exponent(self):
        cert = coercivity_constants(3.0, 1.0, 1.0, 1.0, 0.0)
        assert cert.c_m == pytest.approx(1.0 / 30.0, abs=1e-15)
        assert cert.C_m == pytest.approx(1.0 / 4.0, abs=1e-15)

    @given(st.floats(min_value=1.05, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_endpoint_ordering(self, m):
        cert = coercivity_constants(m, 1.0, 1.0, 1.0, 0.0)
        assert 0.0 < cert.c_m <= cert.C_m
        assert cert.C_tilde > 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coercivity_constants(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_certificate_bounds_the_model(self, eikonal_ham):
        grow = growth_bound(eikonal_ham)
        cert0 = coercivity_constants(2.0, eikonal_ham.b0, eikonal_ham.C0, grow, 0.0)
        xs = np.arange(64) / 64
        ps = np.linspace(-2.0, 2.0, 101)
        X, Y, P = np.meshgrid(xs, xs, ps, indexing="ij")
        k_small = float(np.max(cert0.C_tilde * (1 + np.abs(P) ** 2)
                               - eikonal_ham.eval(X, Y, P)))
        cert = coercivity_constants(2.0, eikonal_ham.b0, eikonal_ham.C0, grow,
                                    max(k_small, 0.0))
        ps = np.linspace(-10.0, 10.0, 401)
        X, Y, P = np.meshgrid(xs, xs, ps, indexing="ij")
        H = eikonal_ham.eval(X, Y, P)
        bound = cert.C_tilde * (1 + np.abs(P) ** 2) - cert.K
        assert np.min(H - bound) >= -1e-10


class TestPowerForm:
    def test_fields_are_the_power_form_and_the_claims(self):
        params = inspect.signature(HamiltonianSpec).parameters
        assert tuple(HamiltonianSpec.__annotations__) == tuple(params) == (
            "b", "f", "m", "b_min", "f_sup", "b0", "C0", "L")
        assert all(p.default is inspect.Parameter.empty for p in params.values())

    @pytest.mark.parametrize("b, f, m", [("two_plus_cos_y", "cos_x_cos_y", 2.0),
                                         ("constant:0.5", "cos_y", 1.5)])
    def test_eval_is_the_power_form(self, b, f, m):
        xs = np.arange(16) / 16
        X, Y, P = np.meshgrid(xs, xs, np.linspace(-3.0, 3.0, 13), indexing="ij")
        want = coefficient(b)(X, Y) * np.abs(P) ** m - coefficient(f)(X, Y)
        assert np.array_equal(model_bpm(b, f, m).eval(X, Y, P), want)


class TestCoefficients:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            coefficient("no_such_shape")

    def test_constant_scaling(self):
        f = coefficient("constant:2.5")
        assert np.all(f(np.zeros(4), np.linspace(0, 1, 4)) == 2.5)

