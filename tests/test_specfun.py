import math

import numpy as np
import pytest

from swarmrel import specfun
from swarmrel.specfun import SeriesError


# --- incomplete gamma ---------------------------------------------------------


def test_lower_gamma_closed_form_a1():
    # gamma(1, z) = 1 - e^-z, and Gamma(1) = 1 makes it equal to P(1, z)
    for z in (0.1, 1.0, 5.0):
        assert specfun.regularized_gamma(1.0, z) == pytest.approx(1.0 - math.exp(-z), abs=1e-12)


def test_lower_gamma_a2():
    # Gamma(2) = 1, so P(2, z) is the lower incomplete gamma itself
    assert specfun.regularized_gamma(2.0, 1.0) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-12)


def test_regularized_gamma_limits():
    assert specfun.regularized_gamma(3.7, 0.0) == 0.0
    assert specfun.regularized_gamma(3.7, 1e4) == pytest.approx(1.0, abs=1e-12)


def test_regularized_gamma_monotone_and_bounded():
    for a in (0.5, 1.0, 7.4, 36.2):
        grid = np.linspace(0.0, 5.0 * a, 100)
        vals = [specfun.regularized_gamma(a, z) for z in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        specfun.regularized_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.regularized_gamma(-2.0, 1.0)
    with pytest.raises(ValueError):
        specfun.log_gamma(0.0)


# --- Bessel I0 / I1 -----------------------------------------------------------


def _i0_series_oracle(z, terms=40):
    q = 0.25 * z * z
    return sum(q**k / math.factorial(k) ** 2 for k in range(terms))


def test_bessel_at_zero():
    assert specfun.bessel_i0(0.0) == 1.0
    assert specfun.bessel_i1(0.0) == 0.0


def test_bessel_i0_series_oracle():
    assert specfun.bessel_i0(1.0) == pytest.approx(_i0_series_oracle(1.0), rel=1e-14)
    assert specfun.bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)


def test_bessel_symmetry():
    for z in (0.5, 2.0, 10.0):
        assert specfun.bessel_i0(-z) == specfun.bessel_i0(z)
        assert specfun.bessel_i1(-z) == -specfun.bessel_i1(z)


def test_bessel_against_frozen_oracle_values():
    # mpmath.besseli at 40 digits
    assert specfun.bessel_i0(20.0) == pytest.approx(43558282.559553533, rel=1e-12)
    assert specfun.bessel_i1(2.5) == pytest.approx(2.5167162452886984, rel=1e-13)
    assert specfun.bessel_i1(30.0) == pytest.approx(768532038938.95700, rel=1e-10)


def test_bessel_series_asymptotic_seam():
    # both evaluation regimes hit full accuracy on their side of the cutoff
    assert specfun.bessel_i0(14.9) == pytest.approx(308375.57868743920, rel=1e-12)
    assert specfun.bessel_i0(15.1) == pytest.approx(374103.41119040899, rel=1e-12)
    assert specfun.bessel_i1(14.9) == pytest.approx(297840.69477957431, rel=1e-12)
    assert specfun.bessel_i1(15.1) == pytest.approx(361495.56618540161, rel=1e-12)


# --- Laguerre 1/2 ---------------------------------------------------------------


def test_laguerre_half_at_zero():
    assert specfun.laguerre_half(0.0) == pytest.approx(1.0, rel=1e-14)


def test_laguerre_half_dual_route():
    # Bessel route vs confluent-series route, and a frozen 40-digit value
    for z in (-0.5, -2.0, -4.0, -10.0):
        assert specfun.laguerre_half(z) == pytest.approx(
            specfun.hyp1f1(-0.5, 1.0, z), rel=1e-10
        )
    assert specfun.laguerre_half(-4.0) == pytest.approx(2.4036187697641058, rel=1e-12)


def test_laguerre_half_scaled_matches_unscaled_bessel_form():
    # e^(z/2) ((1 - z) I0(-z/2) - z I1(-z/2)) with unscaled Bessel terms
    for kappa in np.linspace(0.0, 30.0, 301):
        z = -float(kappa)
        unscaled = math.exp(z / 2.0) * (
            (1.0 - z) * specfun.bessel_i0(-z / 2.0) - z * specfun.bessel_i1(-z / 2.0)
        )
        assert specfun.laguerre_half(z) == pytest.approx(unscaled, rel=1e-12)
    for z in (0.5, 2.0, 10.0):
        assert specfun.laguerre_half(z) == pytest.approx(specfun.hyp1f1(-0.5, 1.0, z), rel=1e-10)


def test_laguerre_half_large_kappa_is_finite():
    # unscaled I0(kappa/2) overflows a float beyond kappa ~ 1420; L(-kappa) ~ 2 sqrt(kappa/pi)
    for kappa in (1500.0, 1e5, 1e9):
        value = specfun.laguerre_half(-kappa)
        assert math.isfinite(value)
        assert value == pytest.approx(2.0 * math.sqrt(kappa / math.pi), rel=1e-3)


# --- hypergeometric series -------------------------------------------------------


def test_hyp_at_zero_is_one():
    assert specfun.hyp1f1(0.3, 1.7, 0.0) == 1.0
    assert specfun.hyp2f2(4.0, 2.0, 1.0, 3.0, 0.0) == 1.0


def test_hyp2f2_pochhammer_cancellation():
    # identical upper/lower parameters collapse to exp(z)
    for z in (0.5, 2.0):
        assert specfun.hyp2f2(1.3, 0.7, 1.3, 0.7, z) == pytest.approx(math.exp(z), rel=1e-11)


def test_hyp2f2_frozen_oracle_value():
    # mpmath.hyper([1.5, 2.5], [0.5, 3.5], 1.0) at 40 digits
    assert specfun.hyp2f2(1.5, 2.5, 0.5, 3.5, 1.0) == pytest.approx(
        5.2430420959827282, rel=1e-10
    )


def test_hyp1f1_negative_argument():
    # 1F1(1; 2; -z) = (1 - e^-z)/z
    for z in (0.3, 1.0, 3.0):
        assert specfun.hyp1f1(1.0, 2.0, -z) == pytest.approx((1 - math.exp(-z)) / z, rel=1e-11)


def test_series_termination_stability(monkeypatch):
    # doubling the term cap must not move a converged value
    monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-12)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a1, a2 = rng.uniform(0.2, 6.0, 2)
        b1, b2 = rng.uniform(0.4, 6.0, 2)
        z = rng.uniform(-20.0, 20.0)
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 10_000)
        v1 = specfun.hyp2f2(a1, a2, b1, b2, z)
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20_000)
        v2 = specfun.hyp2f2(a1, a2, b1, b2, z)
        assert v2 == pytest.approx(v1, rel=1e-11)


def test_series_budget_error(monkeypatch):
    monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-12)
    monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 10)
    with pytest.raises(SeriesError):
        specfun.hyp2f2(3.0, 2.0, 0.5, 1.5, 50.0)


def test_lower_param_validation():
    with pytest.raises(ValueError):
        specfun.hyp1f1(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.hyp2f2(1.0, 1.0, -2.0, 1.0, 1.0)


# --- Tricomi function -------------------------------------------------------------


def test_tricomi_known_identity():
    # U(a, a+1, z) = z^-a
    assert specfun.tricomi_u(1.0, 2.0, 2.0) == pytest.approx(0.5, rel=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.5, 5.0)
        z = rng.uniform(0.1, 10.0)
        assert specfun.tricomi_u(a, a + 1.0, z) == pytest.approx(z**-a, rel=1e-10)


def test_tricomi_frozen_oracle_value():
    # mpmath.hyperu(2.3, 1.1, 0.7) at 40 digits
    assert specfun.tricomi_u(2.3, 1.1, 0.7) == pytest.approx(0.20808430012256138, rel=1e-8)


def test_tricomi_leading_asymptotic():
    # z^a * U(a, b, z) -> 1 as z grows
    assert specfun.tricomi_u(1.7, 0.9, 1e4) * 1e4**1.7 == pytest.approx(1.0, abs=1e-2)
    assert math.exp(specfun.log_tricomi_u_scaled(1.7, 0.9, 1e4)) == pytest.approx(1.0, abs=1e-2)


def test_tricomi_small_shape_endpoint():
    # a < 1 widens the left tail of the peak-centred integrand to e^(a x)
    assert specfun.tricomi_u(0.4, 1.4, 3.0) == pytest.approx(3.0**-0.4, rel=1e-9)


def test_tricomi_small_shape_against_mpmath():
    # for a <= 1 the integrand's left tail in x = log(s/s*) decays only like
    # e^(a x); the quadrature runs in y = a x, where it decays like e^y.  Down
    # to z ~ 1e-150 the mass sits at s far below 1, where a substitution
    # s = w^(1/a) would underflow
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    for _ in range(12):
        a = float(10.0 ** rng.uniform(-3.0, 0.0))
        b = float(rng.uniform(-20.0, 5.0))
        z = float(10.0 ** rng.uniform(-150.0, 3.0))
        with mpmath.workdps(30):
            ref = float(a * mpmath.log(z) + mpmath.log(mpmath.hyperu(a, b, z)))
        assert specfun.log_tricomi_u_scaled(a, b, z) == pytest.approx(ref, abs=1e-9)


def test_tricomi_domain():
    with pytest.raises(ValueError):
        specfun.tricomi_u(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.tricomi_u(1.0, 1.0, 0.0)


# --- adaptive quadrature ------------------------------------------------------------


def test_quad_polynomial():
    assert specfun.adaptive_quad(lambda t: 3 * t * t, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_quad_exponential_tail():
    assert specfun.adaptive_quad(lambda t: math.exp(-t), 0.0, math.inf) == pytest.approx(
        1.0, abs=1e-10
    )


def test_quad_gaussian_moment():
    assert specfun.adaptive_quad(lambda t: t * math.exp(-t * t), 0.0, math.inf) == pytest.approx(
        0.5, abs=1e-10
    )


def test_quad_shifted_lower_limit():
    assert specfun.adaptive_quad(lambda t: math.exp(-(t - 2.0)), 2.0, math.inf) == pytest.approx(
        1.0, abs=1e-10
    )


def test_quad_empty_and_bad_ranges():
    assert specfun.adaptive_quad(lambda t: t, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        specfun.adaptive_quad(lambda t: t, 2.0, 1.0)


def test_quad_integrable_endpoint_singularity():
    # 1/sqrt(t) on (0, 1] integrates to 2
    assert specfun.adaptive_quad(
        lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, rel_tol=1e-9, abs_tol=0.0, max_panels=20000
    ) == pytest.approx(2.0, rel=1e-6)
