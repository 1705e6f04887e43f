import math

import mpmath
import numpy as np
import pytest
from scipy.special import expit

from swarmrel import specfun
from swarmrel.specfun import QuadratureError, SeriesError


# --- incomplete gamma ---------------------------------------------------------


def test_lower_gamma_closed_form_a1():
    # gamma(1, z) = 1 - e^-z, and Gamma(1) = 1 makes it equal to P(1, z)
    for z in (0.1, 1.0, 5.0):
        assert specfun.regularized_gamma(1.0, math.log(z)) == pytest.approx(1.0 - math.exp(-z),
                                                                             abs=1e-12)


def test_lower_gamma_a2():
    # Gamma(2) = 1, so P(2, z) is the lower incomplete gamma itself
    assert specfun.regularized_gamma(2.0, 0.0) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-12)


def test_regularized_gamma_limits():
    # the argument is log z: z = 0, z = 1e4, and a z past the float range
    assert specfun.regularized_gamma(3.7, -math.inf) == 0.0
    assert specfun.regularized_gamma(3.7, math.log(1e4)) == pytest.approx(1.0, abs=1e-12)
    assert specfun.regularized_gamma(3.7, 1e3) == 1.0


def test_regularized_gamma_where_z_underflows():
    # P(a, z) -> z^a / Gamma(a + 1) as z -> 0; from log z that holds where
    # z = e^-1000 is 0 in float, and at a = 1e-3 P is still e^-1 / Gamma(1.001)
    for a in (1e-12, 1e-3, 0.5):
        ref = math.exp(-1000.0 * a - math.lgamma(a + 1.0))
        assert specfun.regularized_gamma(a, -1000.0) == pytest.approx(ref, rel=1e-14), a


def test_regularized_gamma_monotone_and_bounded():
    for a in (0.5, 1.0, 7.4, 36.2):
        grid = np.linspace(0.0, 5.0 * a, 100)
        vals = [specfun.regularized_gamma(a, math.log(z) if z > 0 else -math.inf) for z in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_regularized_gamma_at_a_large_shape_near_its_median():
    # at a = 2.4e6 and z just below a the series needs about sqrt(72 a) =
    # 13,000 terms; oracle: 20-digit mpmath 1F1 form.  The leading factor
    # exp(a log z - z - lgamma(a)) cancels terms near 4e7, so only ~1e-8 holds
    for z, ref in ((2427214.786792604, 0.33884705173200314),
                   (2427862.0, 0.49991836906862279)):
        got = specfun.regularized_gamma(2427862.6521614995, math.log(z))
        assert got == pytest.approx(ref, rel=1e-8), z


def test_regularized_gamma_keeps_its_digits_at_a_large_shape():
    # the leading factor as log_gamma_peak(a) + a (log1p(u) - u) cancels
    # nothing; oracle: 30-digit mpmath 1F1 form at z = exp(log z) as given
    a = 2427862.6521614995
    for z in (2427214.786792604, 2427862.0):
        log_z = math.log(z)
        with mpmath.workdps(30):
            big_a, big_z = mpmath.mpf(a), mpmath.exp(log_z)
            factor = mpmath.exp(big_a * log_z - big_z - mpmath.loggamma(big_a + 1))
            ref = float(factor * mpmath.hyp1f1(1, big_a + 1, big_z, maxterms=10**6))
        assert specfun.regularized_gamma(a, log_z) == pytest.approx(ref, rel=1e-12), z


def test_log_gamma_peak_against_mpmath():
    # a log a - a - lgamma(a): direct below a = 100, Stirling series above
    for a in (0.3, 99.99, 100.0, 1e3, 1e8, 1e12):
        with mpmath.workdps(50):
            ref = float(a * mpmath.log(a) - a - mpmath.loggamma(a))
        assert specfun.log_gamma_peak(a) == pytest.approx(ref, abs=1e-13), a


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        specfun.regularized_gamma(0.0, 0.0)
    with pytest.raises(ValueError):
        specfun.regularized_gamma(-2.0, 0.0)


# --- Laguerre 1/2 ---------------------------------------------------------------


def test_laguerre_half_at_zero():
    assert specfun.laguerre_half(0.0) == pytest.approx(1.0, rel=1e-14)


def test_laguerre_half_dual_route():
    # Bessel route vs the confluent form 1F1(-1/2; 1; z), and a frozen 40-digit value
    for z in (-0.5, -2.0, -4.0, -10.0):
        assert specfun.laguerre_half(z) == pytest.approx(float(mpmath.hyp1f1(-0.5, 1.0, z)),
                                                         rel=1e-10)
    assert specfun.laguerre_half(-4.0) == pytest.approx(2.4036187697641058, rel=1e-12)


def test_laguerre_half_scaled_matches_unscaled_bessel_form():
    # e^(z/2) ((1 - z) I0(-z/2) - z I1(-z/2)) with unscaled Bessel terms
    for kappa in np.linspace(0.0, 30.0, 301):
        z = -float(kappa)
        with mpmath.workdps(30):
            unscaled = mpmath.exp(z / 2.0) * (
                (1.0 - z) * mpmath.besseli(0, -z / 2.0) - z * mpmath.besseli(1, -z / 2.0)
            )
        assert specfun.laguerre_half(z) == pytest.approx(float(unscaled), rel=1e-12)
    for z in (0.5, 2.0, 10.0):
        assert specfun.laguerre_half(z) == pytest.approx(float(mpmath.hyp1f1(-0.5, 1.0, z)),
                                                         rel=1e-10)


def test_laguerre_half_against_mpmath_over_the_kappa_range():
    # both routes and their seam at kappa = 30, against 40-digit 1F1(-1/2; 1; -kappa)
    kappas = np.concatenate([np.logspace(-8.0, 12.0, 161), [1e200, 29.99, 30.0, 30.01]])
    with mpmath.workdps(40):
        for kappa in kappas:
            ref = mpmath.hyp1f1(-0.5, 1, -mpmath.mpf(float(kappa)))
            got = specfun.laguerre_half(-float(kappa))
            assert float(abs(got - ref) / ref) <= 1e-14, kappa


def test_laguerre_half_large_kappa_is_finite():
    # unscaled I0(kappa/2) overflows a float beyond kappa ~ 1420; L(-kappa) ~ 2 sqrt(kappa/pi)
    for kappa in (1500.0, 1e5, 1e9):
        value = specfun.laguerre_half(-kappa)
        assert math.isfinite(value)
        assert value == pytest.approx(2.0 * math.sqrt(kappa / math.pi), rel=1e-3)


# --- hypergeometric series -------------------------------------------------------


def _hyp2f2(a1, a2, b1, b2, z):
    return specfun.hyp2f2_with_scale(a1, a2, b1, b2, z)[0]


def test_hyp_at_zero_is_one():
    assert specfun.hyp2f2_with_scale(4.0, 2.0, 1.0, 3.0, 0.0) == (1.0, 1.0)


def test_hyp2f2_pochhammer_cancellation():
    # identical upper/lower parameters collapse to exp(z)
    for z in (0.5, 2.0):
        assert _hyp2f2(1.3, 0.7, 1.3, 0.7, z) == pytest.approx(math.exp(z), rel=1e-11)


def test_hyp2f2_frozen_oracle_value():
    # mpmath.hyper([1.5, 2.5], [0.5, 3.5], 1.0) at 40 digits
    assert _hyp2f2(1.5, 2.5, 0.5, 3.5, 1.0) == pytest.approx(5.2430420959827282, rel=1e-10)


def test_hyp1f1_negative_argument():
    # 1F1(1; 2; -z) = (1 - e^-z)/z, as 2F2(1, c; 2, c; -z) with c cancelling:
    # the series' alternating terms at negative argument
    for z in (0.3, 1.0, 3.0):
        assert _hyp2f2(1.0, 0.7, 2.0, 0.7, -z) == pytest.approx(
            (1 - math.exp(-z)) / z, rel=1e-11
        )


def test_series_termination_stability(monkeypatch):
    # doubling the term cap must not move a converged value
    monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-12)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a1, a2 = rng.uniform(0.2, 6.0, 2)
        b1, b2 = rng.uniform(0.4, 6.0, 2)
        z = rng.uniform(-20.0, 20.0)
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 10_000)
        v1 = _hyp2f2(a1, a2, b1, b2, z)
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20_000)
        v2 = _hyp2f2(a1, a2, b1, b2, z)
        assert v2 == pytest.approx(v1, rel=1e-11)


def test_series_budget_error(monkeypatch):
    monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-12)
    monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 10)
    with pytest.raises(SeriesError):
        _hyp2f2(3.0, 2.0, 0.5, 1.5, 50.0)


def test_lower_param_validation():
    with pytest.raises(ValueError):
        _hyp2f2(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        _hyp2f2(1.0, 1.0, -2.0, 1.0, 1.0)


# --- Tricomi function -------------------------------------------------------------


def _tricomi_u(a, b, z):
    # Psi(a, b; z) from its log-scaled form log(z^a Psi)
    return math.exp(specfun.log_tricomi_u_scaled(a, b, z) - a * math.log(z))



def test_tricomi_known_identity():
    # U(a, a+1, z) = z^-a
    assert _tricomi_u(1.0, 2.0, 2.0) == pytest.approx(0.5, rel=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.5, 5.0)
        z = rng.uniform(0.1, 10.0)
        assert _tricomi_u(a, a + 1.0, z) == pytest.approx(z**-a, rel=1e-10)


def test_tricomi_frozen_oracle_value():
    # mpmath.hyperu(2.3, 1.1, 0.7) at 40 digits
    assert _tricomi_u(2.3, 1.1, 0.7) == pytest.approx(0.20808430012256138, rel=1e-8)


def test_tricomi_leading_asymptotic():
    # z^a * U(a, b, z) -> 1 as z grows
    assert _tricomi_u(1.7, 0.9, 1e4) * 1e4**1.7 == pytest.approx(1.0, abs=1e-2)
    assert math.exp(specfun.log_tricomi_u_scaled(1.7, 0.9, 1e4)) == pytest.approx(1.0, abs=1e-2)


def test_tricomi_small_shape_endpoint():
    # a < 1 widens the left tail of the peak-centred integrand to e^(a x)
    assert _tricomi_u(0.4, 1.4, 3.0) == pytest.approx(3.0**-0.4, rel=1e-9)


def test_tricomi_small_shape_against_mpmath():
    # for a <= 1 the integrand's left tail in x = log(s/s*) decays only like
    # e^(a x); the quadrature runs in y = a x, where it decays like e^y.  Down
    # to z ~ 1e-150 the mass sits at s far below 1, where a substitution
    # s = w^(1/a) would underflow
    rng = np.random.default_rng(2024)
    for _ in range(12):
        a = float(10.0 ** rng.uniform(-3.0, 0.0))
        b = float(rng.uniform(-20.0, 5.0))
        z = float(10.0 ** rng.uniform(-150.0, 3.0))
        with mpmath.workdps(30):
            ref = float(a * mpmath.log(z) + mpmath.log(mpmath.hyperu(a, b, z)))
        assert specfun.log_tricomi_u_scaled(a, b, z) == pytest.approx(ref, abs=1e-9)


def test_tricomi_huge_shape_keeps_its_digits():
    # at a = 1e9, a log s* - s* - lgamma(a) cancels to ~1e-6 unless it is
    # taken from the Stirling series; oracle: 80-digit mpmath quadrature of
    # the defining integral
    got = specfun.log_tricomi_u_scaled(1e9, 999999996.0, 1e12)
    assert got == pytest.approx(-0.0049975016654026957891, abs=1e-12)


def test_tricomi_huge_power_at_a_narrow_peak():
    # a = 4.17e10, power = b - a - 1 = -5.94e31 and z = 4.2e12, from a member
    # stage: the peak is 4.9e-6 wide, and power (log1p(s/z) - log1p(s*/z))
    # keeps its digits only as one log1p; oracle: 60-digit mpmath quadrature
    # of the defining integral around its peak
    got = specfun.log_tricomi_u_scaled(41713386031.662895, -5.940068790968217e31,
                                       4209335318142.378)
    assert got == pytest.approx(-1839290552166.6482771, rel=1e-14)


def test_tricomi_domain():
    with pytest.raises(ValueError):
        specfun.log_tricomi_u_scaled(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.log_tricomi_u_scaled(1.0, 1.0, 0.0)


# --- quadrature over the real line --------------------------------------------------
# each test maps its integral onto the line itself: (0, 1) by t = logistic(y),
# (0, inf) by t = e^y


def test_quad_polynomial():
    def f(y):
        t = expit(y)
        return 3 * t * t * t * expit(-y)

    assert specfun.adaptive_quad(f, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_quad_exponential_tail():
    def f(y):
        t = np.exp(y)
        return np.exp(-t) * t

    assert specfun.adaptive_quad(f, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_quad_gaussian_moment():
    def f(y):
        t = np.exp(y)
        return t * np.exp(-t * t) * t

    assert specfun.adaptive_quad(f, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_quad_shifted_lower_limit():
    def f(y):
        t = 2.0 + np.exp(y)
        return np.exp(-(t - 2.0)) * np.exp(y)

    assert specfun.adaptive_quad(f, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_quad_integrable_endpoint_singularity():
    # 1/sqrt(t) on (0, 1] integrates to 2; in y the singular end is a tail
    # that decays only like e^(y/2)
    def f(y):
        t = expit(y)
        return 1.0 / np.sqrt(t) * t * expit(-y)

    assert specfun.adaptive_quad(f, 1.0, rel_tol=1e-9, abs_tol=0.0) == pytest.approx(
        2.0, rel=1e-6
    )


def test_quad_narrow_peak():
    # a Gaussian of width 1e-4, given its width, as the head CDF's Gamma
    # peak is near shape 1e8
    def f(x):
        return np.exp(-0.5 * (x / 1e-4) ** 2)

    got = specfun.adaptive_quad(f, 1e-4, rel_tol=1e-12, abs_tol=0.0)
    assert got == pytest.approx(1e-4 * math.sqrt(2.0 * math.pi), rel=1e-12)


def test_quad_non_decaying_integrand_raises():
    with pytest.raises(QuadratureError):
        specfun.adaptive_quad(np.ones_like, 1.0)
