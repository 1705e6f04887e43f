import math

import numpy as np
import pytest
from scipy import integrate, special

from swarmrel import analytic, fading, geometry, scenario
from swarmrel.analytic import GammaFit, InvGammaFit

from conftest import make_config


# --- moment matching ------------------------------------------------------------


def test_gamma_fit_arithmetic():
    assert analytic.gamma_fit(1.0, 1.0) == GammaFit(a=1.0, b=1.0)
    assert analytic.gamma_fit(2.0, 1.0) == GammaFit(a=4.0, b=2.0)


def test_inv_gamma_fit_arithmetic():
    assert analytic.inv_gamma_fit(1.0, 1.0) == InvGammaFit(a=3.0, b=2.0)
    assert analytic.inv_gamma_fit(2.0, 4.0) == InvGammaFit(a=3.0, b=4.0)


def _gamma_moments(fit):
    return fit.a / fit.b, fit.a / fit.b**2


def _inv_gamma_moments(fit):
    return fit.b / (fit.a - 1.0), fit.b**2 / ((fit.a - 1.0) ** 2 * (fit.a - 2.0))


def test_fits_roundtrip_moments():
    rng = np.random.default_rng(0)
    for _ in range(25):
        mu = rng.uniform(1e-6, 10.0)
        nu = rng.uniform(1e-9, 5.0)
        assert _gamma_moments(analytic.gamma_fit(mu, nu)) == pytest.approx((mu, nu), rel=1e-12)
        ig = analytic.inv_gamma_fit(mu, nu)
        assert _inv_gamma_moments(ig) == pytest.approx((mu, nu), rel=1e-12)


def test_fit_rejects_nonpositive_moments():
    with pytest.raises(ValueError):
        analytic.gamma_fit(0.0, 1.0)
    with pytest.raises(ValueError):
        analytic.inv_gamma_fit(1.0, -1.0)


# --- closed-form moments vs quadrature --------------------------------------------


def _distance_moment_oracle(config, q):
    top = math.hypot(config.coverage_radius_m, config.swarm_altitude_m)
    h = config.swarm_altitude_m
    r2 = config.coverage_radius_m**2
    return integrate.quad(lambda u: u**-q * 2.0 * u / r2, h, top, limit=200)[0]


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_head_signal_moments_match_quadrature(alpha):
    cfg = make_config(pathloss_exp_cell=alpha)
    m1, m2, _ = fading.rician_moments(4.0)
    mu_ref = _distance_moment_oracle(cfg, alpha / 2.0) * m1
    nu_ref = _distance_moment_oracle(cfg, alpha) * m2 - mu_ref**2
    mu, nu = analytic.moments_head_signal(cfg)
    assert mu == pytest.approx(mu_ref, rel=1e-8)
    assert nu == pytest.approx(nu_ref, rel=1e-8)
    assert nu >= 0.0


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_interference_moments_match_quadrature(alpha):
    cfg = make_config(pathloss_exp_cell=alpha)
    _, m2, m4 = fading.rician_moments(4.0)
    mu_ref = 8.0 * _distance_moment_oracle(cfg, alpha) * m2
    nu_ref = 8.0 * (_distance_moment_oracle(cfg, 2.0 * alpha) * m4
                    - (_distance_moment_oracle(cfg, alpha) * m2) ** 2)
    mu, nu = analytic.moments_interference(cfg)
    assert mu == pytest.approx(mu_ref, rel=1e-8)
    assert nu == pytest.approx(nu_ref, rel=1e-8)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_pathloss_sum_moments_match_quadrature(alpha):
    cfg = make_config(pathloss_exp_cell=alpha)
    mu_ref = 8.0 * _distance_moment_oracle(cfg, alpha)
    nu_ref = 8.0 * (_distance_moment_oracle(cfg, 2.0 * alpha) - _distance_moment_oracle(cfg, alpha) ** 2)
    mu, nu = analytic.moments_pathloss_sum(cfg)
    assert mu == pytest.approx(mu_ref, rel=1e-8)
    assert nu == pytest.approx(nu_ref, rel=1e-8)
    assert nu >= 0.0


def test_reference_distance_moment_values(config):
    # exponent 2 over R=900, H=300: E[d^-2] = ln(10)/810000, and the mean of
    # d^-1 is twice (sqrt(R^2+H^2) - H)/R^2
    per_term_mu, _ = analytic.moments_pathloss_sum(make_config(m_available=1))
    assert per_term_mu == pytest.approx(math.log(10.0) / 810000.0, rel=1e-12)
    assert per_term_mu == pytest.approx(2.8427e-6, rel=1e-4)
    mu_sig, _ = analytic.moments_head_signal(config)
    root_factor = 2.0 * (math.sqrt(900.0**2 + 300.0**2) - 300.0) / 810000.0
    assert root_factor == pytest.approx(2.0 * 8.0084e-4, rel=1e-4)
    assert mu_sig == pytest.approx(root_factor * fading.rician_mean_magnitude(4.0), rel=1e-12)


def test_distance_moments_continuous_at_exponent_two():
    # one ulp above exponent 2, (top^p - H^p)/p with p ~ -4e-16 kept only
    # a digit or two; the expm1 form is continuous through p = 0
    at_two = analytic.reliability(make_config(pathloss_exp_cell=2.0))
    above = analytic.reliability(make_config(pathloss_exp_cell=2.0000000000000004))
    for name in ("p_head", "p_member", "p_phase2", "eta"):
        assert getattr(above, name) == pytest.approx(getattr(at_two, name), abs=1e-9), name


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_distance_moments_at_short_spans_against_mpmath(alpha):
    # coverage radius 1e-2 to 1e-8 of the altitude: E[d^-2q] and E[d^-q]^2
    # agree to 4 log10(ratio) digits, so their difference is rounding noise,
    # while the variance itself is positive and known to 80 digits
    mpmath = pytest.importorskip("mpmath")

    def moment(h, r, q):  # E[d^-q] with d^2 uniform on [h^2, h^2 + r^2]
        a, b, e = h * h, h * h + r * r, 1 - mpmath.mpf(q) / 2
        return mpmath.log(b / a) / (r * r) if e == 0 else (b**e - a**e) / (e * r * r)

    for ratio in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        cfg = make_config(pathloss_exp_cell=alpha, coverage_radius_m=300.0 * ratio)
        with mpmath.workdps(80):
            h, r = mpmath.mpf(cfg.swarm_altitude_m), mpmath.mpf(cfg.coverage_radius_m)
            m1, m2, m4 = map(mpmath.mpf, fading.rician_moments(cfg.rician_k))
            cases = (
                (analytic.moments_head_signal, alpha / 2, m1, m2, 1),
                (analytic.moments_interference, alpha, m2, m4, cfg.m_occupied),
                (analytic.moments_pathloss_sum, alpha, 1, 1, cfg.m_available),
            )
            for moments, q, fade1, fade2, count in cases:
                mean = moment(h, r, q) * fade1
                var = moment(h, r, 2 * q) * fade2 - mean * mean
                mu, nu = moments(cfg)
                # relative errors: the values are far below approx's absolute floor
                assert abs(mu / float(count * mean) - 1.0) <= 1e-13
                assert abs(nu / float(count * var) - 1.0) <= 1e-12, (moments, ratio)


def test_reliability_continuous_down_to_short_spans():
    # below a ratio of about 1e-3 the cancelled variance made analyze exit 3
    # or follow the sign of rounding noise
    wide = analytic.reliability(make_config(coverage_radius_m=3.0))
    for ratio in (1e-3, 1e-4, 1e-6, 1e-8):
        near = analytic.reliability(make_config(coverage_radius_m=300.0 * ratio))
        for name in ("p_head", "p_member", "p_phase2", "eta"):
            assert getattr(near, name) == pytest.approx(getattr(wide, name), abs=1e-6), name


def test_interference_moments_empty():
    cfg = make_config(m_occupied=0)
    assert analytic.moments_interference(cfg) == (0.0, 0.0)


# --- decode probabilities -----------------------------------------------------------


def _head_cdf_oracle(theta, config):
    """Independent route: scipy quadrature of the ratio-CDF integral."""
    mu_h, nu_h = analytic.moments_head_signal(config)
    m0 = config.m_available
    a = (m0 * mu_h) ** 2 / (m0 * nu_h)
    b = (m0 * mu_h) / (m0 * nu_h)
    mu_i, nu_i = analytic.moments_interference(config)
    c = mu_i**2 / nu_i
    d = mu_i / nu_i

    def f(v):
        dens = math.exp((c - 1.0) * math.log(v) - v - special.gammaln(c))
        return dens * special.gammainc(a, b * math.sqrt(theta * v / d))

    return integrate.quad(f, 0.0, np.inf, limit=400)[0]


def _member_oracle(theta, config):
    """Independent route: scipy quadrature against the polynomial CDF."""
    mu_y, nu_y = analytic.moments_pathloss_sum(config)
    r = mu_y**2 / nu_y
    ay, by = r + 2.0, (r + 1.0) * mu_y
    mu_i, nu_i = analytic.moments_interference(config)
    c = mu_i**2 / nu_i
    d = mu_i / nu_i

    def f(v):
        dens = math.exp((c - 1.0) * math.log(v) - v - special.gammaln(c))
        return dens * (by / (by + theta * v / d)) ** ay

    return integrate.quad(f, 0.0, np.inf, limit=400)[0]


def test_head_decode_limits(config):
    assert analytic.head_decode_prob(0.0, config) == 1.0
    assert analytic.head_decode_prob(1e4, config) < 1e-3


def test_head_decode_no_interference():
    cfg = make_config(m_occupied=0)
    assert analytic.head_decode_prob(0.7, cfg) == 1.0


def test_head_decode_against_oracle(config):
    for theta in (0.05, 0.25, 1.0, 2.0):
        ref = 1.0 - _head_cdf_oracle(theta, config)
        assert analytic.head_decode_prob(theta, config) == pytest.approx(ref, abs=1e-7)


def test_head_decode_quad_with_singular_interference_density():
    # eight Rayleigh interferers seen from 10 m up across a 1.2 km cell fit a
    # Gamma shape far below 1, whose density alone overflows near v = 0; the
    # oracle integrates the same expectation in w = v^c with mpmath
    mpmath = pytest.importorskip("mpmath")
    cfg = make_config(n_uavs=1, m_available=1, m_occupied=8, rician_k=0.0, message_bits=10.0,
                      tau_phase1_s=1e-6, swarm_altitude_m=10.0, coverage_radius_m=1221.0,
                      pathloss_exp_cell=3.0)
    num, den = analytic._head_fits(cfg)
    assert den.a < 0.01
    theta = scenario.stage_thresholds(cfg)[0]
    a, c = mpmath.mpf(num.a), mpmath.mpf(den.a)
    k = mpmath.mpf(num.b) * mpmath.sqrt(mpmath.mpf(theta) / den.b)

    def cdf_in_w(w):
        v = w ** (1 / c)
        return mpmath.exp(-v) * mpmath.gammainc(a, 0, k * mpmath.sqrt(v), regularized=True)

    edges = [0] + [mpmath.mpf(v) ** c for v in (1e-300, 1e-100, 1e-20, 1e-5, 1e-2, 1, 10, 100, 746)]
    ref = 1.0 - float(mpmath.quad(cdf_in_w, edges) / mpmath.gamma(c + 1))
    assert analytic.head_decode_prob(theta, cfg) == pytest.approx(ref, abs=1e-8)


def test_head_decode_against_mpmath_where_the_2f2_form_cancels():
    # the 2F2 form of the ratio CDF is a difference of two terms of ~5e7
    # here, whose rounding alone exceeds 1e-8; the quadrature, which never
    # forms them, matches mpmath to 1e-8
    mpmath = pytest.importorskip("mpmath")
    cfg = make_config(m_available=4, m_occupied=8, rician_k=3.4106917927843416,
                      message_bits=71.63349744369316, tau_phase1_s=0.0008804344755401868)
    num, den = analytic._head_fits(cfg)
    theta = scenario.stage_thresholds(cfg)[0]
    a, b, c, d = (mpmath.mpf(v) for v in (num.a, num.b, den.a, den.b))
    k = b * mpmath.sqrt(mpmath.mpf(theta) / d)

    def cdf(v):
        density = mpmath.exp((c - 1) * mpmath.log(v) - v - mpmath.loggamma(c))
        return density * mpmath.gammainc(a, 0, k * mpmath.sqrt(v), regularized=True)

    with mpmath.workdps(30):
        ref = float(1 - mpmath.quad(cdf, [0, c / 10, c / 3, c, 3 * c, 10 * c, mpmath.inf]))
    assert analytic.head_decode_prob(theta, cfg) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("a, c", [(1e-15, 3e-14), (2e-8, 3e-11), (1e-12, 1e-12), (1e-9, 2e-9),
                                  # below c ~ 3e-16 the tail outreached a unit width
                                  (8.4e-17, 3.4e-18), (3.4e-18, 1.1e-18), (2.4e-17, 1.6e-17),
                                  (5.7e-18, 2.1e-18), (1e-20, 1e-20)])
def test_head_cdf_at_tiny_shapes_reaches_its_limit(a, c):
    # as a, c -> 0, log G_a ~ -E/a and log X ~ -E'/c for unit exponentials E,
    # E', so P{G_a^2 <= X} -> P{E'/c <= 2E/a} = 2c/(a + 2c); the mass spans
    # ~1/c in log v, where z underflows and the density is only ~c high
    cdf = analytic._head_cdf_quad(1.0, analytic.GammaFit(a, 1.0), analytic.GammaFit(c, 1.0))
    assert cdf == pytest.approx(2.0 * c / (a + 2.0 * c), abs=1e-6)


def test_head_decode_falls_with_interferer_count():
    # more interferers narrow the interference Gamma around its peak at v = c
    # (c ~ 460 at 500 interferers): the quadrature must still find the peak
    p = [analytic.reliability(make_config(m_occupied=m)).p_head for m in (16, 100, 400, 500, 1000)]
    assert all(p1 >= p2 for p1, p2 in zip(p, p[1:])), p
    assert p[-1] < 1e-6


def test_head_decode_at_huge_interferer_counts():
    # at shape ~1e8 the interference peak is ~1e-4 wide in log space, and
    # c log c - c - lgamma(c) alone cancels to ~1e-6 relative
    br = {m: analytic.reliability(make_config(m_occupied=m)) for m in (10**6, 10**8, 10**9)}
    for m, b in br.items():
        assert b.p_head <= 1e-8, m
    assert abs(br[10**8].eta - br[10**6].eta) <= 1e-9


def test_head_decode_monotone(config):
    # slack covers the quadrature's tolerance
    grid = np.linspace(0.01, 2.0, 50)
    vals = [analytic.head_decode_prob(t, config) for t in grid]
    assert all(v1 >= v2 - 5e-8 for v1, v2 in zip(vals, vals[1:]))


def test_member_decode_limits(config):
    assert analytic.member_decode_prob(0.0, config) == 1.0
    assert analytic.member_decode_prob(1e-9, config) == pytest.approx(1.0, abs=1e-6)
    assert analytic.member_decode_prob(1e4, config) < 1e-3
    # without interferers a member's SINR is unbounded, whatever the threshold
    assert analytic.member_decode_prob(1e4, make_config(m_occupied=0)) == 1.0


def test_member_decode_against_oracle(config):
    for theta in (0.05, 0.25, 1.0, 2.0):
        ref = _member_oracle(theta, config)
        assert analytic.member_decode_prob(theta, config) == pytest.approx(ref, abs=1e-6)


def test_member_decode_monotone(config):
    grid = np.linspace(0.01, 2.0, 50)
    vals = [analytic.member_decode_prob(t, config) for t in grid]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_phase1_expected_single_uav():
    # a lone UAV has no relay term: eta is the head's probability, in regime
    # even where fewer than one decoder is expected
    for bits in (40.0, 150.0):
        cfg = make_config(n_uavs=1, message_bits=bits)
        theta = scenario.stage_thresholds(cfg)[0]
        br = analytic.reliability(cfg)
        assert br.expected_phase1 == pytest.approx(analytic.head_decode_prob(theta, cfg))
        assert br.expected_phase1 < 1.0
        assert br.in_regime
        assert br.eta == br.expected_phase1


# k_eff = N: a lone UAV, or no occupied channel so that every UAV decodes in
# the cellular stage; touching UAVs would fail the D2D fit
NO_RELAY_STAGE = [dict(n_uavs=1, min_separation_m=0.0), dict(m_occupied=0, min_separation_m=0.0),
                  dict(n_uavs=1, min_separation_m=1e-95)]


@pytest.mark.parametrize("overrides", NO_RELAY_STAGE)
def test_no_relay_stage_where_no_uav_is_left_to_hear_it(monkeypatch, overrides):
    def d2d_fit(k_effective, config):
        raise AssertionError("the relay stage was formed")

    monkeypatch.setattr(analytic, "d2d_fit", d2d_fit)
    cfg = make_config(**overrides)
    br = analytic.reliability(cfg)
    assert br.k_effective == cfg.n_uavs
    assert math.isnan(br.p_phase2)
    assert br.eta == br.expected_phase1 / cfg.n_uavs


def test_phase1_expected_zero_threshold():
    cfg = make_config(message_bits=0.0)
    assert analytic.reliability(cfg).expected_phase1 == pytest.approx(40.0)


# --- relay-stage model ------------------------------------------------------------


def test_d2d_fit_scales_linearly(config):
    f1 = analytic.d2d_fit(10.0, config)
    f2 = analytic.d2d_fit(20.0, config)
    (mean1, var1), (mean2, var2) = _inv_gamma_moments(f1), _inv_gamma_moments(f2)
    assert mean2 == pytest.approx(2.0 * mean1, rel=1e-12)
    assert var2 == pytest.approx(2.0 * var1, rel=1e-10)
    assert var1 > 0.0


def test_d2d_moments_against_sampled_distances(config):
    # rejection-sample pair distances >= d_min from the plain disk pair density
    rng = np.random.default_rng(21)
    want = 1_000_000
    samples = []
    while sum(len(s) for s in samples) < want:
        a = geometry.sample_uniform_disk(want, 30.0, rng)
        b = geometry.sample_uniform_disk(want, 30.0, rng)
        w = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        samples.append(w[w >= 5.0])
    w = np.concatenate(samples)[:want]
    inv2 = w**-2.0
    se = inv2.std(ddof=1) / math.sqrt(want)
    fit = analytic.d2d_fit(1.0, config)
    assert abs(_inv_gamma_moments(fit)[0] - inv2.mean()) < 3.0 * se


def test_phase2_decode_limits(config):
    assert analytic.phase2_decode_prob(0.0, 36.0, config) == 1.0
    grid = np.linspace(0.0, 5.0, 40)
    vals = [analytic.phase2_decode_prob(t, 36.0, config) for t in grid]
    assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))


def test_phase2_decode_against_conditional_simulation(config):
    # fix 36 decoders per sampled swarm, measure fresh-receiver success
    theta2 = scenario.stage_thresholds(config)[1]
    target = analytic.phase2_decode_prob(theta2, 36.0, config)
    rng = np.random.default_rng(22)
    trials = 10_000
    swarm = geometry.sample_swarm_layout(config, rng, trials)[0]
    decoders = rng.permuted(np.tile(np.arange(40) < 36, (trials, 1)), axis=1)
    draw = fading.draw_phase2(config, rng, trials)
    # one row per listener, each summing over its trial's decoders
    listeners = ~decoders
    power = fading.relay_power(fading.relay_gains(swarm, listeners, config),
                               np.repeat(decoders, listeners.sum(axis=1), axis=0))
    sinrs = fading.phase2_sinrs(power, draw[listeners], config)
    frac = (sinrs >= theta2).mean()
    assert abs(frac - target) < 0.01


# --- end-to-end reliability -----------------------------------------------------------


def test_reliability_zero_bits():
    br = analytic.reliability(make_config(message_bits=0.0))
    assert br.eta == 1.0
    assert br.in_regime


def test_reliability_floor(config):
    br = analytic.reliability(config)
    assert br.eta >= br.expected_phase1 / 40.0
    assert 0.0 <= br.p_phase2 <= 1.0
    assert br.k_effective == pytest.approx(br.expected_phase1)


def test_reliability_out_of_regime_flag():
    br = analytic.reliability(make_config(message_bits=500.0))
    assert not br.in_regime
    assert br.k_effective == 1.0
    assert 0.0 <= br.eta <= 1.0


def test_reliability_monotone_in_message_size():
    etas = [analytic.reliability(make_config(message_bits=float(d))).eta for d in range(5, 125, 10)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(etas, etas[1:]))
