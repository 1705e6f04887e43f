"""Closed-form reliability model for the two-phase delivery protocol.

The model moment-matches sums of path-loss-weighted fading terms to Gamma
(Pearson III) and inverse-Gamma (Pearson V) distributions, from which the
head and member decode probabilities of the cellular stage and the relay
stage's decode probability follow in closed form.  Every moment branch is
cross-checked against quadrature in the test suite, and the one expression
that is numerically fragile in float64 (the hypergeometric form of the head
decode probability) carries a quadrature fallback selected by a run-time
rounding-error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import specfun
from .geometry import pair_distance_pdf, pair_distance_truncation
from .fading import rician_moments
from .scenario import ScenarioConfig, phase1_threshold, phase2_threshold

__all__ = [
    "GammaFit",
    "InvGammaFit",
    "AnalyticBreakdown",
    "MomentFitError",
    "gamma_fit",
    "inv_gamma_fit",
    "moments_head_signal",
    "moments_interference",
    "moments_pathloss_sum",
    "head_decode_prob",
    "member_decode_prob",
    "phase1_expected",
    "d2d_fit",
    "phase2_decode_prob",
    "reliability",
]

# beyond this argument the hypergeometric series is never attempted
HYP_ARG_CAP = 500.0
# absolute rounding-error budget for the series route before falling back
_SERIES_ERR_BUDGET = 1e-8


@dataclass(frozen=True)
class GammaFit:
    """Gamma (Pearson III) parameters: shape ``a``, rate ``b``."""

    a: float
    b: float

    @property
    def mean(self) -> float:
        return self.a / self.b

    @property
    def variance(self) -> float:
        return self.a / self.b**2


@dataclass(frozen=True)
class InvGammaFit:
    """Inverse-Gamma (Pearson V) parameters: shape ``a`` > 2, scale ``b``."""

    a: float
    b: float

    @property
    def mean(self) -> float:
        return self.b / (self.a - 1.0)

    @property
    def variance(self) -> float:
        return self.b**2 / ((self.a - 1.0) ** 2 * (self.a - 2.0))


@dataclass(frozen=True)
class AnalyticBreakdown:
    """Reliability prediction with its intermediate quantities."""

    p_head: float
    p_member: float
    expected_phase1: float
    k_effective: float
    p_phase2: float
    eta: float
    in_regime: bool  # False when fewer than one decoder is expected


class MomentFitError(specfun.NumericalError, ValueError):
    """Moments that no Gamma-family distribution matches.

    Both a bad argument and, for moments computed from a scenario, a
    numerical failure: the CLI reports it with the numerical exit code.
    """


def gamma_fit(mu: float, nu: float) -> GammaFit:
    """Match a Gamma distribution to mean ``mu`` and variance ``nu``."""
    if mu <= 0 or nu <= 0:
        raise MomentFitError(f"moment matching needs mu > 0 and nu > 0, got ({mu}, {nu})")
    return GammaFit(a=mu * mu / nu, b=mu / nu)


def inv_gamma_fit(mu: float, nu: float) -> InvGammaFit:
    """Match an inverse-Gamma distribution to mean ``mu`` and variance ``nu``."""
    if mu <= 0 or nu <= 0:
        raise MomentFitError(f"moment matching needs mu > 0 and nu > 0, got ({mu}, {nu})")
    r = mu * mu / nu
    return InvGammaFit(a=r + 2.0, b=(r + 1.0) * mu)


def _mean_center_distance_power(config: ScenarioConfig, q: float) -> float:
    """E[d^-q] for the GBS-to-swarm-center distance d.

    The density is 2u/R^2 on [H, sqrt(R^2 + H^2)].  With p = 2 - q and
    L = log(sqrt(R^2 + H^2) / H), the integral of u^(1-q) is
    H^p L expm1(p L) / (p L), whose last factor is 1 at p L = 0: no
    difference of nearly equal powers is formed, whether q is within ulps
    of 2 or R is tiny next to H.
    """
    h = config.swarm_altitude_m
    span = 0.5 * math.log1p((config.coverage_radius_m / h) ** 2)
    p = 2.0 - q
    growth = math.expm1(p * span) / (p * span) if p * span != 0.0 else 1.0
    return 2.0 * h**p * span * growth / config.coverage_radius_m**2


def moments_head_signal(config: ScenarioConfig) -> tuple[float, float]:
    """Mean and variance of one serving GBS's amplitude term d^(-alpha/2) |h|."""
    alpha = config.pathloss_exp_cell
    m1, m2, _ = rician_moments(config.rician_k)
    mu = _mean_center_distance_power(config, alpha / 2.0) * m1
    nu = _mean_center_distance_power(config, alpha) * m2 - mu * mu
    return mu, nu


def moments_interference(config: ScenarioConfig) -> tuple[float, float]:
    """Mean and variance of the occupied GBSs' total power d^-alpha |h|^2."""
    if config.m_occupied == 0:
        return 0.0, 0.0
    alpha = config.pathloss_exp_cell
    _, m2, m4 = rician_moments(config.rician_k)
    mu = _mean_center_distance_power(config, alpha) * m2
    nu = _mean_center_distance_power(config, 2.0 * alpha) * m4 - mu * mu
    return config.m_occupied * mu, config.m_occupied * nu


def moments_pathloss_sum(config: ScenarioConfig) -> tuple[float, float]:
    """Mean and variance of the serving GBSs' summed path loss d^-alpha."""
    if config.m_available == 0:
        return 0.0, 0.0
    alpha = config.pathloss_exp_cell
    mu = _mean_center_distance_power(config, alpha)
    nu = _mean_center_distance_power(config, 2.0 * alpha) - mu * mu
    return config.m_available * mu, config.m_available * nu


def _head_fits(config: ScenarioConfig) -> tuple[GammaFit, GammaFit]:
    mu_h, nu_h = moments_head_signal(config)
    m0 = config.m_available
    num = gamma_fit(m0 * mu_h, m0 * nu_h)
    den = gamma_fit(*moments_interference(config))
    return num, den


def head_decode_prob(theta1: float, config: ScenarioConfig) -> float:
    """Probability that the head's coherently combined SINR clears ``theta1``.

    The head's SINR is approximated by Y/X with sqrt(Y) ~ Gamma (combined
    signal amplitude) and X ~ Gamma (interference power); the ratio CDF has
    a hypergeometric closed form and an equivalent one-dimensional integral.
    The series is taken while its argument stays within ``HYP_ARG_CAP`` and
    its estimated float64 rounding error within budget, the integral
    otherwise.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if theta1 == 0.0:
        return 1.0
    if config.m_occupied == 0:
        # no interference and the analytic model carries no receiver noise
        return 1.0
    num, den = _head_fits(config)
    result = None
    if num.b**2 * theta1 / (4.0 * den.b) <= HYP_ARG_CAP:
        result = _head_cdf_series(theta1, num, den)
    if result is None:
        result = _head_cdf_quad(theta1, num, den)
    return min(1.0, max(0.0, 1.0 - result))


def _head_cdf_series(theta: float, num: GammaFit, den: GammaFit) -> float | None:
    """Hypergeometric form of P{Y <= theta X}, or None when float64 cannot carry it.

    The expression is the difference of two same-sign terms that grow like
    exp(arg) while their difference stays in [0, 1]; the rounding error is
    about (largest partial term) * eps, which is estimated on the fly.
    """
    a, b = num.a, num.b
    c, d = den.a, den.b
    w = b * b * theta / (4.0 * d)
    try:
        f1, scale1 = specfun.hyp2f2_with_scale(a / 2.0 + c, a / 2.0, 0.5, a / 2.0 + 1.0, w)
        f2, scale2 = specfun.hyp2f2_with_scale(
            a / 2.0 + c + 0.5, a / 2.0 + 0.5, 1.5, a / 2.0 + 1.5, w
        )
    except specfun.SeriesError:
        return None
    if b * b * theta / d == 0.0 or theta / d == 0.0:
        # a subnormal threshold underflows the prefactors' log arguments
        return None
    log_pref = (a / 2.0) * math.log(b * b * theta / d) - specfun.log_gamma(a) - specfun.log_gamma(c)
    log_c1 = specfun.log_gamma(a / 2.0 + c) - math.log(a)
    log_c2 = (
        math.log(b) + 0.5 * math.log(theta / d) + specfun.log_gamma(a / 2.0 + c + 0.5) - math.log(a + 1.0)
    )
    t1 = math.exp(log_pref + log_c1)
    t2 = math.exp(log_pref + log_c2)
    err_estimate = (t1 * scale1 + t2 * scale2) * 2.3e-16
    if not math.isfinite(err_estimate) or err_estimate > _SERIES_ERR_BUDGET:
        return None
    return t1 * f1 - t2 * f2


def _head_cdf_quad(theta: float, num: GammaFit, den: GammaFit) -> float:
    """P{Y <= theta X} as an integral of the interference density times the
    signal CDF, in x = log(v / c) around the density's peak v = c.

    In x the Gamma(c) density v^(c-1) e^-v dv / Gamma(c) reads
    exp(log_peak + c (x - expm1(x))) dx, largest at x = 0, so neither the
    v^(c-1) singularity at 0 for c < 1 nor, for large c, a peak of width
    sqrt(c) far out at v = c is left for the quadrature to find.
    """
    a, b = num.a, num.b
    c, d = den.a, den.b
    scale = b * math.sqrt(theta / d)
    log_c = math.log(c)
    log_peak = c * log_c - c - specfun.log_gamma(c)

    def integrand(x):
        x = float(x)  # the quadrature nodes are numpy scalars, slow in arithmetic
        if x > 700.0:
            return 0.0  # v = c e^x is so far out that e^-v has underflowed
        density = math.exp(log_peak + c * (x - math.expm1(x)))
        if density == 0.0:
            return 0.0
        return density * specfun.regularized_gamma(a, scale * math.exp(0.5 * (log_c + x)))

    return specfun.peak_quad(integrand, c, rel_tol=1e-9, abs_tol=1e-12)


def member_decode_prob(theta1: float, config: ScenarioConfig) -> float:
    """Probability that a non-head UAV decodes in the cellular stage.

    The member's combined signal power is exponential given the summed
    serving path loss (central-limit step), the summed path loss is fitted
    inverse-Gamma, and the interference is the same Gamma fit as for the
    head, which yields a Tricomi-function closed form evaluated here in a
    log-scaled way that is exact in the theta -> 0 limit.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if theta1 == 0.0:
        return 1.0
    if config.m_occupied == 0:
        return 1.0
    signal = inv_gamma_fit(*moments_pathloss_sum(config))
    den = gamma_fit(*moments_interference(config))
    z = den.b * signal.b / theta1
    if z == math.inf:
        # z^a Psi(a, b; z) has reached its z -> inf limit, 1
        return 1.0
    log_p = specfun.log_tricomi_u_scaled(den.a, 1.0 + den.a - signal.a, z)
    return min(1.0, max(0.0, math.exp(log_p)))


def phase1_expected(config: ScenarioConfig, theta1: float | None = None) -> float:
    """Expected number of decoders after the cellular stage."""
    if theta1 is None:
        theta1 = phase1_threshold(config)
    return head_decode_prob(theta1, config) + (config.n_uavs - 1) * member_decode_prob(
        theta1, config
    )


def d2d_fit(k_effective: float, config: ScenarioConfig) -> InvGammaFit:
    """Inverse-Gamma fit of the summed relay path loss for ``k_effective`` relays.

    Per-relay moments of the pair distance to the power -alpha_d2d come from
    quadrature over the truncated pair-distance density; the (real-valued)
    relay count scales both moments linearly.
    """
    if k_effective <= 0:
        raise ValueError(f"k_effective must be > 0, got {k_effective}")
    mu, nu = _relay_pathloss_moments(
        config.swarm_radius_m, config.min_separation_m, config.pathloss_exp_d2d
    )
    return inv_gamma_fit(k_effective * mu, k_effective * nu)


def _relay_pathloss_moments(radius: float, d_min: float, alpha: float) -> tuple[float, float]:
    mu = _truncated_pair_moment(radius, d_min, alpha)
    second = _truncated_pair_moment(radius, d_min, 2.0 * alpha)
    return mu, second - mu * mu


@lru_cache(maxsize=None)
def _truncated_pair_moment(radius: float, d_min: float, q: float) -> float:
    """E[w^-q] over the truncated pair-distance density on [d_min, 2 radius]."""
    mass = pair_distance_truncation(radius, d_min)
    lo = d_min if d_min > 0 else 1e-9 * radius
    integral = specfun.adaptive_quad(
        lambda w: w ** (-q) * pair_distance_pdf(w, radius),
        lo,
        2.0 * radius,
        rel_tol=1e-10,
        abs_tol=0.0,
    )
    return integral / mass


def phase2_decode_prob(theta2: float, k_effective: float, config: ScenarioConfig) -> float:
    """Probability that a receiver decodes when ``k_effective`` relays transmit."""
    if theta2 < 0:
        raise ValueError(f"theta2 must be >= 0, got {theta2}")
    if theta2 == 0.0:
        return 1.0
    fit = d2d_fit(k_effective, config)
    x = config.intf_noise_phase2_w * theta2 / (config.tx_power_uav_w * config.ref_gain_d2d)
    return math.exp(-fit.a * math.log1p(x / fit.b))


def reliability(config: ScenarioConfig) -> AnalyticBreakdown:
    """Expected fraction of UAVs that decode within the slot.

    Substitutes the expected cellular-stage decoder count for the relay
    count in the relay-stage probability.  The substitution presumes most
    UAVs already decode in the cellular stage; if fewer than one decoder is
    expected, the count is clamped to one and the result is flagged
    ``in_regime=False`` rather than extrapolated.
    """
    n = config.n_uavs
    theta1 = phase1_threshold(config)
    theta2 = phase2_threshold(config)
    p_head = head_decode_prob(theta1, config)
    p_member = member_decode_prob(theta1, config)
    expected1 = p_head + (n - 1) * p_member
    in_regime = expected1 >= 1.0
    k_eff = min(float(n), max(1.0, expected1))
    p2 = phase2_decode_prob(theta2, k_eff, config)
    eta = (expected1 + (n - k_eff) * p2) / n
    return AnalyticBreakdown(
        p_head=p_head,
        p_member=p_member,
        expected_phase1=expected1,
        k_effective=k_eff,
        p_phase2=p2,
        eta=min(1.0, eta),
        in_regime=in_regime,
    )
