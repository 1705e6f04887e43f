"""Closed-form reliability model for the two-phase delivery protocol.

The model moment-matches sums of path-loss-weighted fading terms to Gamma
(Pearson III) and inverse-Gamma (Pearson V) distributions, from which the
head and member decode probabilities of the cellular stage and the relay
stage's decode probability follow in closed form.  The relay stage's
path-loss moments come from the disk's pair-distance law truncated at the
hard-core separation, whose mass and moments are both taken here.  Every
moment branch is cross-checked against quadrature in the test suite.  The
head decode probability has one route, a quadrature of the ratio CDF whose
scale is set by both factors of its integrand.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .fading import rician_moments
from .scenario import ScenarioConfig, stage_thresholds

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
    "pair_distance_truncation",
    "d2d_fit",
    "phase2_decode_prob",
    "reliability",
]

@dataclass(frozen=True)
class GammaFit:
    """Gamma (Pearson III) parameters: shape ``a``, rate ``b``."""

    a: float
    b: float


@dataclass(frozen=True)
class InvGammaFit:
    """Inverse-Gamma (Pearson V) parameters: shape ``a`` > 2, scale ``b``."""

    a: float
    b: float


@dataclass(frozen=True)
class AnalyticBreakdown:
    """Reliability prediction with its intermediate quantities.

    ``p_phase2`` is NaN where no UAV is left to hear the relay stage
    (``k_effective == n_uavs``: a one-UAV swarm, or every UAV expected to
    decode in the cellular stage).
    """

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


def _log_span(h: float, r: float) -> float:
    """L = log(d_max / h) = log(1 + (r/h)^2) / 2 for the GBS distance d in [h, d_max].

    Only a ratio of at most 1 is squared, so no length squared leaves the
    float range.
    """
    t = r / h
    if t <= 1.0:
        return 0.5 * math.log1p(t * t)
    # log R - log H where R/H overflows
    log_t = math.log(t) if t < math.inf else math.log(r) - math.log(h)
    return log_t + 0.5 * math.log1p((h / r) * (h / r))


def _log_sinhc(y: float) -> float:
    """g(y) = log(sinh(y/2) / (y/2)), to its relative precision near y = 0 as well."""
    x = 0.5 * abs(y)
    if x >= 1.0:
        return x - math.log(2.0 * x) + math.log(-math.expm1(-2.0 * x))
    # sinh(x)/x - 1 = sum_k x^2k / (2k+1)!, nested; below x = 1 the terms
    # past k = 9 are below 1e-18 of the sum
    excess = 0.0
    for k in range(9, 0, -1):
        excess = x * x / (2 * k * (2 * k + 1)) * (1.0 + excess)
    return math.log1p(excess)


def _distance_power_moments(h: float, r: float, q: float, fade1: float,
                            fade2: float) -> tuple[float, float]:
    """Mean and variance of d^-q A for the GBS distance d and an independent fading term A.

    ``fade1`` and ``fade2`` are E[A] and E[A^2].  d^2 is uniform on [H^2,
    H^2 + R^2], for H = ``h`` and R = ``r``, so with L = log(d_max/H) and
    phi(y) = expm1(y)/y, E[d^-s] = H^-s phi((2-s)L) / phi(2L).  Written with g of ``_log_sinhc``, log phi(y)
    = y/2 + g(y), so E[d^-q] = H^-q exp(g(a) - g(b) - qL/2) and Var[d^-q] /
    E[d^-2q] = -expm1(2g(a) - g(b) - g(c)) for a = (2-q)L, b = 2L and c =
    (2-2q)L: since 2a = b + c the linear parts cancel exactly, and no
    difference of nearly equal moments is formed at any span.
    """
    span = _log_span(h, r)
    ga, gb, gc = (_log_sinhc(y * span) for y in (2.0 - q, 2.0, 2.0 - 2.0 * q))
    try:
        mean = h**-q * math.exp(ga - gb - q * span / 2.0)
        second = h ** (-2.0 * q) * math.exp(gc - gb - q * span)
    except OverflowError:
        raise MomentFitError(f"the moments of d^-{q:g} for the GBS distance d overflow at "
                             f"swarm_altitude_m = {h:g}, coverage_radius_m = {r:g}") from None
    spread = -math.expm1(2.0 * ga - gb - gc)
    return mean * fade1, second * (fade1 * fade1 * spread + (fade2 - fade1 * fade1))


def moments_head_signal(config: ScenarioConfig) -> tuple[float, float]:
    """Mean and variance of one serving GBS's amplitude term d^(-alpha/2) |h|."""
    m1, m2, _ = rician_moments(config.rician_k)
    h, r = config.swarm_altitude_m, config.coverage_radius_m
    return _distance_power_moments(h, r, config.pathloss_exp_cell / 2.0, m1, m2)


def moments_interference(config: ScenarioConfig) -> tuple[float, float]:
    """Mean and variance of the occupied GBSs' total power d^-alpha |h|^2."""
    _, m2, m4 = rician_moments(config.rician_k)
    h, r = config.swarm_altitude_m, config.coverage_radius_m
    mu, nu = _distance_power_moments(h, r, config.pathloss_exp_cell, m2, m4)
    return config.m_occupied * mu, config.m_occupied * nu


def moments_pathloss_sum(config: ScenarioConfig) -> tuple[float, float]:
    """Mean and variance of the serving GBSs' summed path loss d^-alpha."""
    h, r = config.swarm_altitude_m, config.coverage_radius_m
    mu, nu = _distance_power_moments(h, r, config.pathloss_exp_cell, 1.0, 1.0)
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
    signal amplitude) and X ~ Gamma (interference power).  The ratio CDF is
    one integral of the interference density times the signal CDF, taken by
    quadrature at every fitted shape (``_head_cdf_quad``).
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if theta1 == 0.0:
        return 1.0
    if config.m_occupied == 0:
        # no interference and the analytic model carries no receiver noise
        return 1.0
    num, den = _head_fits(config)
    try:
        result = _head_cdf_quad(theta1, num, den)
    except specfun.NumericalError as exc:
        raise specfun.NumericalError(
            f"head decode probability at theta1 = {theta1:g}, fitted shapes a = {num.a:.4g} "
            f"(signal amplitude), c = {den.a:.4g} (interference): {exc}"
        ) from exc
    return min(1.0, max(0.0, 1.0 - result))


def _head_cdf_quad(theta: float, num: GammaFit, den: GammaFit) -> float:
    """P{Y <= theta X} as an integral of the interference density times the
    signal CDF, in x = log(v / c) around the density's peak v = c.

    In x the Gamma(c) density v^(c-1) e^-v dv / Gamma(c) reads
    exp(log_peak + c (x - expm1(x))): largest at x = 0, about 1/sqrt(c)
    wide, with a tail like c e^(c x) below it for small c.  The signal CDF
    P(a, z), log z = log(b sqrt(theta c / d)) + x/2, rises like z^a, over
    about 2/a in x at small a.  So the quadrature scale is the peak width
    1/sqrt(c) where the peak is narrow, else ``specfun.reach_width(min(a,
    c))``, a step that the sinh map stretches out to the tail and to the
    signal's rise, wherever they lie; and the absolute tolerance, 1e-12
    min(1, c), stays below the density's height.  At tiny shapes the mass
    spans so many decades of v that z underflows, so P is taken from log z,
    per node and only where the density has not underflowed.
    """
    a, b = num.a, num.b
    c, d = den.a, den.b
    log_scale = math.log(b) + 0.5 * (math.log(theta) - math.log(d) + math.log(c))
    log_peak = specfun.log_gamma_peak(c)

    def integrand(x):
        # e^x past 700 only lowers a density that has already underflowed
        density = np.exp(log_peak + c * (x - np.expm1(np.minimum(x, 700.0))))
        cdf = [
            specfun.regularized_gamma(a, log_scale + 0.5 * xi) if di > 0.0 else 0.0
            for xi, di in zip(x.tolist(), density.tolist())
        ]
        return density * cdf

    width = min(1.0 / math.sqrt(c), specfun.reach_width(min(a, c)))
    return specfun.adaptive_quad(integrand, width, rel_tol=1e-9, abs_tol=1e-12 * min(1.0, c))


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
    try:
        log_p = specfun.log_tricomi_u_scaled(den.a, 1.0 + den.a - signal.a, z)
    except specfun.NumericalError as exc:
        raise specfun.NumericalError(
            f"member decode probability at theta1 = {theta1:g}, z = {z:g}, fitted shapes "
            f"{signal.a:.4g} (serving path loss), {den.a:.4g} (interference): {exc}"
        ) from exc
    return min(1.0, max(0.0, math.exp(log_p)))


def d2d_fit(k_effective: float, config: ScenarioConfig) -> InvGammaFit:
    """Inverse-Gamma fit of the summed relay path loss for ``k_effective`` relays.

    Per-relay moments of the pair distance to the power -alpha_d2d come from
    quadrature over the truncated pair-distance density; the (real-valued)
    relay count scales both moments linearly.
    """
    if k_effective <= 0:
        raise ValueError(f"k_effective must be > 0, got {k_effective}")
    if config.min_separation_m / (2.0 * config.swarm_radius_m) == 0.0:
        # the pair-distance density is ~ w near 0, so E[w^-alpha_d2d] diverges
        raise MomentFitError(f"min_separation_m = {config.min_separation_m}: UAVs may touch, "
                             "so the relay path-loss moments are infinite")
    radius, d_min, alpha = config.swarm_radius_m, config.min_separation_m, config.pathloss_exp_d2d
    mu = _truncated_pair_moment(radius, d_min, alpha)
    second = _truncated_pair_moment(radius, d_min, 2.0 * alpha)
    return inv_gamma_fit(k_effective * mu, k_effective * (second - mu * mu))


def pair_distance_truncation(radius: float, d_min: float) -> float:
    """Mass of the pair-distance density on [d_min, 2 radius].

    With theta = 2 acos(x), x = d_min / (2 radius), the closed form
    1 - [8 x^2 acos(x) + 2 asin(x) - 2 x (1 + 2 x^2) sqrt(1 - x^2)] / pi
    reads [(2 + cos theta) sin theta - theta (1 + 2 cos theta)] / pi, which
    keeps its relative digits down to a mass of 1e-8 as d_min nears 2 radius.
    """
    theta = 2.0 * math.acos(d_min / (2.0 * radius))
    cos_theta = math.cos(theta)
    return ((2.0 + cos_theta) * math.sin(theta) - theta * (1.0 + 2.0 * cos_theta)) / math.pi


@lru_cache(maxsize=None)
def _truncated_pair_moment(radius: float, d_min: float, q: float) -> float:
    """E[w^-q] over the truncated pair-distance density on [d_min, 2 radius].

    In w = 2 radius cos(phi) the density is (4/pi) sin(2 phi) (2 phi -
    sin(2 phi)) dphi on [0, phi0], phi0 = acos(x0), x0 = d_min / (2 radius),
    with no square-root endpoint singularity; phi = phi0 logistic(y) maps it
    onto the line.  cos(phi) is cos(phi0 - delta), delta = phi0 logistic(-y),
    expanded so that it keeps its digits near phi0.  (w / d_min)^-q <= 1 is
    one power, which overflows nowhere, and d_min^-q is added back in logs.
    """
    x0 = d_min / (2.0 * radius)
    log_x0 = math.log(d_min) - math.log(2.0 * radius)
    phi0 = math.acos(x0)
    sin_phi0 = math.sqrt(1.0 - x0 * x0)

    def integrand(y):
        rise = np.exp(-np.logaddexp(0.0, -y))  # logistic(y)
        fall = np.exp(-np.logaddexp(0.0, y))  # logistic(-y)
        phi = phi0 * rise
        delta = phi0 * fall
        cos_phi = x0 * np.cos(delta) + sin_phi0 * np.sin(delta)
        sin2 = 2.0 * np.sin(phi) * cos_phi
        density = (4.0 / math.pi) * sin2 * (2.0 * phi - sin2)
        return np.exp(-q * (np.log(cos_phi) - log_x0)) * density * (phi0 * rise * fall)

    integral = specfun.adaptive_quad(integrand, 1.0, rel_tol=1e-10, abs_tol=0.0)
    if integral > 0.0:
        mass = pair_distance_truncation(radius, d_min)
        with suppress(OverflowError):
            return math.exp(-q * math.log(d_min) + math.log(integral / mass))
    raise MomentFitError(
        f"min_separation_m = {d_min}: the relay path-loss moment E[w^-{q}] cannot be "
        "evaluated in float at so small a separation"
    )


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
    ``in_regime=False`` rather than extrapolated.  Where k_eff = N no UAV is
    left to hear the relays, so the relay stage is not formed: eta is E1 / N
    and ``p_phase2`` is NaN.  A lone UAV is such a swarm (eta is p_head),
    and always in regime.
    """
    n = config.n_uavs
    theta1, theta2 = stage_thresholds(config)
    p_head = head_decode_prob(theta1, config)
    p_member = member_decode_prob(theta1, config)
    expected1 = p_head + (n - 1) * p_member
    in_regime = expected1 >= 1.0 or n == 1
    k_eff = min(float(n), max(1.0, expected1))
    p2, eta = math.nan, expected1 / n  # unless a UAV is left to hear a relay
    if k_eff < n:
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
