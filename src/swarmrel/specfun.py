"""Self-contained special functions backing the closed-form reliability model.

Everything here is scalar, pure, and reentrant: incomplete gamma (series /
continued fraction), modified Bessel I0/I1 (power series / asymptotic),
the half-order Laguerre function, direct Pochhammer series for 1F1 and 2F2,
the Tricomi confluent function Psi via quadrature of its integral
representation, and the adaptive Gauss quadrature those routines share,
with its peak-centred form for integrands against a Gamma weight.
Each routine is covered in the test suite by an independent slow oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericalError",
    "SeriesError",
    "QuadratureError",
    "log_gamma",
    "regularized_gamma",
    "bessel_i0",
    "bessel_i1",
    "laguerre_half",
    "hyp1f1",
    "hyp2f2",
    "hyp2f2_with_scale",
    "tricomi_u",
    "log_tricomi_u_scaled",
    "adaptive_quad",
    "peak_quad",
]

_EPS = np.finfo(float).eps
_FPMIN = 1e-300


class NumericalError(ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""


class SeriesError(NumericalError):
    """A series did not converge within its term budget."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


# termination policy of the hypergeometric series: stop after two consecutive
# terms below SERIES_REL_TOL of the sum, fail after SERIES_MAX_TERMS terms
SERIES_REL_TOL = 1e-12
SERIES_MAX_TERMS = 100_000


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    if a <= 0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def regularized_gamma(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) in [0, 1].

    Power series for z < a + 1, Lentz continued fraction for the upper
    function otherwise.
    """
    if a <= 0:
        raise ValueError(f"regularized_gamma requires a > 0, got {a}")
    if z < 0:
        raise ValueError(f"regularized_gamma requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z < a + 1.0:
        return _gamma_p_series(a, z)
    return 1.0 - _gamma_q_contfrac(a, z)


def _gamma_p_series(a: float, z: float, max_terms: int = 10_000) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(max_terms):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            log_scale = a * math.log(z) - z - math.lgamma(a)
            return total * math.exp(log_scale)
    raise SeriesError(f"incomplete gamma series stalled at a={a}, z={z}")


def _gamma_q_contfrac(a: float, z: float, max_iter: int = 10_000) -> float:
    b = z + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0 else 1.0 / _FPMIN
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(-z + a * math.log(z) - math.lgamma(a)) * h
    raise SeriesError(f"incomplete gamma continued fraction stalled at a={a}, z={z}")


# --- modified Bessel functions ----------------------------------------------

_BESSEL_SERIES_CUTOFF = 15.0


def bessel_i0(z: float) -> float:
    """Modified Bessel function of the first kind, order 0 (even in z)."""
    return _bessel_i(0, abs(z))


def bessel_i1(z: float) -> float:
    """Modified Bessel function of the first kind, order 1 (odd in z)."""
    total = _bessel_i(1, abs(z))
    return -total if z < 0 else total


def _bessel_i(order: int, x: float) -> float:
    if x <= _BESSEL_SERIES_CUTOFF:
        return _bessel_i_series(order, x)
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * _bessel_i_asymptotic_sum(order, x)


def _bessel_ie(order: int, x: float) -> float:
    """Exponentially scaled e^-x I_order(x) for x >= 0; finite for any x."""
    if x <= _BESSEL_SERIES_CUTOFF:
        return math.exp(-x) * _bessel_i_series(order, x)
    return _bessel_i_asymptotic_sum(order, x) / math.sqrt(2.0 * math.pi * x)


def _bessel_i_series(order: int, x: float) -> float:
    q = 0.25 * x * x
    term = 1.0 if order == 0 else 0.5 * x
    total = term
    k = 0
    while abs(term) > _EPS * abs(total):
        k += 1
        term *= q / (k * (k + order))
        total += term
        if k > 500:
            raise SeriesError(f"I{order} series stalled at z={x}")
    return total


def _bessel_i_asymptotic_sum(order: int, x: float) -> float:
    # I_nu(x) ~ e^x / sqrt(2 pi x) * sum_k (-1)^k a_k(nu) / x^k; truncate at
    # the smallest term (the series is divergent but asymptotic)
    mu = 4 * order * order
    term = 1.0
    total = 1.0
    prev = abs(term)
    for k in range(1, 40):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < _EPS * abs(total):
            break
    return total


def laguerre_half(z: float) -> float:
    """Laguerre function of order 1/2.

    Uses the Bessel form e^(z/2) * ((1 - z) I0(-z/2) - z I1(-z/2)) with the
    Bessel terms exponentially scaled, x = |z|/2:
    e^max(z, 0) * ((1 - z) I0e(x) + |z| I1e(x)).  For z = -kappa this is
    (1 + kappa) I0e(kappa/2) + kappa I1e(kappa/2), finite for any Rician K.
    The test suite cross-checks it against the confluent series
    1F1(-1/2; 1; z).
    """
    x = 0.5 * abs(z)
    return math.exp(max(z, 0.0)) * ((1.0 - z) * _bessel_ie(0, x) + abs(z) * _bessel_ie(1, x))


# --- generalized hypergeometric series ---------------------------------------


def _check_lower_params(*bs: float) -> None:
    for b in bs:
        if b <= 0 and b == int(b):
            raise ValueError(f"lower parameter {b} is a non-positive integer")


def hyp1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z) by direct Pochhammer series."""
    _check_lower_params(b)
    value, _ = _pochhammer_series((a,), (b,), z)
    return value


def hyp2f2(a1: float, a2: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric 2F2(a1, a2; b1, b2; z) by direct series."""
    _check_lower_params(b1, b2)
    value, _ = _pochhammer_series((a1, a2), (b1, b2), z)
    return value


def hyp2f2_with_scale(a1: float, a2: float, b1: float, b2: float, z: float) -> tuple[float, float]:
    """2F2 value plus the largest absolute partial term of its series.

    The scale is what a caller needs to bound the float64 rounding error of
    the sum: roughly ``max_term * machine_eps`` absolute.
    """
    _check_lower_params(b1, b2)
    return _pochhammer_series((a1, a2), (b1, b2), z)


def _pochhammer_series(uppers, lowers, z) -> tuple[float, float]:
    term = 1.0
    total = 1.0
    max_term = 1.0
    small_streak = 0
    for n in range(SERIES_MAX_TERMS):
        ratio = z / (n + 1.0)
        for a in uppers:
            ratio *= a + n
        for b in lowers:
            ratio /= b + n
        term *= ratio
        total += term
        max_term = max(max_term, abs(term))
        if abs(term) <= SERIES_REL_TOL * max(abs(total), 1e-300):
            small_streak += 1
            # terms can dip before the Pochhammer growth kicks back in, so
            # require two consecutive negligible terms
            if small_streak >= 2:
                return total, max_term
        else:
            small_streak = 0
        if not math.isfinite(total):
            raise SeriesError(f"hypergeometric series overflowed at term {n}")
    raise SeriesError(
        f"hypergeometric series did not converge within {SERIES_MAX_TERMS} terms (z={z})"
    )


# --- Tricomi confluent function ----------------------------------------------


def _tricomi_integral(a: float, b: float, z: float, rel_tol: float) -> tuple[float, float]:
    """Integral over s in (0, inf) of (1 + s/z)^(b-a-1) s^(a-1) e^-s, as (log scale, rest).

    The integral is exp(log scale) * rest, and equals Gamma(a) * z^a *
    Psi(a, b; z) after substituting s = z t in the defining integral;
    working in s keeps the integrand O(1) even when z is huge.  The
    integrand, written exp(phi(s)), is integrated in x = log(s / s*), where
    s* is the peak of phi(s) + log s, the one positive stationary point,
    with that peak taken out: the integrand is 1 at x = 0 and below it
    elsewhere, decays like e^(a x) as x -> -inf and faster as x -> inf, so
    it neither overflows nor hides between quadrature nodes, whether its
    mass is a narrow peak far below s = 1 or spread over many decades.
    """
    if a <= 0:
        raise ValueError(f"tricomi_u requires a > 0, got {a}")
    if z <= 0:
        raise ValueError(f"tricomi_u requires z > 0, got {z}")
    power = b - a - 1.0

    # s* is the positive root of s^2 + q s - a z, with q = z - power - a;
    # each branch avoids the cancellation of -q + sqrt(q^2 + 4 a z), and
    # a z, which overflows for z near the float max, is never formed
    q = z - power - a
    root = math.hypot(q, 2.0 * math.sqrt(a) * math.sqrt(z))
    if q > 0.0:
        log_ratio = math.log(a) - math.log(0.5 * q + 0.5 * root)  # log(s*/z)
        s_star = math.exp(log_ratio) * z
    else:
        s_star = 0.5 * (root - q)
        log_ratio = math.log(s_star) - math.log(z)
    log_s_star = log_ratio + math.log(z)
    # log1p(s/z) = log(1 + e^v) with v = log(s/z), as a softplus that never
    # overflows and keeps its tiny values exact where |power| is ~1e9
    peak_softplus = max(log_ratio, 0.0) + math.log1p(math.exp(-abs(log_ratio)))
    log_scale = power * peak_softplus + a * log_s_star - s_star

    def integrand(x):
        x = float(x)  # the quadrature nodes are numpy scalars, slow in arithmetic
        if log_s_star + x > 709.0:
            return 0.0  # s itself is past the float range, so e^-s is 0
        growth = s_star * math.expm1(x) if x < 700.0 else math.exp(log_s_star + x) - s_star
        v = log_ratio + x
        softplus = max(v, 0.0) + math.log1p(math.exp(-abs(v)))
        return math.exp(power * (softplus - peak_softplus) + a * x - growth)

    return log_scale, peak_quad(integrand, a, rel_tol=rel_tol, abs_tol=0.0)


def tricomi_u(a: float, b: float, z: float, rel_tol: float = 1e-9) -> float:
    """Tricomi confluent function Psi(a, b; z) for a > 0, z > 0."""
    log_scale, integral = _tricomi_integral(a, b, z, rel_tol)
    return math.exp(log_scale - a * math.log(z) - log_gamma(a)) * integral


def log_tricomi_u_scaled(a: float, b: float, z: float, rel_tol: float = 1e-9) -> float:
    """log of z^a * Psi(a, b; z), computed without forming z^-a.

    This is the numerically safe quantity when z is large and Psi itself
    underflows; z^a * Psi -> 1 as z -> inf.
    """
    log_scale, integral = _tricomi_integral(a, b, z, rel_tol)
    if integral <= 0:
        raise QuadratureError(f"non-positive Tricomi integral at a={a}, b={b}, z={z}")
    return log_scale + math.log(integral) - log_gamma(a)


# --- adaptive quadrature ------------------------------------------------------

_GAUSS_LO_ORDER = 10
_GAUSS_HI_ORDER = 20


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_estimates(f, lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    n1, w1 = _gauss_rule(_GAUSS_LO_ORDER)
    n2, w2 = _gauss_rule(_GAUSS_HI_ORDER)
    g1 = half * sum(w * f(mid + half * x) for x, w in zip(n1, w1))
    g2 = half * sum(w * f(mid + half * x) for x, w in zip(n2, w2))
    return g2, abs(g2 - g1)


def adaptive_quad(
    f,
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    max_panels: int = 4000,
) -> float:
    """Adaptive Gauss quadrature of ``f`` over [lo, hi].

    Panels are bisected greedily (worst error first) until the summed error
    estimate drops below max(abs_tol, rel_tol * |integral|).  An infinite
    upper limit is mapped onto [0, 1) via t = u / (1 - u); endpoints are
    never evaluated, so integrable endpoint singularities are tolerated.
    The result is a plain ``float``, never a numpy scalar, whose ``repr``
    is a number.
    """
    if math.isinf(hi):
        if math.isinf(lo):
            raise ValueError("doubly infinite ranges are not supported")
        shift = lo

        def g(u):
            t = u / (1.0 - u)
            return f(shift + t) / (1.0 - u) ** 2

        return adaptive_quad(g, 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels)
    if not lo < hi:
        if lo == hi:
            return 0.0
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    # seed with a few panels so a feature hiding in one half cannot fool the
    # first error estimate
    edges = np.linspace(lo, hi, 5)
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = _panel_estimates(f, a, b)
        panels.append((err, a, b, val))

    for _ in range(max_panels):
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return float(total)
        panels.sort(key=lambda p: p[0])
        err, a, b, _ = panels.pop()
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval is at float resolution; accept its estimate as-is
            val, _ = _panel_estimates(f, a, b)
            panels.append((0.0, a, b, val))
            continue
        for aa, bb in ((a, mid), (mid, b)):
            val, e = _panel_estimates(f, aa, bb)
            panels.append((e, aa, bb, val))

    raise QuadratureError(
        f"quadrature did not converge within {max_panels} panel refinements on [{lo}, {hi}]"
    )


def peak_quad(f, shape: float, rel_tol: float, abs_tol: float) -> float:
    """Integral over the whole real line of ``f``, which peaks at x = 0.

    ``f`` is a Gamma(``shape``) weight times a bounded factor in
    x = log(s / peak), so it decays like e^(shape * x) as x -> -inf and
    faster on the right.  It is taken as two ``adaptive_quad`` half-lines in
    y = min(shape, 1) * x, where even a small shape's left tail decays like
    e^-|y|; for shape >= 1 the nodes are those of x.  Each half-line is held
    to ``rel_tol`` and ``abs_tol`` in y.
    """
    step = min(shape, 1.0)

    def right(y):
        return f(y / step)

    def left(y):
        return f(-y / step)

    upper = adaptive_quad(right, 0.0, math.inf, rel_tol=rel_tol, abs_tol=abs_tol)
    lower = adaptive_quad(left, 0.0, math.inf, rel_tol=rel_tol, abs_tol=abs_tol)
    return (lower + upper) / step
