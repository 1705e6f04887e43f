"""Self-contained special functions backing the closed-form reliability model.

Everything here is pure and reentrant, and scalar except the quadrature:
incomplete gamma of log z (series / continued fraction), the half-order
Laguerre function (one power-series loop for its Bessel form / asymptotic
series from z = -30 down), the log-scaled Tricomi confluent function z^a Psi
via quadrature of its integral representation, and the one quadrature every
closed-form integral uses, a trapezoid rule over the real line in
x = width * sinh(t) whose integrand takes and returns numpy arrays.  Each
routine is covered in the test suite by an independent oracle (scipy or
mpmath).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "NumericalError",
    "SeriesError",
    "QuadratureError",
    "log_gamma_peak",
    "regularized_gamma",
    "laguerre_half",
    "hyp2f2_with_scale",
    "log_tricomi_u_scaled",
    "adaptive_quad",
    "reach_width",
]

_EPS = float(np.finfo(float).eps)  # a Python float keeps scalar loops out of numpy
_FPMIN = 1e-300
# terms an incomplete-gamma loop may take: near z = a the series needs about
# sqrt(72 a), 85,000 at a = 1e8
_GAMMA_TERMS = 100_000


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


def log_gamma_peak(a: float) -> float:
    """a log a - a - lgamma(a), the log of the Gamma(a) density of log(s) at s = a.

    From a = 100 up it is taken from its Stirling series, whose first
    omitted term, 1/(1680 a^7), is below 1e-17 there; the direct form
    cancels to about a log(a) eps, 1e-6 relative near a = 1e8.
    """
    if a < 100.0:
        return a * math.log(a) - a - math.lgamma(a)
    inv2 = 1.0 / (a * a)
    correction = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0)) / a
    return 0.5 * math.log(a / (2.0 * math.pi)) - correction


def regularized_gamma(a: float, log_z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) in [0, 1], from a and log z.

    From log z, P keeps its leading factor z^a = exp(a log z) where z
    underflows; at small a, P is far from 0 there (P(1e-3, e^-1000) is
    e^-1).  From z = a/2 up to where z/a overflows, the factor's log a log z
    - z - lgamma(a) is taken as log_gamma_peak(a) + a (log1p(u) - u) with u
    = z/a - 1, whose terms do not cancel at large a.  Power series for z <
    a + 1, Lentz continued fraction for the upper function otherwise.
    """
    if a <= 0:
        raise ValueError(f"regularized_gamma requires a > 0, got {a}")
    if log_z > 709.0:
        # z past 8e307, far above any shape a: Q(a, z) has underflowed
        return 1.0
    z = math.exp(log_z)
    u = z / a - 1.0
    if -0.5 < u < math.inf:
        scale = math.exp(log_gamma_peak(a) + a * (math.log1p(u) - u))
    else:
        scale = math.exp(a * log_z - z - math.lgamma(a))
    if z < a + 1.0:
        return scale * _gamma_p_series(a, z)
    return 1.0 - scale * _gamma_q_contfrac(a, z)


def _gamma_p_series(a: float, z: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_TERMS):
        ap += 1.0
        term *= z / ap
        total += term
        # a > 0 and z >= 0: every term and partial sum is non-negative
        if term < total * _EPS:
            return total
    raise SeriesError(f"incomplete gamma series stalled at a={a}, z={z}")


def _gamma_q_contfrac(a: float, z: float) -> float:
    b = z + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0 else 1.0 / _FPMIN
    h = d
    for i in range(1, 1 + _GAMMA_TERMS):
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
            return h
    raise SeriesError(f"incomplete gamma continued fraction stalled at a={a}, z={z}")


# --- Laguerre function ------------------------------------------------------


def laguerre_half(z: float) -> float:
    """Laguerre function of order 1/2, L(z) = 1F1(-1/2; 1; z).

    Above z = -30 it is the Bessel form e^(z/2) ((1 - z) I0(x) - z I1(x))
    at x = -z/2, with I0(x) = S0 and I1(x) = (x/2) S1, where S0 = sum t_k,
    S1 = sum t_k / (k + 1) and t_k = (x^2/4)^k / (k!)^2, summed in one loop
    until t_k < eps S0.  From z = -30 down, with kappa = -z, it is the
    asymptotic series 2 sqrt(kappa/pi) sum_n ((-1/2)_n)^2 / n! kappa^-n,
    whose terms are positive and fall below eps before they grow; the
    omitted e^-kappa part is below 1e-16 relative there.  Finite for any
    Rician K.
    """
    if z > -30.0:
        x = -0.5 * z
        q = 0.25 * x * x
        term = s0 = s1 = 1.0
        for k in range(1, 500):
            term *= q / (k * k)
            s0 += term
            s1 += term / (k + 1)
            if term < _EPS * s0:
                return math.exp(-x) * ((1.0 - z) * s0 - z * (0.5 * x) * s1)
        raise SeriesError(f"Laguerre series stalled at z={z}")
    kappa = -z
    term = total = 1.0
    n = 0
    while term >= _EPS:
        term *= (n - 0.5) ** 2 / ((n + 1) * kappa)
        total += term
        n += 1
    return 2.0 * math.sqrt(kappa / math.pi) * total


# --- generalized hypergeometric series ---------------------------------------


# No caller in the package: perfbench/spans.py still traces it by name, so it
# goes when the benchmark stops patching module attributes (ROADMAP item 4).
def hyp2f2_with_scale(a1: float, a2: float, b1: float, b2: float, z: float) -> tuple[float, float]:
    """2F2(a1, a2; b1, b2; z) by direct Pochhammer series, plus the largest
    absolute partial term of that series.

    The scale is what a caller needs to bound the float64 rounding error of
    the sum: roughly ``max_term * machine_eps`` absolute.
    """
    for b in (b1, b2):
        if b <= 0 and b == int(b):
            raise ValueError(f"lower parameter {b} is a non-positive integer")
    term = 1.0
    total = 1.0
    max_term = 1.0
    small_streak = 0
    for n in range(SERIES_MAX_TERMS):
        term *= z / (n + 1.0) * (a1 + n) * (a2 + n) / (b1 + n) / (b2 + n)
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


def log_tricomi_u_scaled(a: float, b: float, z: float) -> float:
    """log of z^a * Psi(a, b; z) for a > 0, z > 0, computed without forming z^-a.

    This is the numerically safe quantity when z is large and Psi itself
    underflows; z^a * Psi -> 1 as z -> inf.  z^a * Psi is the integral over
    s > 0 of (1 + s/z)^(b-a-1) s^(a-1) e^-s / Gamma(a), after substituting
    s = z t in the defining integral; working in s keeps the integrand O(1)
    even when z is huge.  The integrand, written exp(phi(s)), is integrated
    in x = log(s / s*), where s* is the peak of phi(s) + log s, the one
    positive stationary point, with that peak taken out: the integrand is 1
    at x = 0 and below it elsewhere, decays like e^(a x) as x -> -inf and
    faster as x -> inf, so it never overflows.  The quadrature scale is
    1/sqrt of the curvature at the peak where the peak is narrow, so its
    nodes find a narrow peak far below s = 1, and otherwise ``reach_width(a)``,
    whose sinh map reaches the e^(a x) tail without stepping over the peak.
    """
    if a <= 0:
        raise ValueError(f"the Tricomi function requires a > 0, got {a}")
    if z <= 0:
        raise ValueError(f"the Tricomi function requires z > 0, got {z}")
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
    # s* = a + power * sigma with sigma = s*/(s* + z), so the curvature at the
    # peak, a + power * sigma^2, is a (1 - sigma) + s* sigma, a sum of positive
    # terms; and a log s* - s* - lgamma(a), whose terms cancel to ~a log(a) eps,
    # is log_gamma_peak(a) + a (log1p(u) - u) with u = s*/a - 1 = power sigma / a
    sigma = math.exp(log_ratio - peak_softplus)
    width = min(1.0 / math.sqrt(a * math.exp(-peak_softplus) + s_star * sigma), reach_width(a))
    u = power * sigma / a
    log_ratio_a = math.log1p(u) if u > -0.5 else log_s_star - math.log(a)
    log_scale = power * peak_softplus + log_gamma_peak(a) + a * (log_ratio_a - u)

    def integrand(x):
        # log1p(s/z) - log1p(s*/z) is one log1p(sigma expm1(x)) near the peak,
        # where a difference of softplus values loses its digits to a huge
        # |power|; the clamp acts only at x < -1, where the difference is taken
        near = np.expm1(np.minimum(x, 1.0))
        rise = np.where(np.abs(x) < 1.0, np.log1p(sigma * np.maximum(near, -0.75)),
                        np.logaddexp(0.0, log_ratio + x) - peak_softplus)
        # s - s*, with s capped at e^700, where e^-s has long underflowed
        growth = np.where(x < 1.0, s_star * near,
                          np.exp(np.minimum(log_s_star + x, 700.0)) - s_star)
        return np.exp(power * rise + a * x - growth)

    integral = adaptive_quad(integrand, width, rel_tol=1e-9, abs_tol=0.0)
    if integral <= 0:
        raise QuadratureError(f"non-positive Tricomi integral at a={a}, b={b}, z={z}")
    return log_scale + math.log(integral)


# --- quadrature -----------------------------------------------------------------

# the t range of the trapezoid rule stops widening at |t| = 40, where x is
# ~1e17 widths out, and its step, first 1/2, halves at most 12 times
_MAX_REACH = 40.0
_MAX_HALVINGS = 12


def reach_width(rate: float) -> float:
    """The least ``adaptive_quad`` width, at least 1, that reaches a tail like e^(rate x).

    The rule reaches |x| = width sinh(_MAX_REACH), and the tail falls to
    e^-40 at |x| = 40 / rate, so the width is 1 down to rates near 3.4e-16.
    """
    return max(1.0, 40.0 / (rate * math.sinh(_MAX_REACH)))


# one call visits at most 32 grids (the first, 19 widenings, 12 halvings),
# and 240 operating points drawn like the benchmark's visit 9 in all
@functools.lru_cache(maxsize=64)
def _sinh_cosh(grid: str, step: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sinh and cosh of an ``adaptive_quad`` t grid, read-only: its nodes at
    -n..n times ``step`` ("all"), the four on each side past n ("wings"),
    or the odd multiples between -n and n ("odd")."""
    if grid == "all":
        t = step * np.arange(-n, n + 1)
    elif grid == "wings":
        k = np.arange(n + 1, n + 5)
        t = step * np.concatenate((-k[::-1], k))
    else:
        t = step * np.arange(1 - n, n, 2)
    out = np.sinh(t), np.cosh(t)
    for values in out:
        values.flags.writeable = False
    return out


def adaptive_quad(f, width: float, rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> float:
    """Integral over the real line of ``f``, by the trapezoid rule in x = width * sinh(t).

    ``f`` maps an array of x to the array of its values, whose mass sits
    around x = 0 on a scale of ``width``.  The rule converges exponentially
    for analytic integrands (Trefethen & Weideman, SIAM Review 56, 2014).
    The t range widens until both end terms are below max(abs_tol, eps *
    |integral|); then the step halves, evaluating only the new midpoints,
    until two estimates agree to max(abs_tol, rel_tol * |integral|).  An
    integrand that does not decay or does not settle raises
    ``QuadratureError``.  The result is a plain ``float``.
    """

    def mapped(grid, step, n):
        sinh, cosh = _sinh_cosh(grid, step, n)
        return f(width * sinh) * (width * cosh)

    step, n = 0.5, 6  # nodes at -n..n times the step
    values = mapped("all", step, n)
    total = step * np.sum(values)
    while max(abs(values[0]), abs(values[-1])) > max(abs_tol, _EPS * abs(total)):
        if not math.isfinite(total) or n * step >= _MAX_REACH:
            raise QuadratureError(f"integrand does not decay within |t| <= {n * step}")
        values = mapped("wings", step, n)
        total += step * np.sum(values)
        n += 4
    for _ in range(_MAX_HALVINGS):
        step, n = 0.5 * step, 2 * n
        refined = 0.5 * total + step * np.sum(mapped("odd", step, n))
        if abs(refined - total) <= max(abs_tol, rel_tol * abs(refined)):
            return float(refined)
        total = refined
    raise QuadratureError(f"trapezoid estimates did not settle by step {step}")
