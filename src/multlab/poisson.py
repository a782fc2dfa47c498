"""The Poisson-type sum controlling the phase transition,

    Sigma(lam, v) = sum_{1 <= k <= v} (lam^k / k!) * (v - k + 1) / v,

its exact rearrangement, partial Poisson mass, the predictor exponents
G(delta) and E(y; delta), and the five-regime envelope classifier driven by
theta = lam - v.  Sigma is exact for an int or Fraction lam with v <= 200;
every other input goes through its log-sum.  The exact paths work in
integers: with lam = p/q each term lam^k / k! is scaled by D = q^v * v! to
the integer p^k * q^(v-k) * v!/k!, and the result is reduced once, as a
Fraction over D * v (times q for the rearrangement).  The log-sum's v terms
are float64 arrays.  A nan or infinite argument, or a v that is not an
int >= 1, raises ValueError instead of coming back as nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .primes import LOG2

LOG4 = math.log(4.0)
EXACT_V_CAP = 200


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _as_v(v) -> int:
    if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
        raise ValueError(f"v must be an integer >= 1, got {v!r}")
    return int(v)


def poisson_sum(lam, v: int):
    """Sigma(lam, v): an exact Fraction for an int or Fraction lam with v <= 200,
    else exp of `poisson_sum_log` (inf only past the float64 range)."""
    v = _as_v(v)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if _is_exact(lam) and v <= EXACT_V_CAP:
        # lam = p/q; t = D * lam^k / k! with D = q^v * v! stays an integer
        p, q = lam.as_integer_ratio()
        d = q**v * math.factorial(v)
        t = d
        total = 0
        for k in range(1, v + 1):
            t = t * p // (q * k)
            total += t * (v - k + 1)
        return Fraction(total, d * v)
    try:
        return math.exp(poisson_sum_log(lam, v))
    except OverflowError:
        return math.inf


def poisson_sum_log(lam: float, v: int) -> float:
    """log of Sigma(lam, v), evaluated with log-factorials (safe for lam ~ 1e4).
    Its arrays repeat the float operations of a loop over k, in order, with
    math.log and math.exp, as np.log and np.exp differ in a few ulps."""
    v = _as_v(v)
    lam = float(lam)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if lam == 0:
        return -math.inf
    k = np.arange(1, v + 1)
    lg = np.cumsum(np.fromiter(map(math.log, range(1, v + 1)), np.float64, v))
    ratio_logs = np.fromiter(map(math.log, ((v - k + 1) / v).tolist()), np.float64, v)
    logs = k * math.log(lam) - lg + ratio_logs
    m = float(logs.max())
    logs -= m
    # math.exp of a term below -746 is exactly 0.0, so dropping it leaves the fsum
    return m + math.log(math.fsum(map(math.exp, logs[logs >= -746].tolist())))


def key_identity_rhs(lam, v: int) -> Fraction:
    """Exact rearrangement of Sigma(lam, v):

        ((v - lam + 1)/v) * sum_{1<=k<=v} lam^k/k!  +  (lam/v) * (lam^v/v! - 1).

    Equals poisson_sum identically (pre-truncation form).  Exact inputs
    only: lam an int or Fraction, and v <= 200."""
    v = _as_v(v)
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not (_is_exact(lam) and v <= EXACT_V_CAP):
        raise ValueError(f"key_identity_rhs needs an int or Fraction lam and "
                         f"v <= {EXACT_V_CAP}, got lam = {lam!r}, v = {v}")
    # lam = p/q; t = D * lam^k / k! with D = q^v * v! stays an integer
    p, q = lam.as_integer_ratio()
    d = q**v * math.factorial(v)
    t = d
    s = 0
    for k in range(1, v + 1):
        t = t * p // (q * k)
        s += t
    # t is now D * lam^v / v!
    return Fraction((v * q - p + q) * s + p * (t - d), q * v * d)


def partial_poisson(lam: float, z: float) -> float:
    """sum_{0 <= k <= lam + z} lam^k/k!, divided by e^lam.

    Inclusive upper index floor(lam + z); direct summation in a window around
    the mode with negligible truncated mass (relative error about 1e-9 at the
    1e6 cap, from the rounding of the log of the mode term).
    """
    lam = float(lam)
    if not 0 < lam <= 1e6:
        raise ValueError(f"lam must be in (0, 1e6], got {lam}")
    if not -math.inf < z < math.inf:
        raise ValueError(f"z must be finite, got {z}")
    k_top = math.floor(lam + z)
    if k_top < 0:
        return 0.0
    mode = min(k_top, int(lam))
    # normalized term at the mode: lam^m e^-lam / m!
    log_t = mode * math.log(lam) - lam - math.lgamma(mode + 1)
    t_mode = math.exp(log_t)
    terms = [t_mode]
    t = t_mode
    k = mode
    while k >= 1:
        t *= k / lam
        k -= 1
        terms.append(t)
        if t < t_mode * 1e-18 and len(terms) > 3:
            break
    t = t_mode
    k = mode
    while k < k_top:
        t *= lam / (k + 1)
        k += 1
        terms.append(t)
        if t < t_mode * 1e-18:
            break
    return math.fsum(terms)


def g_exponent(delta: float) -> float:
    """Exponent G(delta) of (log y) in the predictor; branches at 1/log 4."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if delta <= 1 / LOG4:
        return 1.0 - delta
    return delta - (1.0 + math.log(delta * LOG2)) / LOG2


def e_factor(loglog_y: float, delta: float) -> float:
    """Correction factor E(y; delta); the argument is loglog y."""
    if not 0 < loglog_y < math.inf:
        raise ValueError(f"loglog_y must be finite and > 0, got {loglog_y}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if delta <= 1 / LOG4:
        return max(1 / LOG4 - delta, 1.0 / math.sqrt(loglog_y))
    gap = (delta - 1 / LOG4) ** 2
    return 1.0 / (loglog_y**1.5 * max(gap, 1.0 / loglog_y))


def main_term(x: float, y: float, delta: float) -> float:
    """Predictor x / (log x)^(1-delta) * (log y)^(-G(delta)) * E(y; delta).

    Meaningful for y >= 16 or so; anything with loglog y > 0 is accepted."""
    if not (math.inf > x >= y > math.e):
        raise ValueError(f"need inf > x >= y > e, got x={x}, y={y}")
    ll_y = math.log(math.log(y))
    return (
        x
        * math.log(x) ** (delta - 1.0)
        * math.log(y) ** (-g_exponent(delta))
        * e_factor(ll_y, delta)
    )


@dataclass
class RegimeReport:
    regime: str  # "i" .. "v"
    theta: float
    log_exact_sum: float
    log_envelope: float
    ratio: float  # exact / envelope


def classify_regime(lam: float, v: int, epsilon: float) -> RegimeReport:
    """Pick the envelope regime for Sigma(lam, v) from theta = lam - v.

    Regimes: (i) theta < 0, |theta| >= eps*lam -> e^lam; (ii) theta > 0,
    theta >= eps*lam -> lam^v/(v+1)!; (iii) |theta| <= sqrt(lam) -> lam^v/v!;
    (iv) theta <= -sqrt(lam), |theta| < eps*lam -> |theta| e^lam / lam;
    (v) theta >= sqrt(lam), theta < eps*lam -> (lam^v/v!) (v/theta^2).
    Boundary ties resolve (iii) first, then (iv)/(v), then (i)/(ii).
    The analysis takes epsilon in (0, 0.2); values up to 1 are accepted.
    """
    v = _as_v(v)
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    theta = lam - v
    root = math.sqrt(lam)
    log_lam = math.log(lam)
    if abs(theta) <= root:
        regime = "iii"
        log_env = v * log_lam - math.lgamma(v + 1)
    elif theta <= -root and abs(theta) < epsilon * lam:
        regime = "iv"
        log_env = math.log(abs(theta)) + lam - log_lam
    elif theta >= root and theta < epsilon * lam:
        regime = "v"
        log_env = v * log_lam - math.lgamma(v + 1) + math.log(v) - 2 * math.log(theta)
    elif theta < 0:
        regime = "i"
        log_env = lam
    else:
        regime = "ii"
        log_env = v * log_lam - math.lgamma(v + 2)
    log_exact = poisson_sum_log(lam, v)
    return RegimeReport(regime, theta, log_exact, log_env, math.exp(log_exact - log_env))
