"""The phase-transition sum Sigma(lam, v), its exact rearrangement, partial
Poisson mass against scipy, predictor exponents, and the regime classifier."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from multlab import (
    classify_regime,
    e_factor,
    g_exponent,
    key_identity_rhs,
    main_term,
    partial_poisson,
    poisson_sum,
    poisson_sum_log,
)
from multlab.acceptance import (
    GAUSSIAN_POINTS,
    GAUSSIAN_REL_SLACK,
    REGIME_GRID,
    _ramanujan_window,
)
from multlab.poisson import LOG4

from conftest import reference_poisson_sum_log


def reference_poisson_sum(lam, v):
    """Sigma(lam, v) by the term-by-term Fraction loop the integer path replaced."""
    lam_f = Fraction(lam)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, v + 1):
        term = term * lam_f / k
        total += term * Fraction(v - k + 1, v)
    return total


def reference_key_identity_rhs(lam, v):
    """The rearrangement by the term-by-term Fraction loop the integer path replaced."""
    lam_f = Fraction(lam)
    s = Fraction(0)
    term = Fraction(1)
    for k in range(1, v + 1):
        term = term * lam_f / k
        s += term
    return (v - lam_f + 1) / v * s + lam_f / v * (term - 1)


@settings(max_examples=100, deadline=None)
@given(
    lam=st.one_of(
        st.integers(0, 10**6),
        st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**4)),
    ),
    v=st.integers(1, 200),
)
@example(lam=0, v=1)
@example(lam=0, v=200)
@example(lam=Fraction(0), v=7)
@example(lam=10**6, v=200)
@example(lam=Fraction(10**6, 9973), v=200)
def test_exact_paths_match_fraction_reference(lam, v):
    got_sum = poisson_sum(lam, v)
    got_rhs = key_identity_rhs(lam, v)
    assert type(got_sum) is Fraction and type(got_rhs) is Fraction
    assert got_sum == reference_poisson_sum(lam, v)
    assert got_rhs == reference_key_identity_rhs(lam, v)


def test_poisson_sum_exact_values():
    assert poisson_sum(3, 1) == 3
    assert poisson_sum(2, 2) == Fraction(3)
    assert poisson_sum(1, 3) == Fraction(25, 18)
    assert poisson_sum(0, 5) == 0
    assert isinstance(poisson_sum(Fraction(1, 2), 4), Fraction)


def test_poisson_sum_float_matches_exact():
    rng = random.Random(1)
    for _ in range(40):
        lam = Fraction(rng.randint(0, 60), rng.randint(1, 7))
        v = rng.randint(1, 40)
        exact = poisson_sum(lam, v)
        approx = poisson_sum(float(lam), v)
        assert approx == pytest.approx(float(exact), rel=1e-12)


def test_poisson_sum_log_path_consistent():
    # a float lam takes the log-sum-exp branch; the Fraction lam stays exact
    exact = poisson_sum(Fraction(50), 180)
    via_log = poisson_sum(50.0, 180)
    assert via_log == pytest.approx(float(exact), rel=1e-9)
    assert poisson_sum_log(7.5, 20) == pytest.approx(
        math.log(poisson_sum(7.5, 20)), rel=1e-12
    )
    assert poisson_sum_log(0.0, 5) == -math.inf


@settings(max_examples=100)
@given(lam=st.floats(0, 700, allow_subnormal=False), v=st.integers(1, 170))
def test_poisson_sum_float_path_matches_exact(lam, v):
    exact = float(poisson_sum(Fraction(lam), v))
    assert poisson_sum(lam, v) == pytest.approx(exact, rel=1e-12)


def test_poisson_sum_float_near_overflow_is_finite():
    # log Sigma = 709.4 here: below log(max float) = 709.78, so the value fits
    lam = 4188.899603388565
    exact = float(poisson_sum(Fraction(lam), 171))
    assert math.isfinite(exact)
    assert poisson_sum(lam, 171) == pytest.approx(exact, rel=1e-12)


def test_poisson_sum_validation():
    with pytest.raises(ValueError):
        poisson_sum(3, 0)
    with pytest.raises(ValueError):
        poisson_sum(-1, 3)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError):
            poisson_sum(lam, 3)
    with pytest.raises(ValueError):
        poisson_sum_log(3.0, 0)


@settings(max_examples=60)
@given(lam=st.one_of(st.floats(0, 40), st.floats(0, 40_000), st.floats(1e-300, 1e-3)),
       v=st.integers(1, 30_000))
@example(lam=1e-300, v=30_000)  # every term but the first far below it
@example(lam=1.0, v=1)
def test_poisson_sum_log_matches_the_loop(lam, v):
    # the array form repeats the loop's float operations: equal bits, not approx
    assert poisson_sum_log(lam, v) == reference_poisson_sum_log(lam, v)


@pytest.mark.parametrize("lam,v", [(lam, v) for _, lam, v in REGIME_GRID])
def test_poisson_sum_log_matches_the_loop_on_the_regime_grid(lam, v):
    assert poisson_sum_log(lam, v) == reference_poisson_sum_log(lam, v)


@pytest.mark.parametrize("lam,v", [(0.5, 10), (7.5, 20), (50.0, 2000), (1e4, 1000),
                                   (1e4, 30_000), (1e-300, 30_000)])
def test_poisson_sum_log_drops_only_terms_exp_sends_to_zero(lam, v):
    # the log-sum with every term passed to math.exp, as before the filter
    k = np.arange(1, v + 1)
    lg = np.cumsum(np.fromiter(map(math.log, range(1, v + 1)), np.float64, v))
    ratio_logs = np.fromiter(map(math.log, ((v - k + 1) / v).tolist()), np.float64, v)
    logs = k * math.log(lam) - lg + ratio_logs
    m = float(logs.max())
    unfiltered = m + math.log(math.fsum(map(math.exp, (logs - m).tolist())))
    assert poisson_sum_log(lam, v) == unfiltered
    if v >= 2000:
        assert np.count_nonzero(logs - m < -746) > 0  # the filter drops terms here


@pytest.mark.parametrize("v", [5.0, 2.5, True, False, "5", None, 0, -3])
def test_every_sum_rejects_a_v_that_is_not_a_positive_int(v):
    calls = (lambda: poisson_sum(3, v), lambda: poisson_sum(3.0, v),
             lambda: poisson_sum_log(3.0, v), lambda: key_identity_rhs(3, v),
             lambda: classify_regime(3.0, v, 0.1))
    for call in calls:
        with pytest.raises(ValueError, match="v must be an integer >= 1"):
            call()


def test_a_numpy_integer_v_is_an_int():
    v = np.int64(40)
    assert poisson_sum(Fraction(7, 2), v) == poisson_sum(Fraction(7, 2), 40)
    assert key_identity_rhs(Fraction(7, 2), v) == key_identity_rhs(Fraction(7, 2), 40)
    assert poisson_sum_log(35.5, v) == poisson_sum_log(35.5, 40)
    assert classify_regime(35.5, v, 0.1) == classify_regime(35.5, 40, 0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
def test_poisson_sum_log_rejects_bad_lambda(lam):
    with pytest.raises(ValueError, match="lam"):
        poisson_sum_log(lam, 5)


def test_key_identity_example():
    assert key_identity_rhs(3, 2) == Fraction(21, 4)
    assert poisson_sum(3, 2) == Fraction(21, 4)


def test_key_identity_exact_property():
    rng = random.Random(9)
    for _ in range(60):
        lam = Fraction(rng.randint(0, 80), rng.randint(1, 9))
        v = rng.randint(1, 50)
        assert poisson_sum(lam, v) == key_identity_rhs(lam, v)


def test_key_identity_rejects_inexact_inputs():
    with pytest.raises(ValueError):
        key_identity_rhs(3.0, 2)
    with pytest.raises(ValueError):
        key_identity_rhs(Fraction(5), 201)
    assert key_identity_rhs(Fraction(5), 200) == poisson_sum(Fraction(5), 200)


def test_partial_poisson_matches_scipy():
    cases = [(lam, z) for lam in (0.5, 3.0, 47.2, 1000.0)
             for z in (-3.0, -0.5, 0.0, 2.7, 31.0)]
    cases += [(lam, z) for lam in (1e4, 1e5, 1e6)
              for z in (-3 * math.sqrt(lam), -0.5, 2.7, 3 * math.sqrt(lam))]
    for lam, z in cases:
        k_top = math.floor(lam + z)
        if k_top < 0:
            continue
        ours = partial_poisson(lam, z)
        ref = stats.poisson.cdf(k_top, lam)
        assert ours == pytest.approx(ref, rel=1e-9)


def test_partial_poisson_edges():
    assert partial_poisson(4.0, -4.0) == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert partial_poisson(4.0, -5.0) == 0.0
    with pytest.raises(ValueError):
        partial_poisson(0.0, 1.0)
    with pytest.raises(ValueError):
        partial_poisson(2e6, 0.0)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_partial_poisson_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="z must be finite"):
        partial_poisson(3.0, z)


def test_partial_poisson_gaussian_limit():
    # median error shrinks like 1/sqrt(lam); Phi(+-1) reached to ~1%
    errs = [abs(partial_poisson(lam, 0.0) - 0.5) for lam in (1e2, 1e3, 1e4)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.005
    phi1 = 0.8413447460685429
    assert partial_poisson(1e4, 100.0) == pytest.approx(phi1, abs=0.01)
    assert partial_poisson(1e4, -100.0) == pytest.approx(1 - phi1, abs=0.01)


def test_scipy_median_mass_inside_c08_window():
    # scipy is the oracle: P(Pois(lam) <= lam) - 1/2 sits in Ramanujan's window
    for lam in GAUSSIAN_POINTS:
        lo, hi = _ramanujan_window(lam)
        inclusive = stats.poisson.cdf(lam, lam)
        slack = GAUSSIAN_REL_SLACK * inclusive
        assert lo - slack <= inclusive - 0.5 <= hi + slack
        # an off-by-one (strict sum over k < lam) falls outside the window
        strict = stats.poisson.cdf(lam - 1, lam) - 0.5
        assert not lo - slack <= strict <= hi + slack
    # c08's old constant tolerance, 0.02 at lam = 100, was unattainable
    assert stats.poisson.cdf(100, 100) - 0.5 > 0.02


def test_ramanujan_window_rejects_non_integer_lambda():
    with pytest.raises(ValueError):
        _ramanujan_window(100.5)


def test_g_exponent_branches():
    assert g_exponent(0.5) == 0.5
    assert g_exponent(1.0) == pytest.approx(0.08607133205593431, abs=1e-15)
    # continuity at the branch point delta = 1/log 4
    left = g_exponent(1 / LOG4 - 1e-12)
    right = g_exponent(1 / LOG4 + 1e-12)
    assert left == pytest.approx(1 - 1 / LOG4, abs=1e-9)
    assert right == pytest.approx(1 - 1 / LOG4, abs=1e-9)
    for bad in (0.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            g_exponent(bad)


def test_e_factor_branches():
    assert e_factor(100.0, 0.5) == pytest.approx(1 / LOG4 - 0.5)
    assert e_factor(100.0, 0.72) == pytest.approx(0.1)  # floor 1/sqrt(loglog y)
    assert e_factor(100.0, 1.0) == pytest.approx(
        1.0 / (1000.0 * (1 - 1 / LOG4) ** 2), rel=1e-12
    )
    # near the branch point the gap term loses to the 1/loglog floor
    assert e_factor(100.0, 1 / LOG4 + 1e-6) == pytest.approx(
        1.0 / (100.0**1.5 * 1e-2), rel=1e-9
    )
    with pytest.raises(ValueError):
        e_factor(0.0, 0.5)
    with pytest.raises(ValueError):
        e_factor(10.0, 0.0)


@pytest.mark.parametrize("loglog_y", [math.nan, math.inf])
def test_e_factor_rejects_non_finite_loglog_y(loglog_y):
    with pytest.raises(ValueError, match="loglog_y"):
        e_factor(loglog_y, 0.5)


def test_main_term_closed_form_point():
    x = math.e**math.e
    # loglog y = 1 makes both the G power and E collapse: x * e^{-1}
    assert main_term(x, x, 0.5) == pytest.approx(math.exp(math.e - 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        main_term(10.0, 2.0, 0.5)  # y <= e
    with pytest.raises(ValueError):
        main_term(10.0, 20.0, 0.5)  # x < y
    with pytest.raises(ValueError, match="x="):
        main_term(math.inf, 20.0, 0.5)  # gave nan


def test_classify_regime_examples():
    assert classify_regime(100.0, 100, 0.1).regime == "iii"
    assert classify_regime(110.0, 100, 0.05).regime == "iii"  # ties go to iii
    assert classify_regime(50.0, 100, 0.1).regime == "i"
    assert classify_regime(200.0, 100, 0.3).regime == "ii"
    assert classify_regime(90.0, 100, 0.2).regime == "iv"
    assert classify_regime(121.0, 100, 0.3).regime == "v"


def test_classify_regime_report_consistency():
    rng = random.Random(12)
    seen = set()
    for _ in range(200):
        lam = rng.uniform(1.0, 400.0)
        v = rng.randint(1, 300)
        eps = rng.choice((0.05, 0.1, 0.3))
        rep = classify_regime(lam, v, eps)
        assert rep.regime in {"i", "ii", "iii", "iv", "v"}
        seen.add(rep.regime)
        assert rep.theta == lam - v
        assert rep.ratio == pytest.approx(
            math.exp(rep.log_exact_sum - rep.log_envelope), rel=1e-12
        )
        # the sum dominates its last term a_v = lam^v / (v! * v)
        log_a_v = v * math.log(lam) - math.lgamma(v + 1) - math.log(v)
        assert log_a_v <= rep.log_exact_sum + 1e-12
    assert seen == {"i", "ii", "iii", "iv", "v"}


def test_classify_regime_validation():
    with pytest.raises(ValueError):
        classify_regime(10.0, 0, 0.1)
    with pytest.raises(ValueError):
        classify_regime(0.0, 5, 0.1)
    with pytest.raises(ValueError):
        classify_regime(10.0, 5, 1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_classify_regime_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lam"):
        classify_regime(lam, 5, 0.1)
