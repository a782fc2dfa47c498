"""multlab: experiments on multiplication tables of integers with restricted
prime factors: prime-set densities, divisor-interval statistics, counting
functions, the Poisson phase transition, and order-statistic barriers."""

from .primes import (
    PrimeSet,
    density_audit,
    make_prime_set,
    mertens_sum,
    pi_q,
    sieve_primes,
)
from .divisors import (
    divisors,
    enumerate_sq,
    factorize,
    l_measure,
    w_count,
)
from .counting import (
    CountResult,
    aq_curve,
    count_aq,
    count_hq,
    count_rough,
    count_sq,
)
from .poisson import (
    RegimeReport,
    classify_regime,
    e_factor,
    g_exponent,
    key_identity_rhs,
    main_term,
    partial_poisson,
    poisson_sum,
    poisson_sum_log,
)
from .orderstats import (
    BarrierSpec,
    McEstimate,
    barrier_events_mc,
    qk_exact,
    qk_mc,
    uk_mc,
    vol_lower_barrier_exact,
    vol_yk_mc,
)

__version__ = "0.1.0"
