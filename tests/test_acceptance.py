"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every tolerance and grid is pinned inside the criterion functions; nothing
here loosens on failure.  A criterion that fails shows up red, with its
details line in the assertion message.
"""

import numpy as np
import pytest

from multlab import acceptance


@pytest.fixture(scope="module")
def ctx():
    return acceptance.Context(seed=acceptance.DEFAULT_SEED, threads=1)


@pytest.mark.parametrize(
    "cid,name,fn",
    [(cid, name, fn) for cid, name, _tags, fn in acceptance.CRITERIA],
    ids=[c[0] for c in acceptance.CRITERIA],
)
def test_criterion(ctx, cid, name, fn):
    passed, details = fn(ctx)
    line = f"{cid} {'PASS' if passed else 'FAIL'} {name}: {details}"
    print(line)
    assert passed, line


def test_band_check_holds_every_value_to_its_fixture():
    fix = {"all": [1.0, 2.0]}
    assert acceptance._check_bands({"all": [1.0, 2.0]}, fix, 2.5)[0]
    assert not acceptance._check_bands({"all": [1.0, 2.0]}, fix, 1.5)[0]
    assert not acceptance._check_bands({"all": [1.0, 2.001]}, fix, 2.5)[0]
    with pytest.raises(ValueError):  # a short fixture must not pass silently
        acceptance._check_bands({"all": [1.0, 2.0, 1.5]}, fix, 2.5)


def test_lw_names_the_smallest_violating_a(ctx, monkeypatch):
    # L tripled at a = 97 (omega 1) and a = 30 (omega 3): the block of 97
    # comes first, but c03 names the smallest violating a, and at that a the
    # first failing check in the order (i), (ii), (iii), Cauchy-Schwarz
    blocks = acceptance.squarefree_lw

    def tripled(n):
        for a, primes, la, wa in blocks(n):
            yield a, primes, np.where(np.isin(a, (30, 97)), 3.0 * la, la), wa

    monkeypatch.setattr(acceptance, "squarefree_lw", tripled)
    assert acceptance._crit_lw(ctx) == (False, "(i) violated at a=30")
