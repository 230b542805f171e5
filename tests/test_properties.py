"""Property tests at random masks beyond the exhaustive caps, up to n = 64.

Derandomized, so every run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from descyc.core import MAX_N, divisors
from descyc.cyclic import beta_cyc_mask
from descyc.linear import Strategy, beta_mask

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def descent_sets(draw, max_size=None):
    """(n, mask) with n in 1..MAX_N and at most max_size elements."""
    n = draw(st.integers(1, MAX_N))
    if n == 1:
        return n, 0
    elements = draw(st.sets(st.integers(1, n - 1), max_size=max_size))
    return n, sum(1 << (i - 1) for i in elements)


@PROPERTY
@given(descent_sets())
def test_beta_from_beta_cyc_pointwise(case):
    # beta(I) = sum over d | n of (-1)**(|I| - |I/d|) * (n/d) * beta_cyc(I/d)
    n, mask = case
    elements = [i for i in range(1, n) if mask >> (i - 1) & 1]
    total = 0
    for d in divisors(n):
        kept = [i // d for i in elements if i % d == 0]
        quotient = sum(1 << (j - 1) for j in kept)
        sign = (-1) ** (len(elements) - len(kept))
        total += sign * (n // d) * beta_cyc_mask(n // d, quotient)
    assert total == beta_mask(n, mask)


@PROPERTY
@given(descent_sets())
def test_beta_cyc_nonnegative(case):
    assert beta_cyc_mask(*case) >= 0


@PROPERTY
@given(descent_sets(max_size=10))
def test_dp_matches_inclusion_exclusion(case):
    n, mask = case
    assert (beta_mask(n, mask, Strategy.DP)
            == beta_mask(n, mask, Strategy.INCLUSION_EXCLUSION))
