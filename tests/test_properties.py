"""Property tests at random masks beyond the exhaustive caps, up to n = 64.

Derandomized, so every run draws the same examples.
"""

import functools
import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rank_prefix_beta
from descyc import linear, lyndon, oracle
from descyc.core import (
    MAX_N,
    DescentSet,
    divisors,
    gap_parts,
    quotient_mask,
    square_free_divisors,
)
from descyc.cyclic import beta_cyc_mask, cyclic_eulerian
from descyc.linear import Strategy, beta_mask, eulerian, kz_mask, multinomial

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def descent_sets(draw, sizes=st.integers(1, MAX_N), max_size=None):
    """(n, mask) with n drawn from sizes and at most max_size elements."""
    n = draw(sizes)
    if n == 1:
        return n, 0
    elements = draw(st.sets(st.integers(1, n - 1), max_size=max_size))
    return n, sum(1 << (i - 1) for i in elements)


def _elements(n, mask):
    return [i for i in range(1, n) if mask >> (i - 1) & 1]


@PROPERTY
@given(descent_sets())
def test_beta_from_beta_cyc_pointwise(case):
    # beta(I) = sum over d | n of (-1)**(|I| - |I/d|) * (n/d) * beta_cyc(I/d)
    n, mask = case
    elements = _elements(n, mask)
    total = 0
    for d in divisors(n):
        kept = [i // d for i in elements if i % d == 0]
        quotient = sum(1 << (j - 1) for j in kept)
        sign = (-1) ** (len(elements) - len(kept))
        total += sign * (n // d) * beta_cyc_mask(n // d, quotient)
    assert total == beta_mask(n, mask)


@PROPERTY
@given(st.one_of(descent_sets(sizes=st.integers(3, MAX_N), max_size=3),
                 descent_sets(sizes=st.integers(3, MAX_N))),
       st.booleans())
def test_quotient_inequality(case, complement):
    # conjectured (README): beta_n(I) >= (n-1) * beta_{n/d}(I/d) for every
    # square-free d > 1 dividing n and every proper nonempty I.  About half
    # the draws have at most three elements and half are complemented, so
    # sparse and co-sparse sets come up often
    n, mask = case
    if complement:
        mask ^= (1 << (n - 1)) - 1
    assume(mask not in (0, (1 << (n - 1)) - 1))
    beta = beta_mask(n, mask)
    for d, _ in square_free_divisors(n):
        if d > 1:
            assert beta >= (n - 1) * beta_mask(n // d, quotient_mask(mask, d, n)), d


@PROPERTY
@given(descent_sets(sizes=st.integers(2, MAX_N)), st.data())
def test_beta_top_bit_recurrence(case, data):
    # beta_n(S u {k}) = C(n, k) * beta_k(S) - beta_n(S) for S inside [k-1],
    # the recurrence linear.beta_table and linear.beta_mask are built from,
    # read off the rank-prefix DP
    n, mask = case
    k = data.draw(st.integers(1, n - 1))
    low = mask & ((1 << (k - 1)) - 1)
    assert (rank_prefix_beta(n, low | 1 << (k - 1))
            == math.comb(n, k) * rank_prefix_beta(k, low) - rank_prefix_beta(n, low))


@PROPERTY
@given(descent_sets(), st.sampled_from(["drawn", "full", "alternating"]),
       st.booleans())
def test_beta_matches_rank_prefix_dp(case, shape, complement):
    # pointwise beta against the rank-prefix DP, with no limit on |I|: the
    # full and alternating sets and the complements of all three shapes are
    # drawn, so the recurrence runs on both sides of its reflection
    n, mask = case
    full = (1 << (n - 1)) - 1
    if shape == "full":
        mask = full
    elif shape == "alternating":
        mask = kz_mask(n, 2)
    if complement:
        mask ^= full
    assert beta_mask(n, mask) == rank_prefix_beta(n, mask)


@PROPERTY
@given(descent_sets())
def test_beta_cyc_nonnegative(case):
    assert beta_cyc_mask(*case) >= 0


@st.composite
def sizes_and_indices(draw):
    """(n, k) with 1 <= k <= n <= MAX_N."""
    n = draw(st.integers(1, MAX_N))
    return n, draw(st.integers(1, n))


@functools.cache
def _oracle_rows():
    """The row recurrence and its by-size divisor sum, up to MAX_N; they
    share no code with the power sums."""
    return oracle.eulerian_rows(MAX_N), oracle.cyclic_eulerian_rows(MAX_N)


@PROPERTY
@given(sizes_and_indices())
def test_eulerian_from_cyclic_eulerian(case):
    # the inverse theorem summed over the descent sets of each size:
    # A(n, k) = sum over d | n, j of (n/d) * (-1)**(k-j) * C(n - n/d, k - j)
    # * c(n/d, j), which ties the two power sums together at every n <= 64
    n, k = case
    total = 0
    for d in divisors(n):
        m = n // d
        for j in range(max(1, k - (n - m)), min(k, m) + 1):
            total += ((-1) ** (k - j) * m * math.comb(n - m, k - j)
                      * cyclic_eulerian(m, j))
    assert total == eulerian(n, k)
    # both ends of the power-sum reflection against the oracle's rows
    linear_rows, cycle_rows = _oracle_rows()
    for j in (k, n + 1 - k):
        assert eulerian(n, j) == linear_rows[n][j - 1], j
        assert cyclic_eulerian(n, j) == cycle_rows[n][j - 1], j


@PROPERTY
@given(descent_sets(max_size=10))
def test_dp_matches_inclusion_exclusion(case):
    n, mask = case
    assert (beta_mask(n, mask, Strategy.DP)
            == beta_mask(n, mask, Strategy.INCLUSION_EXCLUSION))


@PROPERTY
@given(descent_sets(sizes=st.integers(1, MAX_N).filter(lambda n: n % 4 != 2)))
def test_complement_symmetry(case):
    n, mask = case
    full = (1 << (n - 1)) - 1
    assert beta_cyc_mask(n, mask) == beta_cyc_mask(n, full ^ mask)


@PROPERTY
@given(descent_sets(sizes=st.integers(0, (MAX_N - 2) // 4).map(lambda t: 4 * t + 2)))
def test_complement_half_size(case):
    # n = 2 mod 4 and I with an odd number of odd elements:
    # beta_cyc(I) - beta_cyc(complement) = beta_cyc(I/2 at n/2), and from
    # n = 6 on it is zero exactly when I has no even element or all of them
    n, mask = case
    full = (1 << (n - 1)) - 1
    if sum(1 for i in _elements(n, mask) if i % 2) % 2 == 0:
        mask ^= full  # [n-1] has n/2 odd elements, an odd number
    evens = [i for i in _elements(n, mask) if i % 2 == 0]
    half = sum(1 << (i // 2 - 1) for i in evens)
    delta = beta_cyc_mask(n, mask) - beta_cyc_mask(n, full ^ mask)
    assert delta == beta_cyc_mask(n // 2, half)
    if n >= 6:
        assert (delta == 0) == (len(evens) in (0, n // 2 - 1))


@PROPERTY
@given(descent_sets())
def test_codec_round_trips(case):
    n, mask = case
    I = DescentSet(n, mask)
    text = I.to_text()
    assert text == ",".join(str(i) for i in _elements(n, mask))
    assert DescentSet.from_text(n, text) == I
    parts = gap_parts(n, mask)
    assert min(parts) >= 1 and sum(parts) == n
    cuts = itertools.accumulate(parts[:-1])
    assert sum(1 << (cut - 1) for cut in cuts) == mask


@st.composite
def typed_evaluations(draw):
    """(lam, mu, shuffled mu) with |lam| = |mu| <= 12, mu on 1..5 letters
    and up to 8 more zero letters, which no part of any rho may fill."""
    n = draw(st.integers(1, 12))
    lam = draw(st.sampled_from(lyndon.partitions_of(n)))
    letters = draw(st.integers(1, 5))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=letters - 1,
                                max_size=letters - 1)))
    mu = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    mu += (0,) * draw(st.integers(0, 8))
    return lam, mu, tuple(draw(st.permutations(mu)))


@PROPERTY
@given(typed_evaluations())
def test_word_counts_symmetric_in_evaluation(case):
    # Gessel-Reutenauer: the count is a coefficient of a symmetric function,
    # so the unmemoized sum over the power-sum expansion, filling the
    # letters of any rearrangement of mu, zeros included, agrees with the
    # count memoized on sorted mu
    lam, mu, shuffled = case
    assert (lyndon._words_by_type.__wrapped__(lam, shuffled)
            == lyndon.count_words_by_type(lam, mu))


@PROPERTY
@given(typed_evaluations())
def test_word_counts_by_type_sum_to_multinomial(case):
    # every word of evaluation mu has exactly one Lyndon type, so the counts
    # over all types of n sum to the multinomial, which the word counts
    # never compute.  Summed over the types, the power-sum expansions
    # cancel down to p_1^n, so a wrong coefficient in any one of them, or a
    # filling that a zero letter takes or an exact fill misses, shows.
    _, mu, shuffled = case
    n = sum(mu)
    assert sum(lyndon._words_by_type.__wrapped__(lam, shuffled)
               for lam in lyndon.partitions_of(n)) == multinomial(n, mu)


@st.composite
def typed_descent_sets(draw):
    """(lam, n, mask) with n <= lyndon.TYPE_CAP and at most 12 elements;
    lam is (n), (1^n), (2^(n/2)) or a partition of n drawn at random."""
    n, mask = draw(descent_sets(sizes=st.integers(1, lyndon.TYPE_CAP), max_size=12))
    shapes = [(n,), (1,) * n]
    if n % 2 == 0:
        shapes.append((2,) * (n // 2))
    parts = draw(st.one_of(st.sampled_from(shapes),
                           st.sampled_from(lyndon.partitions_of(n)).map(lambda p: p.parts)))
    return lyndon.Partition(parts), n, mask


@PROPERTY
@given(typed_descent_sets())
def test_type_counts_match_submask_inclusion_exclusion(case):
    # the exact count reads one word count per class of sorted parts; here
    # every submask of I reads its own, at its composition cut from its
    # elements, signed by (-1)**(|I| - |S|).  The contained count is the
    # word count at the composition of I itself
    lam, n, mask = case
    elements = _elements(n, mask)

    def words(chosen):
        cuts = (0, *chosen, n)
        return lyndon.count_words_by_type(lam, [b - a for a, b in zip(cuts, cuts[1:])])

    total = sum((-1) ** (len(elements) - size) * words(chosen)
                for size in range(len(elements) + 1)
                for chosen in itertools.combinations(elements, size))
    I = DescentSet(n, mask)
    assert lyndon.count_by_type_and_descents(lam, I, exact=True) == total
    assert lyndon.count_by_type_and_descents(lam, I, exact=False) == words(elements)


@PROPERTY
@given(st.integers(1, 200), st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 64)),
                                     min_size=1, max_size=5))
def test_power_terms_sum_each_power(k, terms):
    assert linear.power_terms(k, terms) == [
        sum(c * i ** e for c, e in terms) for i in range(1, k + 1)]
