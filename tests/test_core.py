import itertools
import math
import random

import pytest

from descyc.core import (
    CapacityError,
    CountTable,
    DescentSet,
    DomainError,
    alternation_mask,
    capped_sequence,
    divisors,
    gap_parts,
    mask_elements,
    mask_gcd,
    mobius,
    mobius_sum,
    quotient_mask,
    signed_submask_sum,
    square_free_divisors,
    submasks,
    subset_sums,
)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert mobius(2) == -1
    assert mobius(6) == 1
    with pytest.raises(DomainError):
        mobius(0)


def test_mobius_divisor_sums():
    assert sum(mobius(d) for d in divisors(1)) == 1
    for n in range(2, 10001):
        assert sum(mobius(d) for d in divisors(n)) == 0, n


def test_mobius_sum():
    for n in range(1, 501):
        assert square_free_divisors(n) == tuple(
            (d, mobius(d)) for d in divisors(n) if mobius(d))
        assert mobius_sum(n, lambda d: 1) == (n == 1)
        # Euler's totient, counted directly
        totient = sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)
        assert mobius_sum(n, lambda d: n // d) == totient, n


def _itertools_submasks(mask):
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return [(len(bits) - r, sum(c)) for r in range(len(bits) + 1)
            for c in itertools.combinations(bits, r)]


def test_subset_walks_match_itertools():
    rng = random.Random(17)
    for n in range(1, 11):
        table = [rng.randrange(-1000, 1000) for _ in range(1 << (n - 1))]
        sums = subset_sums(table)
        assert sums == subset_sums(tuple(table))
        for mask in range(1 << (n - 1)):
            pairs = _itertools_submasks(mask)
            walked = list(submasks(mask))
            assert walked[0] == mask and walked[-1] == 0
            assert sorted(walked) == sorted(sub for _, sub in pairs)
            assert len(set(walked)) == len(walked)
            assert signed_submask_sum(mask, table.__getitem__) == sum(
                (-1) ** missing * table[sub] for missing, sub in pairs)
            assert sums[mask] == sum(table[sub] for _, sub in pairs)


def test_capped_sequence_builds_each_term_once():
    stepped = []

    @capped_sequence("squares", 20)
    def squares(values):
        """Squares, each from the one before."""
        for m in itertools.count():
            assert len(values) == m
            stepped.append(m)
            yield values[-1] + 2 * m - 1 if m else 0

    assert squares.__doc__ == "Squares, each from the one before."
    with pytest.raises(DomainError, match="squares needs n >= 0, got -1"):
        squares(-1)
    with pytest.raises(CapacityError, match="squares capped at n = 20, got 21"):
        squares(21)
    assert stepped == []
    assert [squares(10), squares(3), squares(12)] == [100, 9, 144]
    assert stepped == list(range(13))
    # at or below the highest term built so far: the memo, no step
    assert [squares(12), squares(0), squares(7)] == [144, 0, 49]
    assert stepped == list(range(13))
    assert squares(20) == 400 and stepped == list(range(21))


def test_capped_sequence_closes_its_generator_at_the_cap():
    closed = []

    @capped_sequence("ones", 5)
    def ones(values):
        try:
            while True:
                yield 1
        finally:
            closed.append(len(values))

    assert ones(4) == 1 and closed == []
    assert ones(5) == 1 and closed == [6]  # run once all six terms were stored
    assert [ones(n) for n in range(6)] == [1] * 6 and closed == [6]
    with pytest.raises(CapacityError, match="ones capped at n = 5, got 6"):
        ones(6)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(9) == [1, 3, 9]
    for n in range(1, 200):
        ds = divisors(n)
        assert ds == sorted(set(ds))
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)
    with pytest.raises(DomainError):
        divisors(0)


def test_descent_set_construction():
    I = DescentSet.from_elements(6, [2, 4])
    assert I.mask == 0b01010
    assert I.elements() == (2, 4)
    assert len(I) == 2
    assert 2 in I and 3 not in I and 7 not in I
    assert DescentSet(1).elements() == ()
    with pytest.raises(DomainError):
        DescentSet(1, 1)
    with pytest.raises(DomainError):
        DescentSet(0)
    with pytest.raises(DomainError):
        DescentSet(65)
    with pytest.raises(DomainError):
        DescentSet.from_elements(4, [4])


def test_text_codec_is_strict():
    assert DescentSet.from_text(6, "2,4").elements() == (2, 4)
    assert DescentSet.from_text(6, "").elements() == ()
    assert DescentSet.from_text(6, " 1 , 3 ").elements() == (1, 3)
    assert DescentSet.from_elements(6, [2, 4]).to_text() == "2,4"
    assert DescentSet(6).to_text() == ""
    for bad in ("4,2", "2,2", "0", "6", "x", "1,,2"):
        with pytest.raises(DomainError):
            DescentSet.from_text(6, bad)
    for n in range(1, 10):
        for mask in range(1 << (n - 1)):
            I = DescentSet(n, mask)
            assert DescentSet.from_text(n, I.to_text()) == I


def test_descent_gcd():
    assert mask_gcd(5, 0) == 5
    assert mask_gcd(6, 0b1010) == 2
    assert mask_gcd(7, 0b100) == 1
    assert mask_gcd(8, 0b110) == 1


def test_subset_quotient():
    assert quotient_mask(0b11010, 2, 6) == 0b11
    assert quotient_mask(0b100, 1, 6) == 0b100
    assert quotient_mask(0b100, 2, 6) == 0


def test_quotient_composes_and_divides_gcd():
    rng = random.Random(20260808)
    samples = 0
    while samples < 1000:
        n = rng.randrange(1, 17)
        ds = divisors(n)
        d = rng.choice(ds)
        e = rng.choice(divisors(n // d))
        mask = rng.randrange(1 << (n - 1))
        assert (quotient_mask(quotient_mask(mask, e, n), d, n // e)
                == quotient_mask(mask, d * e, n)), (n, mask, d, e)
        samples += 1
    for n in range(1, 17):
        for mask in range(1 << (n - 1)):
            g = mask_gcd(n, mask)
            for d in divisors(g):
                assert mask_gcd(n // d, quotient_mask(mask, d, n)) == g // d


def _mask_of(parts):
    """The inverse of gap_parts: the partial sums of all but the last part."""
    return sum(1 << (cut - 1) for cut in itertools.accumulate(parts[:-1]))


def test_composition_codec():
    assert gap_parts(12, 0b1101000011) == (1, 1, 5, 2, 1, 2)
    assert gap_parts(5, 0) == (5,)
    for n in range(1, 17):
        for mask in range(1 << (n - 1)):
            parts = gap_parts(n, mask)
            assert min(parts) >= 1 and sum(parts) == n, (n, mask)
            assert _mask_of(parts) == mask, (n, mask)
    # the differences of the cuts 0 < I < n
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            cuts = (0, *mask_elements(mask), n)
            assert gap_parts(n, mask) == tuple(b - a for a, b in zip(cuts, cuts[1:]))


def test_composition_quotient_matches_subset_quotient():
    for n in range(1, 15):
        for mask in range(1 << (n - 1)):
            parts = gap_parts(n, mask)
            for d in divisors(mask_gcd(n, mask)):
                assert all(p % d == 0 for p in parts), (n, mask, d)
                assert (gap_parts(n // d, quotient_mask(mask, d, n))
                        == tuple(p // d for p in parts)), (n, mask, d)


def test_alternation():
    assert mask_elements(alternation_mask(0b1010, 6)) == (1, 2, 3, 4)
    assert alternation_mask(0, 6) == 0
    assert mask_elements(alternation_mask(0b11010, 6)) == (1, 2, 3)
    assert alternation_mask(0, 1) == 0
    for n in range(1, 13):
        full = (1 << (n - 1)) - 1
        for mask in range(1 << (n - 1)):
            alt = alternation_mask(mask, n)
            assert mask_elements(alt) == tuple(
                i for i in range(1, n - 1)
                if (mask >> (i - 1) & 1) != (mask >> i & 1)), (n, mask)
            assert alternation_mask(full ^ mask, n) == alt, (n, mask)


def test_count_table():
    table = CountTable(3, "beta", (1, 2, 2, 1))
    body = table.to_csv()
    assert body.splitlines()[0] == "mask,set,count"
    assert '3,"1,2",1' in body
    with pytest.raises(DomainError):
        CountTable(3, "beta", (1, 2))
