import itertools
import math
import random

import pytest

from descyc.core import (
    CapacityError,
    Composition,
    CountTable,
    DescentSet,
    DomainError,
    alternation,
    capped_sequence,
    composition_of,
    descent_gcd,
    divisors,
    gap_parts,
    mask_elements,
    mobius,
    mobius_sum,
    set_of,
    signed_submask_sum,
    square_free_divisors,
    submasks,
    subset_quotient,
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
    assert descent_gcd(DescentSet(5)) == 5
    assert descent_gcd(DescentSet.from_elements(6, [2, 4])) == 2
    assert descent_gcd(DescentSet.from_elements(7, [3])) == 1


def test_subset_quotient():
    q = subset_quotient(DescentSet.from_elements(6, [2, 4, 5]), 2)
    assert (q.n, q.elements()) == (3, (1, 2))
    I = DescentSet.from_elements(6, [3])
    assert subset_quotient(I, 1) == I
    assert subset_quotient(I, 2).elements() == ()
    with pytest.raises(DomainError):
        subset_quotient(I, 4)


def test_quotient_composes_and_divides_gcd():
    rng = random.Random(20260808)
    samples = 0
    while samples < 1000:
        n = rng.randrange(1, 17)
        ds = divisors(n)
        d = rng.choice(ds)
        e = rng.choice(divisors(n // d))
        I = DescentSet(n, rng.randrange(1 << (n - 1)))
        assert subset_quotient(subset_quotient(I, e), d) == subset_quotient(I, d * e)
        samples += 1
    for n in range(1, 17):
        for mask in range(1 << (n - 1)):
            I = DescentSet(n, mask)
            g = descent_gcd(I)
            for d in divisors(g):
                assert descent_gcd(subset_quotient(I, d)) == g // d


def test_composition_codec():
    c = composition_of(DescentSet.from_elements(12, [1, 2, 7, 9, 10]))
    assert c.parts == (1, 1, 5, 2, 1, 2)
    assert composition_of(DescentSet(5)).parts == (5,)
    assert set_of(Composition((2, 2))).elements() == (2,)
    for n in range(1, 17):
        for mask in range(1 << (n - 1)):
            I = DescentSet(n, mask)
            mu = composition_of(I)
            assert sum(mu.parts) == n
            assert set_of(mu) == I
    # the mask-level decoder: the differences of the cuts 0 < I < n
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            cuts = (0, *mask_elements(mask), n)
            parts = gap_parts(n, mask)
            assert parts == tuple(b - a for a, b in zip(cuts, cuts[1:])), (n, mask)
            assert set_of(Composition(parts)) == DescentSet(n, mask)
    with pytest.raises(DomainError):
        Composition(())
    with pytest.raises(DomainError):
        Composition((2, 0))


def test_composition_quotient_matches_subset_quotient():
    for n in range(1, 15):
        for mask in range(1 << (n - 1)):
            I = DescentSet(n, mask)
            g = descent_gcd(I)
            for d in divisors(g):
                lhs = composition_of(subset_quotient(I, d)).parts
                rhs = composition_of(I).quotient(d).parts
                assert lhs == rhs


def test_alternation():
    assert alternation(DescentSet.from_elements(6, [2, 4])) == ((1, 2, 3, 4), 4)
    assert alternation(DescentSet(6)) == ((), 0)
    assert alternation(DescentSet.from_elements(6, [2, 4, 5])) == ((1, 2, 3), 3)
    assert alternation(DescentSet(1)) == ((), 0)
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            I = DescentSet(n, mask)
            positions, count = alternation(I)
            assert len(positions) == count
            assert positions == tuple(
                i for i in range(1, n - 1) if (i in I) != (i + 1 in I))
            assert alternation(I.complement()) == (positions, count)


def test_count_table():
    table = CountTable(3, "beta", (1, 2, 2, 1))
    assert table.get(DescentSet.from_elements(3, [1])) == 2
    body = table.to_csv()
    assert body.splitlines()[0] == "mask,set,count"
    assert '3,"1,2",1' in body
    with pytest.raises(DomainError):
        CountTable(3, "beta", (1, 2))
    with pytest.raises(DomainError):
        table.get(DescentSet(4))
