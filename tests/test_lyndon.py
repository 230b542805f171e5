import gc
import itertools
import math
from collections import Counter

import pytest

from conftest import assert_passed
from descyc import linear, lyndon, verify
from descyc.core import (
    MAX_N,
    CapacityError,
    DescentSet,
    DomainError,
    mask_elements,
    square_free_divisors,
)
from descyc.cyclic import alpha_cyc_mask, beta_cyc_mask, beta_cyc_table
from descyc.linear import beta_table
from descyc.lyndon import (
    Partition,
    count_by_type_and_descents,
    count_lyndon,
    count_words_by_type,
    lyndon_factorize,
    partitions_of,
    type_descent_table,
)
from descyc.oracle import (
    brute_tables,
    brute_words,
    is_lyndon_slow,
    slow_factorization,
)


def test_partition_type():
    assert Partition((3, 1, 1)).n == 5
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((0,))


def _partitions_reference(n):
    # the former recursive definition; its closure refers to itself
    out = []

    def build(remaining, cap, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(n, n, ())
    return out


def test_partitions_of_matches_recursive_reference():
    for n in range(1, 21):
        assert [p.parts for p in partitions_of(n)] == _partitions_reference(n), n


def test_partitions_of_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        partitions_of(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sorted_parts_matches_composition():
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            cuts = (0, *mask_elements(mask), n)
            expected = tuple(sorted((b - a for a, b in zip(cuts, cuts[1:])),
                                    reverse=True))
            assert lyndon._sorted_parts(n, mask) == expected, (n, mask)


def test_factorization_examples():
    assert lyndon_factorize((1, 2, 2)) == [(1, 2, 2)]
    assert lyndon_factorize((2, 2, 1, 1)) == [(2,), (2,), (1,), (1,)]
    assert lyndon_factorize((1, 2, 1, 2)) == [(1, 2), (1, 2)]
    assert [len(f) for f in lyndon_factorize((1, 2, 1, 2))] == [2, 2]
    with pytest.raises(DomainError):
        lyndon_factorize(())


def test_factorization_against_slow_route():
    for length in range(1, 9):
        for word in itertools.product((1, 2, 3), repeat=length):
            assert lyndon_factorize(word) == slow_factorization(word), word


def test_factorization_laws_up_to_length_ten():
    assert_passed([verify._check_factorization_laws(length)
                   for length in range(1, 11)])


def test_count_lyndon():
    assert count_lyndon(3, (1, 2)) == 1
    assert count_lyndon(2, (1, 1)) == 1
    assert count_lyndon(1, (1,)) == 1
    for n in range(2, 10):
        assert count_lyndon(n, (n,)) == 0
    # trailing zeros are canonicalized away
    assert count_lyndon(3, (1, 2, 0, 0)) == 1
    with pytest.raises(DomainError):
        count_lyndon(3, (1, 1))


def test_primitive_words_are_n_times_lyndon_words():
    assert_passed([verify._check_primitive_words(n) for n in range(1, 11)])


def test_count_lyndon_matches_direct_enumeration():
    for n in range(1, 9):
        for q in (1, 2, 3):
            letters = range(1, q + 1)
            direct = Counter(
                tuple(map(w.count, letters)) for w in itertools.product(letters, repeat=n)
                if is_lyndon_slow(w))
            for ev in itertools.product(range(n + 1), repeat=q):
                if sum(ev) != n:
                    continue
                assert count_lyndon(n, ev) == direct[ev], (n, ev)


def test_necklace_totals():
    assert_passed([verify._check_necklace_totals(n) for n in range(1, 13)])


def test_count_words_by_type_examples():
    assert count_words_by_type(Partition((1, 1, 1)), (2, 1)) == 1
    assert count_words_by_type(Partition((2, 1)), (2, 1)) == 1
    assert count_words_by_type(Partition((3,)), (1, 2)) == 1
    for n in range(1, 8):
        for mu in itertools.product(range(n + 1), repeat=2):
            if sum(mu) == n:
                assert (count_words_by_type(Partition((n,)), mu)
                        == count_lyndon(n, mu))
    with pytest.raises(DomainError):
        count_words_by_type(Partition((2, 1)), (1, 1))


def test_count_words_by_type_matches_oracle():
    assert_passed([verify._check_word_counts(n) for n in range(1, 9)])


def test_count_by_type_and_descents():
    for n in range(1, 9):
        betas = beta_table(n)
        _, _, typed = brute_tables(n)
        parts = partitions_of(n)
        for mask in range(1 << (n - 1)):
            I = DescentSet(n, mask)
            total = 0
            for lam in parts:
                exact = count_by_type_and_descents(lam, I, exact=True)
                table = typed.get(lam.parts)
                assert exact == (table.counts[mask] if table else 0), (
                    n, lam.parts, mask)
                total += exact
            assert total == betas[mask]
            assert (count_by_type_and_descents(Partition((n,)), I, exact=True)
                    == beta_cyc_mask(n, mask))
            assert (count_by_type_and_descents(Partition((n,)), I, exact=False)
                    == alpha_cyc_mask(n, mask))
        assert count_by_type_and_descents(
            Partition((1,) * n), DescentSet(n), exact=True) == 1
    # past the enumeration cap, the type (n) row is still beta_cyc: a route
    # to the main theorem that shares no code with the divisor-sum formulas
    for n in range(9, 13):
        row = type_descent_table(Partition((n,)))
        for mask in range(1 << (n - 1)):
            assert (count_by_type_and_descents(
                Partition((n,)), DescentSet(n, mask), exact=True)
                == row[mask]), (n, mask)
    with pytest.raises(DomainError):
        count_by_type_and_descents(Partition((2, 1)), DescentSet(4))


def test_type_descent_tables_match_enumeration():
    for n in range(1, 11):
        _, _, typed = brute_tables(n)
        for lam in partitions_of(n):
            table = typed.get(lam.parts)
            expected = list(table.counts) if table else [0] * (1 << (n - 1))
            assert type_descent_table(lam) == expected, (n, lam.parts)


def test_cycle_row_is_beta_cyc_up_to_the_cap():
    for n in range(1, lyndon.TYPE_CAP + 1):
        assert type_descent_table(Partition((n,))) == list(beta_cyc_table(n)), n


def test_tables_at_the_cap():
    # conjugating by the longest permutation keeps the cycle type and
    # reflects the descent set, I -> n - I: bit i - 1 goes to bit n - 1 - i,
    # which reverses the n - 1 bits of the mask
    n = lyndon.TYPE_CAP
    for parts in [(n // 2, n - n // 2), (2,) * 5 + (1,) * (n - 10)]:
        row = type_descent_table(Partition(parts))
        assert sum(row) == math.factorial(n) // lyndon._centralizer(parts), parts
        reflected = [row[int(f"{mask:0{n - 1}b}"[::-1], 2)]
                     for mask in range(len(row))]
        assert reflected == row, parts


def test_word_counts_use_neither_lyndon_counts_nor_multinomials(monkeypatch):
    def refused(*args):
        raise AssertionError("the word counts took another route's code")

    tally = brute_words(7, 3)
    monkeypatch.setattr(lyndon, "count_lyndon", refused)
    monkeypatch.setattr(linear, "multinomial", refused)
    for memo in (lyndon._words_by_type, lyndon._power_sum_expansion,
                 lyndon._fillings):
        memo.cache_clear()
    for (parts, ev), count in tally.items():
        assert count_words_by_type(Partition(parts), ev) == count, (parts, ev)
    with pytest.raises(AssertionError):
        count_lyndon(6, (2, 2, 2))


def test_type_descent_table_capped_before_any_work():
    memos = (lyndon._words_by_type, lyndon._power_sum_expansion,
             lyndon._fillings, square_free_divisors)
    before = [memo.cache_info() for memo in memos]
    message = f"type counts capped at n = {lyndon.TYPE_CAP},"
    over = lyndon.TYPE_CAP + 1
    for lam in [Partition((over,)), Partition((64,)), Partition((10**6,)),
                Partition((1,) * over), Partition((1,) * 64)]:
        with pytest.raises(CapacityError, match=message):
            type_descent_table(lam)
        with pytest.raises(CapacityError, match=message):
            count_words_by_type(lam, (lam.n,))
        if lam.n <= MAX_N:
            for exact in (True, False):
                with pytest.raises(CapacityError, match=message):
                    count_by_type_and_descents(lam, DescentSet(lam.n, 1), exact)
    after = [memo.cache_info() for memo in memos]
    assert ([(info.hits, info.misses) for info in after]
            == [(info.hits, info.misses) for info in before])
