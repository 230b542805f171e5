import itertools
import math
import time

import pytest

from descyc import lyndon
from descyc.core import CapacityError, DomainError
from descyc.oracle import (
    LYNDON,
    PRIMITIVE,
    brute_avoiders,
    brute_pattern_profile,
    brute_tables,
    brute_words,
    enumerate_permutations,
    is_lyndon_slow,
    is_primitive_slow,
    slow_factorization,
    word_flags,
)


def test_enumeration_counts_and_order():
    records = list(enumerate_permutations(3))
    assert len(records) == 6
    assert records[0].one_line == (1, 2, 3)
    assert records[-1].one_line == (3, 2, 1)
    assert sum(r.is_n_cycle for r in records) == 2
    assert sum(r.is_n_cycle for r in enumerate_permutations(4)) == 6
    single = next(enumerate_permutations(1))
    assert single.descent_mask == 0 and single.cycle_type == (1,)


def test_records_are_consistent():
    for record in enumerate_permutations(5):
        perm = record.one_line
        mask = 0
        for i in range(4):
            if perm[i] > perm[i + 1]:
                mask |= 1 << i
        assert record.descent_mask == mask
        assert record.descents.mask == mask
        assert sum(record.cycle_type) == 5
        assert record.is_n_cycle == (record.cycle_type == (5,))


def test_enumeration_caps():
    with pytest.raises(CapacityError):
        next(enumerate_permutations(11))
    with pytest.raises(DomainError):
        next(enumerate_permutations(0))


def test_brute_tables():
    betas, beta_cycs, typed = brute_tables(3)
    assert list(beta_cycs.counts) == [0, 1, 1, 0]
    assert typed[(1, 1, 1)].counts[0] == 1  # identity permutation
    betas4, _, typed4 = brute_tables(4)
    assert betas4.counts[0b010] == 5
    assert sum(betas4.counts) == 24
    assert sum(sum(t.counts) for t in typed4.values()) == 24
    assert sum(typed4[(2, 2)].counts) == 3
    for n in range(1, 7):
        b, bc, _ = brute_tables(n)
        assert sum(b.counts) == math.factorial(n)
        assert sum(bc.counts) == math.factorial(n - 1)


def test_brute_avoiders():
    assert brute_avoiders(4, 3, "incr") == 17
    assert brute_avoiders(4, 3, "incr", cyclic_only=True) == 4
    assert brute_avoiders(4, 3, "decr", ascent_boundary=True) == 6
    assert brute_avoiders(1, 3, "incr") == 1
    assert brute_avoiders(1, 3, "decr", ascent_boundary=True) == 0
    with pytest.raises(DomainError):
        brute_avoiders(4, 1)
    with pytest.raises(DomainError):
        brute_avoiders(4, 3, "both")


def test_brute_tables_match_records():
    # the per-permutation records are the longhand for the sweep's loop
    for n in range(1, 9):
        rows = {}
        for record in enumerate_permutations(n):
            row = rows.setdefault(record.cycle_type, [0] * (1 << (n - 1)))
            row[record.descent_mask] += 1
        betas, beta_cycs, typed = brute_tables(n)
        assert {t: list(table.counts) for t, table in typed.items()} == rows
        assert list(betas.counts) == list(map(sum, zip(*rows.values())))
        assert list(beta_cycs.counts) == rows[(n,)]


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def test_brute_tables_class_sizes_and_reflection():
    # each row sums to the size n!/z_lam of its conjugacy class, and
    # conjugating by the reversal keeps the cycle type and reflects the
    # descent set, I -> {n - i : i in I}
    for n in range(1, 10):
        _, _, typed = brute_tables(n)
        assert sorted(typed) == sorted(_partitions(n, n))
        reflect = [int(format(mask, f"0{n - 1}b")[::-1], 2)
                   for mask in range(1 << (n - 1))]
        for ctype, table in typed.items():
            z = 1
            for k in set(ctype):
                m = ctype.count(k)
                z *= k**m * math.factorial(m)
            row = table.counts
            assert sum(row) == math.factorial(n) // z
            assert [row[mask] for mask in reflect] == list(row)


def test_brute_tables_edges():
    # n = 1 and 2 are written out; at n = 3 the three-position finish
    # starts at position 0, with no descent bit before it
    rows = {
        1: {(1,): [1]},
        2: {(1, 1): [1, 0], (2,): [0, 1]},  # 12, 21
        # 123; 213, 132, 321; 312, 231
        3: {(1, 1, 1): [1, 0, 0, 0], (2, 1): [0, 1, 1, 1], (3,): [0, 1, 1, 0]},
    }
    for n, want in rows.items():
        _, _, typed = brute_tables(n)
        assert {t: list(table.counts) for t, table in typed.items()} == want, n
    with pytest.raises(DomainError):
        brute_tables(0)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        brute_tables(11)
    assert time.perf_counter() - start < 1.0


def test_brute_tables_memo_is_read_only():
    first = brute_tables(5)
    assert brute_tables(5) is first
    with pytest.raises(TypeError):
        first[2][(5,)] = first[1]
    with pytest.raises(TypeError):
        del first[2][(5,)]
    assert first[2][(5,)] is first[2].get((5,))


def test_profile_matches_individual_counts():
    for n in range(1, 8):
        for k in range(2, n + 2):
            profile = brute_pattern_profile(n, k)
            assert profile["incr"] == brute_avoiders(n, k, "incr")
            assert profile["decr"] == brute_avoiders(n, k, "decr")
            assert profile["incr_cyc"] == brute_avoiders(
                n, k, "incr", cyclic_only=True)
            assert profile["decr_cyc"] == brute_avoiders(
                n, k, "decr", cyclic_only=True)
            assert profile["incr_boundary"] == brute_avoiders(
                n, k, "incr", ascent_boundary=True)
            assert profile["decr_boundary"] == brute_avoiders(
                n, k, "decr", ascent_boundary=True)


def test_slow_word_routines():
    assert is_lyndon_slow((1, 2, 2))
    assert not is_lyndon_slow((2, 1))
    assert not is_lyndon_slow((1, 2, 1, 2))
    assert is_primitive_slow((1, 2, 2))
    assert not is_primitive_slow((1, 2, 1, 2))
    assert slow_factorization((2, 2, 1, 1)) == [(2,), (2,), (1,), (1,)]
    assert slow_factorization((1, 2, 1, 2)) == [(1, 2), (1, 2)]
    # any span of integer letters, gaps and a lone letter included
    assert slow_factorization((0, 5, 0, 0, 5)) == [(0, 5), (0, 0, 5)]
    assert slow_factorization((7, 7, 7)) == [(7,), (7,), (7,)]
    with pytest.raises(DomainError):
        slow_factorization(())


def test_brute_words():
    tally = brute_words(2, 2)
    assert tally[((2,), (1, 1))] == 1        # the word 12
    assert sum(c for (t, _), c in tally.items() if t == (1, 1)) == 3
    only = brute_words(3, 1)
    assert only == {((1, 1, 1), (3,)): 1}
    tally32 = brute_words(3, 2)
    assert tally32[((3,), (1, 2))] == 1
    for n in range(1, 7):
        for q in (1, 2, 3):
            assert sum(brute_words(n, q).values()) == q**n
    with pytest.raises(CapacityError):
        brute_words(30, 4)


def test_word_flags_match_the_slow_predicates():
    for length in range(1, 8):
        for q in (1, 2, 3):
            flags = word_flags(length, q)
            words = itertools.product(range(1, q + 1), repeat=length)
            assert [(bool(f & PRIMITIVE), bool(f & LYNDON)) for f in flags] == [
                (is_primitive_slow(w), is_lyndon_slow(w)) for w in words], (length, q)


def test_word_flags_are_read_only_and_memoised():
    flags = word_flags(4, 2)
    assert isinstance(flags, bytes) and word_flags(4, 2) is flags
    # 1111 and 1212 are powers; 1112, 1122 and 1222 are the Lyndon words
    assert bytes(flags) == bytes([0, 3, 1, 3, 1, 0, 1, 3, 1, 1, 0, 1, 1, 1, 1, 0])
    with pytest.raises(TypeError):
        flags[0] = PRIMITIVE


def _greedy_type(word):
    # longest Lyndon prefix first, each prefix tested by is_lyndon_slow
    lengths, start = [], 0
    while start < len(word):
        stop = max(j for j in range(start + 1, len(word) + 1)
                   if is_lyndon_slow(word[start:j]))
        lengths.append(stop - start)
        start = stop
    return tuple(sorted(lengths, reverse=True))


def test_brute_words_match_a_greedy_tally():
    for n in range(1, 7):
        for q in (1, 2, 3):
            tally = {}
            for word in itertools.product(range(1, q + 1), repeat=n):
                key = (_greedy_type(word), tuple(word.count(a) for a in range(1, q + 1)))
                tally[key] = tally.get(key, 0) + 1
            assert brute_words(n, q) == tally, (n, q)


def test_word_sweep_calls_no_lyndon_code(monkeypatch):
    def refused(*args):
        raise AssertionError("the word sweep took the checked route's code")

    want = {q: (bytes(word_flags(6, q)), brute_words(6, q)) for q in (1, 2, 3)}
    names = ["lyndon_factorize", *(n for n in dir(lyndon) if n.startswith("count_"))]
    assert "count_lyndon" in names and "count_words_by_type" in names
    for name in names:
        monkeypatch.setattr(lyndon, name, refused)
    word_flags.cache_clear()
    for q, (flags, tally) in want.items():
        assert bytes(word_flags(6, q)) == flags
        assert brute_words(6, q) == tally
    assert slow_factorization((2, 1, 3)) == [(2,), (1, 3)]


def test_word_cap_refused_before_any_power():
    for call in (brute_words, word_flags):
        for args, message in [
            ((10**9, 3), "words capped at 24 letters, got 1000000000"),
            ((25, 1), "words capped at 24 letters, got 25"),
            ((15, 3), "3^15 words exceed the cap of 10000000"),
            ((1, 10**100), f"{10**100}^1 words exceed the cap of 10000000"),
        ]:
            start = time.perf_counter()
            with pytest.raises(CapacityError) as exc:
                call(*args)
            assert time.perf_counter() - start < 0.1, (call, args)
            assert str(exc.value) == message
        with pytest.raises(DomainError):
            call(0, 2)
    assert word_flags(24, 1)[0] == 0
