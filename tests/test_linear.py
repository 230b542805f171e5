import math
import random

import pytest

from conftest import assert_passed, rank_prefix_beta
from descyc import linear, verify
from descyc.core import (
    MEMO_SIZE,
    TABLE_CACHE_MAX_N,
    CapacityError,
    DescentSet,
    DomainError,
)
from descyc.cyclic import kz_cycles
from descyc.linear import (
    GENERALIZED_EULER_CAP,
    Strategy,
    alpha,
    alpha_mask,
    alpha_table,
    beta,
    beta_mask,
    beta_table,
    euler_zigzag,
    eulerian,
    generalized_euler,
    kz_mask,
    multinomial,
)

ZIGZAG = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def test_alpha_values():
    assert alpha(DescentSet.from_elements(3, [1])) == 3
    assert alpha(DescentSet(7)) == 1
    assert alpha(DescentSet.from_elements(6, [1, 2])) == 30
    assert multinomial(6, (1, 1, 4)) == 30
    with pytest.raises(DomainError):
        multinomial(6, (1, 1))


def test_beta_values():
    assert beta(DescentSet.from_elements(4, [2])) == 5
    assert beta(DescentSet(5)) == 1
    assert beta(DescentSet.from_elements(6, [1, 2])) == 10
    assert beta(DescentSet(1)) == 1
    assert beta_mask(6, 0b11111) == 1  # strictly decreasing permutation


def test_strategies_agree():
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            assert (beta_mask(n, mask, Strategy.DP)
                    == beta_mask(n, mask, Strategy.INCLUSION_EXCLUSION)), (n, mask)


def test_beta_table_matches_pointwise():
    # both run the top-bit recurrence; the rank-prefix DP checks them
    for n in range(1, 15):
        table = beta_table(n)
        assert table == [rank_prefix_beta(n, m) for m in range(1 << (n - 1))]
        assert table == [beta_mask(n, m) for m in range(1 << (n - 1))]
        assert alpha_table(n) == [alpha_mask(n, m) for m in range(1 << (n - 1))]


def test_beta_table_above_cache_matches_pointwise():
    # n = 17 is above TABLE_CACHE_MAX_N, so the table is built afresh
    n = 17
    assert n > TABLE_CACHE_MAX_N
    table = beta_table(n)
    assert len(table) == 1 << (n - 1)
    assert sum(table) == math.factorial(n)
    rng = random.Random(17)
    masks = rng.sample(range(1 << (n - 1)), 300)
    masks += [0, 1, (1 << (n - 1)) - 1, 1 << (n - 2), kz_mask(n, 2), kz_mask(n, 3)]
    for mask in masks:
        assert table[mask] == rank_prefix_beta(n, mask) == beta_mask(n, mask), mask


def test_beta_total_is_factorial():
    for n in range(1, 13):
        assert sum(beta_table(n)) == math.factorial(n)


def test_beta_reversal_symmetry():
    for n in range(1, 11):
        table = beta_table(n)
        for mask in range(1 << (n - 1)):
            reverse = 0
            for i in range(1, n):
                if mask >> (i - 1) & 1:
                    reverse |= 1 << (n - i - 1)
            assert table[mask] == table[reverse], (n, mask)


def test_beta_matches_oracle():
    assert_passed([verify._check_oracle(n) for n in range(1, 9)])


def test_eulerian():
    assert eulerian(3, 2) == 4
    assert eulerian(4, 2) == 11
    for n in range(1, 11):
        assert eulerian(n, 1) == 1
        assert sum(eulerian(n, k) for k in range(1, n + 1)) == math.factorial(n)
    with pytest.raises(DomainError):
        eulerian(4, 0)
    with pytest.raises(DomainError):
        eulerian(4, 5)


def test_eulerian_matches_descent_sums():
    assert_passed([verify._check_beta_sum_rule(n) for n in range(1, 11)])


def test_euler_zigzag():
    assert [euler_zigzag(n) for n in range(11)] == ZIGZAG
    assert euler_zigzag(40) > 0
    with pytest.raises(DomainError):
        euler_zigzag(-1)
    with pytest.raises(CapacityError):
        euler_zigzag(GENERALIZED_EULER_CAP + 1)


def test_zigzag_matches_beta():
    # inclusion-exclusion shares no code with the sequence's rank-prefix step
    for n in range(1, 15):
        assert euler_zigzag(n) == beta_mask(
            n, kz_mask(n, 2), Strategy.INCLUSION_EXCLUSION), n


def test_generalized_euler():
    assert generalized_euler(5, 3) == 9
    assert generalized_euler(6, 3) == 19
    for n in range(1, 12):
        assert generalized_euler(n, 1) == 1
        for k in range(1, 6):
            assert generalized_euler(n, k) == beta(DescentSet(n, kz_mask(n, k)))
    with pytest.raises(DomainError):
        generalized_euler(0, 2)


def test_generalized_euler_matches_inclusion_exclusion():
    # inclusion-exclusion shares no code with linear.psi_step
    for n in range(1, 12):
        for k in range(1, n + 3):
            assert generalized_euler(n, k) == beta_mask(
                n, kz_mask(n, k), Strategy.INCLUSION_EXCLUSION), (n, k)


def test_generalized_euler_in_any_order():
    # descending order builds each sequence at its longest first; shuffled
    # and ascending orders extend sequences part-way, again and again
    pairs = [(n, k) for n in range(1, 65) for k in range(1, n + 3)]
    shuffled = pairs[:]
    random.Random(23).shuffle(shuffled)
    for order in (pairs[::-1], shuffled, pairs):
        linear._generalized_euler_terms.cache_clear()
        for n, k in order:
            assert generalized_euler(n, k) == beta_mask(n, kz_mask(n, k)), (n, k)


def test_generalized_euler_builds_no_sequence_it_does_not_need():
    terms = linear._generalized_euler_terms
    terms.cache_clear()
    empty = (0, 0, MEMO_SIZE, 0)  # hits, misses, maxsize, currsize
    for n, k in [(1, 1), (5, 5), (5, 7), (GENERALIZED_EULER_CAP,) * 2]:
        assert generalized_euler(n, k) == 1
    assert kz_cycles(GENERALIZED_EULER_CAP, GENERALIZED_EULER_CAP) == 0
    assert terms.cache_info() == empty
    for count in (generalized_euler, kz_cycles):
        with pytest.raises(CapacityError):
            count(GENERALIZED_EULER_CAP + 1, 2)
    assert terms.cache_info() == empty


def test_staircase_pair_identity():
    # beta({2,...,2i-2}) + beta({2,...,2i}) = C(n,2i) * zigzag(2i), among
    # the inequality sweep's lines
    assert_passed([verify._check_inequalities(n) for n in range(2, 15)])
