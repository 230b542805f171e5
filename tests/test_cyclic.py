import math
import random

import pytest

from conftest import assert_passed
from descyc import cyclic, linear, verify
from descyc.core import (
    TABLE_CACHE_MAX_N,
    CapacityError,
    DescentSet,
    DomainError,
    divisors,
    mobius,
    quotient_mask,
)
from descyc.cyclic import (
    alpha_cyc,
    alternating_cycles,
    beta_cyc,
    beta_cyc_mask,
    beta_cyc_table,
    cyclic_eulerian,
    cyclic_eulerian_row,
    kz_cycles,
    signed_divisor_sum,
    signed_divisor_table,
)
from descyc.linear import (
    POWER_SUM_CAP,
    beta_mask,
    beta_table,
    eulerian,
    kz_mask,
)
from descyc.oracle import cyclic_eulerian_rows, eulerian_rows


def test_alpha_cyc_values():
    assert alpha_cyc(DescentSet.from_elements(3, [1])) == 1
    assert alpha_cyc(DescentSet(1)) == 1
    assert alpha_cyc(DescentSet.from_elements(2, [1])) == 1


def test_beta_cyc_values():
    assert beta_cyc(DescentSet.from_elements(3, [1])) == 1
    assert beta_cyc(DescentSet.from_elements(3, [1, 2])) == 0
    assert beta_cyc(DescentSet.from_elements(6, [3])) == 3
    assert beta_cyc(DescentSet.from_elements(6, [1, 2])) == 2
    assert beta_cyc(DescentSet.from_elements(6, [3, 4, 5])) == 1
    assert beta_cyc_table(3) == [0, 1, 1, 0]
    # the empty descent set only admits the one-point cycle
    assert beta_cyc(DescentSet(1)) == 1
    for n in range(2, 12):
        assert beta_cyc_mask(n, 0) == 0


def test_tables_match_oracle():
    assert_passed([verify._check_oracle(n) for n in range(1, 9)])


def test_alpha_cyc_is_subset_sum_of_beta_cyc():
    assert_passed([verify._check_alpha_cyc_subset_sums(n) for n in range(1, 11)])


def test_cyclic_eulerian():
    assert cyclic_eulerian(4, 2) == 3
    for n in range(2, 13):
        assert cyclic_eulerian(n, 1) == 0
    for n in range(1, 15):
        assert (sum(cyclic_eulerian(n, k) for k in range(1, n + 1))
                == math.factorial(n - 1))
    with pytest.raises(DomainError):
        cyclic_eulerian(4, 0)
    with pytest.raises(DomainError):
        cyclic_eulerian(4, 5)


def test_cyclic_eulerian_matches_descent_sums():
    assert_passed([verify._check_cycle_sum_rules(n) for n in range(1, 13)])


def test_power_sums_match_oracle_rows():
    # every k at n <= 60: the power sums against the row recurrence and its
    # by-size divisor sum, which share no code with them
    linear_rows = eulerian_rows(60)
    cycle_rows = cyclic_eulerian_rows(60)
    for n in range(1, 61):
        assert [eulerian(n, k) for k in range(1, n + 1)] == linear_rows[n]
        assert [cyclic_eulerian(n, k) for k in range(1, n + 1)] == cycle_rows[n]
        assert cyclic_eulerian_row(n) == cycle_rows[n]


def test_power_sums_capped_before_any_power(monkeypatch):
    calls = []

    def record(name):
        def refuse(*args):
            calls.append(name)
            raise AssertionError(f"{name} called before the cap check")
        return refuse

    for module in (linear, cyclic):
        monkeypatch.setattr(module, "power_terms", record("power_terms"))
    monkeypatch.setattr(cyclic, "square_free_divisors", record("divisors"))
    for n, k in ((10**18, 3), (20000, 10000), (POWER_SUM_CAP // 3 + 1, 3)):
        for count in (eulerian, cyclic_eulerian):
            with pytest.raises(CapacityError, match="capped at k\\*n"):
                count(n, k)
    with pytest.raises(CapacityError):
        cyclic_eulerian_row(4000)
    assert calls == []
    # at the cap itself the count is answered
    monkeypatch.undo()
    assert eulerian(POWER_SUM_CAP, 1) == 1
    assert cyclic_eulerian(POWER_SUM_CAP // 2, 2) > 0


def test_alternating_cycles():
    assert alternating_cycles(1) == 1
    assert alternating_cycles(4) == 1
    assert alternating_cycles(8) == 173
    assert_passed([verify._check_alternating_cycles(n) for n in range(1, 19)])


def test_kz_cycles():
    assert kz_cycles(5, 3) == 2
    assert kz_cycles(6, 3) == 3
    assert_passed([verify._check_kz_cycles(18)])
    for n in range(1, 19):
        # pattern longer than the word: the empty descent set
        assert kz_cycles(n, n + 1) == (1 if n == 1 else 0)
    with pytest.raises(DomainError):
        kz_cycles(0, 3)


def test_complement_equality_off_two_mod_four():
    assert_passed([verify._check_complements(n) for n in range(1, 13)
                   if n % 4 != 2])


def test_divisor_sum_definitions_directly():
    # beta_cyc and alpha_cyc written out longhand, as one more guard against
    # sign or quotient slips in the optimized paths
    for n in range(1, 11):
        for mask in range(1 << (n - 1)):
            total = 0
            for d in divisors(n):
                q = quotient_mask(mask, d, n)
                sign = (-1) ** (mask.bit_count() - q.bit_count())
                total += mobius(d) * sign * beta_mask(n // d, q)
            assert total == n * beta_cyc_mask(n, mask)


def _signed_sum_longhand(n, mask, terms):
    total = 0
    for d, c, f in terms:
        q = quotient_mask(mask, d, n)
        total += c * (-1) ** (mask.bit_count() - q.bit_count()) * f(q)
    return total


def test_signed_divisor_table_matches_longhand():
    for n in range(1, 15):
        # the forward form of the main theorem, and one with every divisor,
        # coefficients other than +-1 and an f that is not a beta table
        term_sets = [
            [(d, mobius(d), beta_table(n // d).__getitem__)
             for d in divisors(n) if mobius(d)],
            [(d, n // d + 1, lambda q, d=d: 3 * q + d) for d in divisors(n)],
        ]
        size = 1 << (n - 1)
        for terms in term_sets:
            expected = [_signed_sum_longhand(n, m, terms) for m in range(size)]
            assert signed_divisor_table(n, terms) == expected, n
            assert [signed_divisor_sum(n, m, terms) for m in range(size)] == expected


def test_signed_divisor_table_above_cache():
    # n = 18 is above TABLE_CACHE_MAX_N, so beta_cyc_table is built afresh;
    # its square-free divisors are 1, 2, 3 and 6
    n = 18
    assert n > TABLE_CACHE_MAX_N
    terms = [(d, mobius(d), beta_table(n // d).__getitem__) for d in (1, 2, 3, 6)]
    table = signed_divisor_table(n, terms)
    cycles = beta_cyc_table(n)
    full = (1 << (n - 1)) - 1
    masks = random.Random(18).sample(range(1, full), 296)
    masks += [0, full, kz_mask(n, 2), kz_mask(n, 3)]
    for mask in masks:
        assert table[mask] == signed_divisor_sum(n, mask, terms), mask
        assert cycles[mask] == beta_cyc_mask(n, mask), mask
