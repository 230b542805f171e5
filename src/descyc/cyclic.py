"""Counting n-cycles by descent set.

Every formula here reduces cycle counts to the all-permutation counts of
``linear`` through signed divisor sums, plus the closed forms those sums
specialize to for structured descent sets (Eulerian-by-count, alternating,
multiples of k).  This module only counts: the identities tying these
formulas to each other and to enumeration are stated and checked in
``verify``.  Every division by n is ``core.exact_div``, which checks the
remainder and the sign: both are theorems, so a nonzero remainder or a
negative count means a bug and aborts loudly.

The multiples-of-k forms, and the alternating ones through
``linear.euler_zigzag`` (k = 2), read the generalized zigzag numbers from
``linear.generalized_euler``, one prefix DP per k, while ``beta_cyc_mask``
runs the pointwise ``beta`` top-bit recurrence at each quotient set, so the
``verify`` check "kz cycles vs beta_cyc" computes each value twice, by two
routes.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from operator import mul, neg

from .core import (
    MEMO_SIZE,
    Count,
    DescentSet,
    DomainError,
    check_size,
    exact_div,
    mask_gcd,
    mobius_sum,
    quotient_mask,
    small_table_cache,
    square_free_divisors,
)
from .linear import (
    GENERALIZED_EULER_CAP,
    alpha_mask,
    beta_mask,
    beta_table,
    check_power_sum,
    euler_zigzag,
    generalized_euler,
    power_sum_row,
    power_terms,
    short_power_sum,
)


def signed_divisor_sum(n: int, mask: int, terms) -> int:
    """The sum of c * (-1)**(|I| - |I/d|) * f(I/d) over (d, c, f) in terms,
    for I = mask at ambient n; f takes the quotient mask at n/d.

    With one term (d, mu(d), beta at n/d) per square-free divisor d of
    n the sum is n * beta_cyc(I), the forward form of the main theorem.
    """
    size = mask.bit_count()
    total = 0
    for d, c, f in terms:
        quotient = quotient_mask(mask, d, n)
        value = c * f(quotient)
        total += -value if (size - quotient.bit_count()) & 1 else value
    return total


def signed_divisor_table(n: int, terms) -> list[int]:
    """signed_divisor_sum for every mask of ambient n, indexed by mask.

    The rows of I/d and of the signs over all masks are built by doubling,
    one bit position at a time, and f is applied to the whole row at once.
    """
    columns = []
    for d, c, f in terms:
        quotients, signs = [0], [c]
        for i in range(1, n):
            if i % d:  # i joins I but not I/d: the sign flips
                quotients *= 2
                signs += list(map(neg, signs))
            else:
                quotients += list(map((1 << (i // d - 1)).__or__, quotients))
                signs *= 2
        columns.append(map(mul, signs, map(f, quotients)))
    if not columns:
        return [0] * (1 << (n - 1))
    return list(map(sum, zip(*columns)))


def alpha_cyc_mask(n: int, mask: int) -> Count:
    total = mobius_sum(mask_gcd(n, mask), lambda d: (
        alpha_mask(n // d, quotient_mask(mask, d, n))))
    return exact_div(total, n, "alpha_cyc")


def alpha_cyc(I: DescentSet) -> Count:
    """n-cycles whose descent set is contained in I."""
    return alpha_cyc_mask(I.n, I.mask)


def beta_cyc_mask(n: int, mask: int) -> Count:
    terms = [(d, mu, partial(beta_mask, n // d)) for d, mu in square_free_divisors(n)]
    return exact_div(signed_divisor_sum(n, mask, terms), n, "beta_cyc")


def beta_cyc(I: DescentSet) -> Count:
    """n-cycles with descent set exactly I."""
    return beta_cyc_mask(I.n, I.mask)


@small_table_cache
def beta_cyc_table(n: int) -> list[Count]:
    """beta_cyc for every mask of ambient n, indexed by mask."""
    terms = [(d, mu, beta_table(n // d).__getitem__)
             for d, mu in square_free_divisors(n)]
    totals = signed_divisor_table(n, terms)
    return [exact_div(total, n, "beta_cyc") for total in totals]


def _eulerian_terms(n: int) -> list[tuple[int, int]]:
    """(mu(d), n/d) for the square-free divisors d of n."""
    return [(mu, n // d) for d, mu in square_free_divisors(n)]


@lru_cache(maxsize=MEMO_SIZE)
def cyclic_eulerian(n: int, k: int) -> Count:
    """n-cycles with exactly k-1 descents.

    Summing the main theorem over the descent sets of each size gives
    n * c(n, k) as the sum over square-free d | n of mu(d) times the
    power sum with exponent n/d, the sum over i = 1..k of
    (-1)**(k-i) * C(n+1, k-i) * i**(n/d).  Each power sum is taken from its
    shorter end, min(k, n+1-k) (linear.short_power_sum).  Raises
    CapacityError when k * n exceeds linear.POWER_SUM_CAP, for the k asked,
    before any power or divisor is computed.
    """
    check_power_sum("cyclic eulerian", n, k)
    total = short_power_sum(n, k, _eulerian_terms(n))
    return exact_div(total, n, "cyclic_eulerian")


def cyclic_eulerian_row(n: int) -> list[Count]:
    """cyclic_eulerian(n, k) for k = 1..n, from one list of powers."""
    check_power_sum("cyclic eulerian", n, n)
    totals = power_sum_row(n, power_terms(n, _eulerian_terms(n)))
    return [exact_div(total, n, "cyclic_eulerian") for total in totals]


def alternating_cycles(n: int) -> Count:
    """n-cycles whose descent set is the even positions (up-down cycles)."""
    check_size("alternating cycles", n, 1, math.inf)
    euler_zigzag(n)  # every branch reads E_n: refuses an over-cap n first
    if n % 2 == 1:
        total = mobius_sum(n, lambda d: (
            (-1 if (d - 1) // 2 & 1 else 1) * euler_zigzag(n // d)))
    elif n & (n - 1) == 0:
        total = euler_zigzag(n) - 1
    else:
        total = mobius_sum(n, lambda d: euler_zigzag(n // d) if d % 2 else 0)
    return exact_div(total, n, "alternating_cycles")


def _kz_coprime(n: int, k: int) -> Count:
    """kz_cycles(n, k) when gcd(k, n) = 1."""
    base = (n - 1) // k
    total = mobius_sum(n, lambda d: (
        (-1 if (base - (n - d) // (k * d)) & 1 else 1) * generalized_euler(n // d, k)))
    return exact_div(total, n, "kz_cycles coprime branch")


def _kz_odd_prime(n: int, p: int) -> Count:
    """kz_cycles(n, p) when p is an odd prime."""
    if n % p:
        return _kz_coprime(n, p)
    m = n
    while m % p == 0:
        m //= p
    if m == 1:
        return exact_div(generalized_euler(n, p) - 1, n, "kz prime-power branch")
    if m == 2:
        value = generalized_euler(n, p) + generalized_euler(n // 2, p) - 2
        return exact_div(value, n, "kz twice-prime-power branch")
    total = mobius_sum(m, lambda d: (
        (-1 if n * (d - 1) // d & 1 else 1) * generalized_euler(n // d, p)))
    return exact_div(total, n, "kz odd-prime branch")


def kz_cycles(n: int, k: int) -> Count:
    """n-cycles whose descent set is the multiples of k below n.

    This is the general signed divisor sum.  The simplified coprime and
    odd-prime forms (_kz_coprime, _kz_odd_prime) hold only under their
    hypotheses; the verify suite compares them with this one.  Raises
    CapacityError above linear.GENERALIZED_EULER_CAP, before the divisors of n.
    """
    if n < 1 or k < 1:
        raise DomainError(f"kz cycles needs n, k >= 1, got {n}, {k}")
    check_size("kz cycles", n, 1, GENERALIZED_EULER_CAP)
    base = (n - 1) // k
    total = mobius_sum(n, lambda d: (
        (-1 if (base - (n - d) // math.lcm(k, d)) & 1 else 1)
        * generalized_euler(n // d, k // math.gcd(k, d))))
    return exact_div(total, n, "kz_cycles")
