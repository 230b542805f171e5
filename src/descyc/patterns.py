"""Permutations and n-cycles avoiding monotone consecutive patterns.

Avoiding an increasing run of length k means no k-1 adjacent ascents,
i.e. every gap in the descent composition is smaller than k.  The two
closed-form cycle counts for k = 3 combine the avoider sequences gamma
(no double ascent) and gamma-star (no double descent, bounded by ascents
on both ends) through signed divisor sums split by residue mod 3.
"""

from __future__ import annotations

import math
from operator import add, neg
from typing import Iterator

from .core import (
    MAX_N,
    Count,
    DomainError,
    capped_sequence,
    check_size,
    divisors,
    exact_div,
    mobius,
    mobius_sum,
)
from .linear import psi_step


def chi(r: int) -> int:
    """+1 on residue 1, -1 on residue 0 (mod 3), else 0."""
    if r % 3 == 1:
        return 1
    if r % 3 == 0:
        return -1
    return 0


def chi_star(r: int) -> int:
    """+1 on residue 2, -1 on residue 0 (mod 3), else 0."""
    if r % 3 == 2:
        return 1
    if r % 3 == 0:
        return -1
    return 0


# Largest n served by gamma and gamma_star: cold, each builds its terms up
# to here in about 0.3 to 0.5 s on one core.
GAMMA_CAP = 700


def _pascal_rows():
    """Yield the rows C(m, 0..m) for m = 1, 2, ..., each from the one before."""
    row = [1]
    while True:
        row = [1, *map(add, row, row[1:]), 1]
        yield row


@capped_sequence("gamma", GAMMA_CAP)
def gamma(values):
    """Permutations of n with no two adjacent ascents."""
    yield 1
    for m, binom in enumerate(_pascal_rows(), 1):
        yield sum(chi(r) * binom[r] * values[m - r]
                  for r in range(1, m + 1) if chi(r))


@capped_sequence("gamma*", GAMMA_CAP)
def gamma_star(values):
    """Permutations of n with no two adjacent descents that start and end
    with an ascent; 1 and 0 for n = 0 and 1 by convention."""
    yield 1
    for m, binom in enumerate(_pascal_rows(), 1):  # the sum is empty at m = 1
        yield sum((-1) ** r * chi_star(r) * binom[r] * values[m - r]
                  for r in range(2, m + 1) if chi_star(r))


def theta(n: int) -> int:
    """1 on powers of three, -2 on twice powers of three, else 0."""
    m = n
    while m % 3 == 0:
        m //= 3
    return {1: 1, 2: -2}.get(m, 0) if m < n else 0


def theta_tilde(n: int) -> int:
    """1 on powers of three (exponent >= 1), else 0."""
    return 1 if theta(n) == 1 else 0


def theta_divisor_sum(n: int) -> int:
    """Direct evaluation of the signed divisor sum theta() closes."""
    return sum(
        mobius(d) * (-1) ** (n // d)
        for d in divisors(n)
        if d % 3 == 0
    )


def theta_tilde_divisor_sum(n: int) -> int:
    """Direct evaluation of the divisor sum theta_tilde() closes."""
    sign = -1 if n & 1 else 1
    return sign * sum(mobius(d) for d in divisors(n) if d % 3 == 0)


def cycles_avoiding_incr3(n: int) -> Count:
    """n-cycles with no two adjacent ascents."""
    check_size("cycles avoiding 123", n, 1, math.inf)
    gamma(n)  # the d = 1 term: refuses an over-cap n before the divisors of n
    total = theta(n) + mobius_sum(n, lambda d: (
        gamma(n // d) if d % 3 == 1
        else (-1 if n // d & 1 else 1) * gamma_star(n // d) if d % 3 == 2
        else 0))
    return exact_div(total, n, "cycles_avoiding_incr3")


def cycles_avoiding_decr3(n: int) -> Count:
    """n-cycles with no two adjacent descents."""
    check_size("cycles avoiding 321", n, 1, math.inf)
    gamma(n)  # the d = 1 term: refuses an over-cap n before the divisors of n
    outer_sign = -1 if n & 1 else 1
    total = theta_tilde(n) + mobius_sum(n, lambda d: (
        (-1 if (d - 1) * (n // d) & 1 else 1) * gamma(n // d) if d % 3 == 1
        else outer_sign * gamma_star(n // d) if d % 3 == 2
        else 0))
    return exact_div(total, n, "cycles_avoiding_decr3")


def composition_masks(n: int, least: int, most: int) -> Iterator[int]:
    """Descent-set masks whose gap compositions have every part in
    [least, most]; at n = 0 the empty composition, mask 0.

    The order is depth first: a composition comes before those that
    split its last part, and smaller parts come first.
    """
    if least < 1:
        raise DomainError(f"composition parts need least >= 1, got {least}")
    stack = [(0, 0)]
    while stack:
        acc, mask = stack.pop()
        remaining = n - acc
        if least <= remaining <= most or not n:
            yield mask
        for part in range(min(most, remaining - least), least - 1, -1):
            stack.append((acc + part, mask | 1 << (acc + part - 1)))


def _check_run_args(n: int, k: int, direction: str, least_n: int) -> None:
    if n < least_n or k < 2:
        raise DomainError(f"needs n >= {least_n} and k >= 2, got {n}, {k}")
    if direction not in ("incr", "decr"):
        raise DomainError(f"direction must be incr or decr, got {direction!r}")
    check_size("monotone-run counts", n, least_n, MAX_N)


def _run_family_sum(n: int, k: int, d: int, descending: bool) -> int:
    """The sum of (-1)**(|I| - |I/d|) * beta(I/d) at ambient n/d over the
    descent sets I of n with no k-1 adjacent ascents, or descents if
    descending; d divides n.

    One pass over the steps i = 1..n-1: runs[r] is the summed rank-prefix
    vector of I/d over the prefixes that end in r steps of the limited kind.
    psi_step is linear, so the prefixes that merge into one run length share
    one vector.  A step at a multiple of d is a step of I/d; any other step
    leaves the vector as it is, negated on a descent.
    """
    def step(psi: list[int], i: int, descent: bool) -> list[int]:
        if i % d == 0:
            return psi_step(psi, descent)
        return list(map(neg, psi)) if descent else psi

    runs = [[1]]
    for i in range(1, n):
        # the list grows by one a step, so it stays within min(k - 1, n) runs
        runs = [step(list(map(sum, zip(*runs))), i, not descending),
                *(step(psi, i, descending) for psi in runs[:k - 2])]
    return sum(map(sum, runs))


def monotone_avoiders(n: int, k: int, direction: str = "incr") -> Count:
    """Permutations of n with no k-1 adjacent ascents (incr) or descents."""
    _check_run_args(n, k, direction, 0)
    return _run_family_sum(n, k, 1, direction == "decr")


def cycles_avoiding_monotone(n: int, k: int, direction: str = "incr") -> Count:
    """n-cycles avoiding a monotone run of length k, by direct family sums.

    The main theorem summed over the descent sets with no k-1 adjacent
    ascents (incr) or descents (decr), one Moebius sum of family passes.
    For k = 3 this must agree with the closed forms, which the verification
    suite asserts.
    """
    _check_run_args(n, k, direction, 1)
    total = mobius_sum(n, lambda d: _run_family_sum(n, k, d, direction == "decr"))
    return exact_div(total, n, "cycles_avoiding_monotone")
