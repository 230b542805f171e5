"""Counting all permutations by descent set: alpha, beta, and the classical
specializations (Eulerian numbers, zigzag numbers, generalized zigzags).

Pointwise beta runs the top-bit recurrence
beta_n(S u {k}) = C(n, k) * beta_k(S) - beta_n(S) for S inside [k-1] over
the elements of I, or of its complement when that is smaller, so it costs
O(|I|**2) big-integer steps.  Whole tables run the same recurrence over
every mask at once.  Two routes check it and share no code with it: a
rank-prefix dynamic program (``psi_step``, which also drives the
generalized zigzag sequences, the scan walk and ``patterns``), folded in
the tests, and inclusion-exclusion over subsets of multinomial
coefficients, kept here as ``Strategy.INCLUSION_EXCLUSION``.  The zigzag
numbers are the generalized zigzags at k = 2, read from their sequence;
the tests check them against the other routes.  Eulerian power sums are
taken from the shorter end, min(k, n+1-k).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from operator import mul, sub

from .core import (
    CapacityError,
    Count,
    DescentSet,
    DomainError,
    MEMO_SIZE,
    capped_sequence,
    check_size,
    mask_elements,
    signed_submask_sum,
    small_table_cache,
)


class Strategy(enum.Enum):
    DP = "dp"  # the top-bit recurrence over the elements of I
    INCLUSION_EXCLUSION = "inclusion-exclusion"


def multinomial(n: int, parts) -> Count:
    """n! / prod(p!) over the parts, which must sum to n.

    The product of the binomials C(p_1 + ... + p_i, p_i) is taken in a
    balanced tree, so that most products are of numbers of similar size.
    """
    factors = []
    total = 0
    for p in parts:
        total += p
        factors.append(math.comb(total, p))
    if total != n:
        raise DomainError(f"parts sum to {total}, expected {n}")
    while len(factors) > 1:
        odd = factors[len(factors) & ~1:]
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + odd
    return factors[0] if factors else 1


def alpha(I: DescentSet) -> Count:
    """Permutations of the ambient n whose descent set is contained in I."""
    return alpha_mask(I.n, I.mask)


def alpha_mask(n: int, mask: int) -> Count:
    """alpha on a raw mask: the multinomial of the gap composition."""
    acc = 1
    prev = 0
    m = mask
    while m:
        low = m & -m
        i = low.bit_length()
        acc *= math.comb(i, i - prev)
        prev = i
        m ^= low
    return acc * math.comb(n, n - prev)


def psi_step(psi: list[Count], descent: bool) -> list[Count]:
    """One step of the rank-prefix dynamic program for beta.

    psi[j] counts the arrangements of a length-p prefix pattern with the
    prescribed descents whose last entry has relative rank j+1, so sum(psi)
    is beta_p of the prefix.  The result is the vector for length p+1: a
    descent to the new last entry of rank r+1 needs r <= j, an ascent r > j.
    """
    if descent:
        out = list(itertools.accumulate(reversed(psi)))
        out.reverse()
        out.append(0)
        return out
    out = [0]
    out += itertools.accumulate(psi)
    return out


@functools.lru_cache(maxsize=MEMO_SIZE)
def _beta_top_bits(n: int, mask: int) -> Count:
    # w -> n+1-w swaps I and its complement in [n-1]: run the smaller one.
    # With s_1 < ... < s_k its elements, values[j] holds B_i(points[j]) =
    # beta at points[j] of {s_1, ..., s_i}: B_0 = 1, and the top-bit
    # recurrence gives B_i(m) = C(m, s_i) * B_(i-1)(s_i) - B_(i-1)(m)
    # for every later point m, the last point being n.
    if 2 * mask.bit_count() > n - 1:
        mask ^= (1 << (n - 1)) - 1
    points = [*mask_elements(mask), n]
    values = [1] * len(points)
    for i, s in enumerate(points[:-1]):
        b = values[i]
        values[i + 1:] = [math.comb(m, s) * b - v
                          for m, v in zip(points[i + 1:], values[i + 1:])]
    return values[-1]


@functools.lru_cache(maxsize=MEMO_SIZE)
def _beta_inclusion_exclusion(n: int, mask: int) -> Count:
    # Signed sum of alpha over all subsets of the mask; shares no code with
    # the top-bit route.
    return signed_submask_sum(mask, functools.partial(alpha_mask, n))


def beta(I: DescentSet) -> Count:
    """Permutations of the ambient n with descent set exactly I."""
    return beta_mask(I.n, I.mask)


def beta_mask(n: int, mask: int, strategy: Strategy = Strategy.DP) -> Count:
    if strategy is Strategy.DP:
        return _beta_top_bits(n, mask)
    return _beta_inclusion_exclusion(n, mask)


def alpha_table(n: int) -> list[Count]:
    """alpha for every mask of ambient n, indexed by mask."""
    return [alpha_mask(n, mask) for mask in range(1 << (n - 1))]


@small_table_cache
def beta_table(n: int) -> list[Count]:
    """beta for every mask of ambient n, indexed by mask."""
    # Top-bit recurrence, for S inside [k-1]:
    #   beta_m(S u {k}) = C(m, k) * beta_k(S) - beta_m(S).
    # Placing the first k values with descent set S and the rest in
    # increasing order counts both S u {k} and S.  The masks with top bit k
    # form the block [2^(k-1), 2^k), so each k appends one block to the
    # table of m.  tables[k] holds beta_k; the pass m = n is the last to
    # read it, so that pass frees it once its block is built.
    tables: list = [None, [1]]
    for m in range(2, n + 1):
        table = [1]
        for k in range(1, m):
            c = math.comb(m, k)
            table += [c * a - b for a, b in zip(tables[k], table)]
            if m == n:
                tables[k] = None
        tables.append(table)
    return tables[n]


# Largest k * n that eulerian and cyclic.cyclic_eulerian answer.  The power
# sum takes k big-integer powers with exponent n, so its time tracks k * n:
# about 2 s at the cap on one core ((5000, 2500) and (20000, 500) both).
POWER_SUM_CAP = 10**7


def check_power_sum(what: str, n: int, k: int) -> None:
    """Refuse k outside 1..n, and k * n above POWER_SUM_CAP, before any work."""
    if not 1 <= k <= n:
        raise DomainError(f"{what} index k={k} outside 1..{n}")
    if k * n > POWER_SUM_CAP:
        raise CapacityError(
            f"{what} capped at k*n = {POWER_SUM_CAP}, got k={k}, n={n}")


def power_terms(k: int, terms) -> list[int]:
    """The sum of c * i**e over (c, e) in terms, for i = 1..k.

    Each of the terms, at least one, is one column of k powers, and the
    columns are summed entry by entry.
    """
    columns = [map(mul, itertools.repeat(c),
                   map(pow, range(1, k + 1), itertools.repeat(e)))
               for c, e in terms]
    return list(map(sum, zip(*columns)))


def power_sum(n: int, powers) -> Count:
    """The coefficient of t**k, k = len(powers), in
    (1-t)**(n+1) * sum over i >= 1 of powers[i-1] * t**i.

    That is the sum over i = 1..k of (-1)**(k-i) * C(n+1, k-i) * powers[i-1];
    each binomial is built from the one before.  Since
    sum_k A(n, k) t**k = (1-t)**(n+1) * sum_i i**n t**i (Carlitz; Worpitzky),
    the powers i**n give the Eulerian number A(n, k).
    """
    total = 0
    binom = 1  # (-1)**j * C(n+1, j)
    for j, p in enumerate(reversed(powers)):
        total += binom * p
        binom = -binom * (n + 1 - j) // (j + 1)
    return total


def power_sum_row(n: int, powers) -> list[Count]:
    """power_sum(n, powers[:k]) for every k = 1..len(powers).

    Multiplying a series by (1-t) takes differences of neighbours, so
    n + 1 difference passes give the whole row with no multiplication.
    """
    row = powers
    for _ in range(n + 1):
        row = [row[0], *map(sub, row[1:], row)]
    return row


def short_power_sum(n: int, k: int, terms) -> Count:
    """power_sum(n, power_terms(k, terms)) for exponents 1 <= e <= n,
    taken with min(k, n+1-k) powers.

    The series of that power sum is t * A_e(t) * (1-t)**(n-e), where A_e is
    the Eulerian polynomial of e.  t * A_e(t) is palindromic of degree e+1,
    so the series is palindromic of degree n+1 up to the sign (-1)**(n-e):
    the coefficient of t**k is (-1)**(n-e) times that of t**(n+1-k).
    """
    if 2 * k > n + 1:
        k = n + 1 - k
        terms = [(-c if (n - e) & 1 else c, e) for c, e in terms]
    return power_sum(n, power_terms(k, terms))


def eulerian(n: int, k: int) -> Count:
    """Permutations of n with exactly k-1 descents, A(n, k) = A(n, n+1-k).

    Raises CapacityError when k * n exceeds POWER_SUM_CAP, for the k asked.
    """
    check_power_sum("eulerian", n, k)
    return short_power_sum(n, k, ((1, n),))


def kz_mask(n: int, k: int) -> int:
    """Mask of the multiples of k inside {1, ..., n-1}."""
    mask = 0
    for i in range(k, n, k):
        mask |= 1 << (i - 1)
    return mask


# Largest n served by generalized_euler and euler_zigzag.  Each k keeps
# one rank-prefix DP: built cold up to n = 2000 it takes about 1.5 s on
# one core (k = 2 and 3, as long as one rank-prefix beta DP at n = 2000).
# Once the term at the cap is built the DP is dropped and only the terms
# stay, about 2.3 MB at k = 2.  The build's cost grows with the cube of n.
GENERALIZED_EULER_CAP = 2000


@functools.lru_cache(maxsize=MEMO_SIZE)
def _generalized_euler_terms(k: int):
    """generalized_euler(n, k) for every n up to the cap, from one DP.

    kz_mask(n, k) is a prefix of kz_mask(n', k) for every n' > n, so the
    rank-prefix vector of the beta DP after n - 1 steps serves every
    n' >= n, and its sum is the term at n.  That sum is read off the next
    step: each arrangement of the prefix extends exactly once by a new
    minimum after a descent (the first entry) or a new maximum after an
    ascent (the last entry), so no term sums the vector again.
    """
    @capped_sequence("generalized zigzag numbers", GENERALIZED_EULER_CAP)
    def terms(values):
        psi = [1]
        yield 1  # index 0 by convention
        for pos in itertools.count(1):
            descent = pos % k == 0
            psi = psi_step(psi, descent)
            yield psi[0] if descent else psi[-1]

    return terms


def generalized_euler(n: int, k: int) -> Count:
    """Permutations of n whose descent set is exactly the multiples of k.

    Raises CapacityError above GENERALIZED_EULER_CAP before any work.
    """
    if n < 1 or k < 1:
        raise DomainError(f"generalized zigzag needs n, k >= 1, got {n}, {k}")
    check_size("generalized zigzag", n, 1, GENERALIZED_EULER_CAP)
    if k >= n:
        return 1  # no multiple of k lies below n: only the identity
    if k == 1:
        return 1  # the descent set is [n-1]: only the decreasing permutation
    return _generalized_euler_terms(k)(n)


def euler_zigzag(n: int) -> Count:
    """Alternating (up-down) permutations of n, generalized_euler(n, 2);
    index 0 is 1 by convention.  Raises CapacityError above
    GENERALIZED_EULER_CAP before any work."""
    check_size("zigzag numbers", n, 0, GENERALIZED_EULER_CAP)
    return generalized_euler(n, 2) if n else 1
