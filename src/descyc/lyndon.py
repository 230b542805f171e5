"""Word-side counting: Lyndon factorization and counts of words by type
and evaluation, which mirror permutation counts by cycle type and descent
set.

The number of Lyndon words of length n with a given letter multiset comes
from a Moebius divisor sum over multinomials.  Counts for arbitrary types
come from Gessel & Reutenauer ("Counting permutations with given cycle
structure and descent set", JCTA 64, 1993): the words with Lyndon type lam
are generated by the symmetric function L_lam = prod_k h_m[L_k], m the
copies of k in lam, and the count at evaluation mu is <L_lam, h_mu>.  The
type's expansion in power sums is computed once (_power_sum_expansion,
integer coefficients after scaling by z_lam), and <p_rho, h_mu> counts the
ways to fill the letters of mu exactly with the parts of rho (_fillings).
Neither step uses count_lyndon or a multinomial, so the Lyndon counts and
the word counts are two routes.  A symmetric function's coefficient depends
only on the nonzero parts of mu, sorted, so the count is memoized on
(lam, sorted mu): the 2^(n-1) compositions of n share the p(n) partitions
of n as keys.

The word count at the composition of I counts the permutations of type lam
whose descent set lies inside I.  Both type counts read one word count per
class of sorted parts, not per mask.  type_descent_table groups the masks
of n by class in one pass and turns the row into exact counts with one
subset Moebius transform of its own (linear.beta_table, which verify
checks the type sums against, is built another way).
count_by_type_and_descents takes the inclusion-exclusion over the subsets
of one I class by class: _signed_classes sums the signs of the submasks
per class by recursion on the lowest element of I, through O(|I|^2)
memoized instances that counts at the same n share, so an exact count
reads at most p(n) word counts where the submasks number 2^|I|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Iterator, Sequence

from . import linear
from .core import (
    MEMO_SIZE,
    Count,
    DescentSet,
    DomainError,
    InvariantViolation,
    check_size,
    exact_div,
    gap_parts,
    mobius_sum,
    square_free_divisors,
)

Word = tuple[int, ...]

# Largest n served by the three type counts.  Types with many small parts
# have the widest power-sum expansion: cold, on one core, the table of
# (1^18) takes about 1.6 s, and its count at the full set 0.8 s.
TYPE_CAP = 18


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; n is their sum."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DomainError(f"cycle type {self.parts} needs at least one part")
        if any(p < 1 for p in self.parts):
            raise DomainError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise DomainError(f"partition parts must descend: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, parts descending, in lexicographic order."""
    out: list[Partition] = []
    # (remaining, largest part allowed, prefix); the largest next part is
    # pushed last, so it is taken first
    stack = [(n, n, ())]
    while stack:
        remaining, cap, prefix = stack.pop()
        if remaining == 0:
            out.append(Partition(prefix))
            continue
        for part in range(1, min(cap, remaining) + 1):
            stack.append((remaining - part, part, prefix + (part,)))
    return out


def lyndon_factorize(word: Sequence[int]) -> list[Word]:
    """Duval's chain decomposition into weakly decreasing Lyndon factors."""
    if not word:
        raise DomainError("cannot factor the empty word")
    w = tuple(word)
    factors = []
    i, n = 0, len(w)
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        while i <= k:
            factors.append(w[i:i + j - k])
            i += j - k
    return factors


def _normalize_evaluation(mu: Sequence[int]) -> tuple[int, ...]:
    ev = tuple(mu)
    if any(m < 0 for m in ev):
        raise DomainError(f"evaluation entries must be nonnegative: {ev}")
    while ev and ev[-1] == 0:
        ev = ev[:-1]
    return ev


# Largest n served by count_lyndon.  The slowest evaluation is all ones,
# whose d = 1 term is n!: at n = 50000 the CLI takes about 1.1 s on one
# core, about 0.8 s of it printing the decimal, and the time grows faster
# than the square of n.
LYNDON_CAP = 50000


def count_lyndon(n: int, mu: Sequence[int]) -> Count:
    """Lyndon words of length n with evaluation mu.

    Raises CapacityError above LYNDON_CAP, before the divisors of the gcd.
    """
    ev = _normalize_evaluation(mu)
    if sum(ev) != n or n < 1:
        raise DomainError(f"evaluation {tuple(mu)} does not sum to {n}")
    check_size("Lyndon counts", n, 1, LYNDON_CAP)
    total = mobius_sum(math.gcd(*ev), lambda d: (
        linear.multinomial(n // d, (m // d for m in ev if m))))
    return exact_div(total, n, "count_lyndon")


def _centralizer(parts: tuple[int, ...]) -> int:
    # z_nu: the product over part sizes j of j^m * m!, with m copies of j
    z = 1
    for part in set(parts):
        copies = parts.count(part)
        z *= part ** copies * math.factorial(copies)
    return z


def _times(left: dict, right: dict) -> dict:
    # product of two power-sum expansions keyed by sorted rho
    out: dict[tuple[int, ...], int] = {}
    for rho, c in left.items():
        for sigma, e in right.items():
            key = tuple(sorted(rho + sigma, reverse=True))
            out[key] = out.get(key, 0) + c * e
    return out


@functools.lru_cache(maxsize=MEMO_SIZE)
def _power_sum_expansion(lam: Partition) -> tuple[tuple, tuple[int, ...], int]:
    """z_lam * L_lam in the power-sum basis: its rhos, their coefficients
    in the same order, and z_lam, each built once per type.

    L_lam = prod_k h_m[L_k], with m the copies of k in lam, and
    k * L_k = sum over d | k of mu(d) * p_d^(k/d).  By h_m = sum over
    nu |- m of p_nu / z_nu and p_j[p_d] = p_jd, k^m * m! * h_m[L_k] is the
    sum over nu of (m! / z_nu) * k^(m - len(nu)) times the product over the
    parts j of nu of sum over d | k of mu(d) * p_jd^(k/d).  Its coefficients
    are integers, and z_lam is the product of the k^m * m!.
    """
    expansion: dict[tuple[int, ...], int] = {(): 1}
    for k in sorted(set(lam.parts)):
        m = lam.parts.count(k)
        plethysm = {j: {(j * d,) * (k // d): mu for d, mu in square_free_divisors(k)}
                    for j in range(1, m + 1)}
        factor: dict[tuple[int, ...], int] = {}
        for nu in partitions_of(m):
            scale = math.factorial(m) // _centralizer(nu.parts) * k ** (m - len(nu.parts))
            term = {(): scale}
            for j in nu:
                term = _times(term, plethysm[j])
            for rho, c in term.items():
                factor[rho] = factor.get(rho, 0) + c
        expansion = _times(expansion, factor)
    terms = [(rho, c) for rho, c in expansion.items() if c]
    return (tuple(rho for rho, _ in terms), tuple(c for _, c in terms),
            _centralizer(lam.parts))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _fillings(rho: tuple[int, ...], caps: tuple[int, ...]) -> int:
    """Maps from the parts of rho to letters that fill every letter exactly.

    Letter i holds caps[i], and the parts sum to sum(caps): this is
    <p_rho, h_caps>, the coefficient of x^caps in p_rho.  The first part
    goes to any letter with room for it; the rest fill what is left, kept
    as sorted nonzero capacities, where letters of equal room are alike.
    """
    if not rho:
        return 1  # the parts summed to the capacities: every letter is full
    part, rest = rho[0], rho[1:]
    letters: dict[int, int] = {}
    for cap in caps:
        if cap >= part:
            letters[cap] = letters.get(cap, 0) + 1
    total = 0
    for cap, copies in letters.items():
        left = list(caps)
        left.remove(cap)
        left.append(cap - part)
        left = sorted(filter(None, left), reverse=True)
        total += copies * _fillings(rest, tuple(left))
    return total


def count_words_by_type(lam: Partition, mu: Sequence[int]) -> Count:
    """Words with Lyndon-factor lengths lam and evaluation mu.

    Raises CapacityError above TYPE_CAP, before the evaluation is read.
    """
    check_size("type counts", lam.n, 1, TYPE_CAP)
    ev = _normalize_evaluation(mu)
    if lam.n != sum(ev):
        raise DomainError(
            f"type {lam.parts} has size {lam.n}, evaluation sums to {sum(ev)}")
    return _words_by_type(lam, tuple(sorted((m for m in ev if m), reverse=True)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _words_by_type(lam: Partition, ev: tuple[int, ...]) -> Count:
    # <L_lam, h_ev>, one dot product over the expansion; any order of ev,
    # zeros allowed
    rhos, coefficients, z = _power_sum_expansion(lam)
    total = sum(map(mul, coefficients, map(_fillings, rhos, repeat(ev))))
    return exact_div(total, z, "_words_by_type")


def _sorted_parts(n: int, mask: int) -> tuple[int, ...]:
    # the parts of the composition of mask, sorted: the word-count memo key
    return tuple(sorted(gap_parts(n, mask), reverse=True))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _signed_classes(n: int, mask: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(sorted parts, signed count) over the submasks S of mask, ambient n.

    A class's count sums (-1)^(|mask| - |S|) over the S whose composition
    sorts to its parts; classes that sum to 0 are left out.  With e the
    lowest element of mask, S either skips e, which flips the sign of each
    class of the rest of mask, or cuts at e: its first part is e and its
    other parts are those of a submask of the rest shifted down by e, in
    ambient n - e.  So one mask reaches at most (|mask|+1)(|mask|+2)/2
    instances, which counts at the same n share.
    """
    if not mask:
        return (((n,), 1),)
    low = mask & -mask
    e = low.bit_length()
    rest = mask ^ low
    classes = {parts: -count for parts, count in _signed_classes(n, rest)}
    for parts, count in _signed_classes(n - e, rest >> e):
        key = tuple(sorted((e, *parts), reverse=True))
        classes[key] = classes.get(key, 0) + count
    return tuple((parts, count) for parts, count in classes.items() if count)


def type_descent_table(lam: Partition) -> list[Count]:
    """Permutations of cycle type lam by exact descent set, every mask.

    Entry mask counts the permutations of type lam whose descent set is
    exactly the set of mask.  The word count at each mask's composition
    counts those whose descent set lies inside it (Gessel-Reutenauer); it
    depends only on the sorted parts, so one pass groups the 2^(n-1) masks
    by those and reads one word count per class.  One subset Moebius
    transform over blocks of the table turns the contained counts into
    exact ones, in (n-1) * 2^(n-2) subtractions where inclusion-exclusion
    set by set takes 3^(n-1) terms.  Raises CapacityError above TYPE_CAP.
    """
    check_size("type counts", lam.n, 1, TYPE_CAP)
    n = lam.n
    words: dict[tuple[int, ...], Count] = {}  # one word count per class
    table = []
    for key in map(_sorted_parts, repeat(n), range(1 << (n - 1))):
        if key not in words:
            words[key] = _words_by_type(lam, key)
        table.append(words[key])
    step = 1
    while step < len(table):
        # the block [top, top + step) holds bit step; the one below lacks it
        for top in range(step, len(table), 2 * step):
            table[top:top + step] = map(sub, table[top:top + step], table[top - step:top])
        step *= 2
    if min(table) < 0:
        raise InvariantViolation(f"negative exact count for type {lam.parts}")
    return table


def count_by_type_and_descents(lam: Partition, I: DescentSet, exact: bool = True) -> Count:
    """Permutations with cycle type lam and descent set related to I.

    With exact=False this is the count of those whose descent set is
    contained in I, one word count.  With exact=True it is exactly I: the
    inclusion-exclusion over the submasks of I, read as one word count per
    class of sorted parts that _signed_classes leaves nonzero, at most
    p(n) of them.  Raises CapacityError above TYPE_CAP.
    """
    check_size("type counts", lam.n, 1, TYPE_CAP)
    if lam.n != I.n:
        raise DomainError(f"type size {lam.n} != ambient size {I.n}")
    if not exact:
        return _words_by_type(lam, _sorted_parts(I.n, I.mask))
    total = sum(count * _words_by_type(lam, parts)
                for parts, count in _signed_classes(I.n, I.mask))
    if total < 0:
        raise InvariantViolation(
            f"negative exact count for type {lam.parts}, set {I.to_text()!r}")
    return total
