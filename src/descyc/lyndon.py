"""Word-side counting: Lyndon factorization and counts of words by type
and evaluation, which mirror permutation counts by cycle type and descent
set.

The number of Lyndon words of length n with a given letter multiset comes
from a Moebius divisor sum over multinomials; counts for arbitrary types
convolve those across part lengths, treating equal-length factors as an
unordered selection with repetition.

By Gessel & Reutenauer ("Counting permutations with given cycle structure
and descent set", JCTA 64, 1993) the number of words with Lyndon type lam
and evaluation mu is the coefficient of x^mu in a symmetric function, so it
depends only on the nonzero parts of mu, sorted.  The convolution is
therefore memoized on (lam, sorted mu): the 2^(n-1) compositions of n
share the p(n) partitions of n as keys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    Count,
    DescentSet,
    DomainError,
    InvariantViolation,
    composition_of,
    divisors,
    exact_div,
    mask_elements,
    mobius,
)
from .linear import MEMO_SIZE, multinomial

Word = tuple[int, ...]


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

    def build(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(n, n, ())
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


def word_type(word: Sequence[int]) -> Partition:
    """Partition of Lyndon-factor lengths, longest first."""
    lengths = sorted((len(f) for f in lyndon_factorize(word)), reverse=True)
    return Partition(tuple(lengths))


def evaluation(word: Sequence[int], alphabet_size: int = 0) -> tuple[int, ...]:
    """Letter multiplicities, padded out to alphabet_size entries."""
    width = max(alphabet_size, max(word, default=0))
    ev = [0] * width
    for letter in word:
        if letter < 1:
            raise DomainError(f"letters must be positive, got {letter}")
        ev[letter - 1] += 1
    return tuple(ev)


def period(word: Sequence[int]) -> int:
    """Length of the shortest root v with word = v repeated."""
    w = tuple(word)
    if not w:
        raise DomainError("empty word has no period")
    n = len(w)
    for d in divisors(n):
        if w[:d] * (n // d) == w:
            return d
    raise AssertionError("unreachable: the word is its own root")


def _normalize_evaluation(mu: Sequence[int]) -> tuple[int, ...]:
    ev = tuple(mu)
    if any(m < 0 for m in ev):
        raise DomainError(f"evaluation entries must be nonnegative: {ev}")
    while ev and ev[-1] == 0:
        ev = ev[:-1]
    return ev


def count_lyndon(n: int, mu: Sequence[int]) -> Count:
    """Lyndon words of length n with evaluation mu."""
    ev = _normalize_evaluation(mu)
    if sum(ev) != n or n < 1:
        raise DomainError(f"evaluation {tuple(mu)} does not sum to {n}")
    g = 0
    for m in ev:
        g = math.gcd(g, m)
    total = 0
    for d in divisors(g):
        mu_d = mobius(d)
        if mu_d:
            total += mu_d * multinomial(n // d, (m // d for m in ev if m))
    return exact_div(total, n, "count_lyndon")


def _bounded_evaluations(length: int, bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    # weak compositions of `length` dominated entrywise by `bound`,
    # lexicographic order
    out: list[tuple[int, ...]] = []

    def build(idx: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if idx == len(bound):
            if remaining == 0:
                out.append(prefix)
            return
        tail_room = sum(bound[idx + 1:])
        lo = max(0, remaining - tail_room)
        for take in range(lo, min(bound[idx], remaining) + 1):
            build(idx + 1, remaining - take, prefix + (take,))

    build(0, length, ())
    return out


def _multiset_choose(objects: Count, copies: int) -> Count:
    return math.comb(objects + copies - 1, copies)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _length_class_table(
    length: int, copies: int, bound: tuple[int, ...]
) -> dict[tuple[int, ...], Count]:
    """Distributions of `copies` unordered Lyndon words of one length.

    Maps total evaluation -> number of multisets realizing it.  Evaluation
    classes are walked in a fixed lexicographic order; repetition within a
    class is a stars-and-bars choice since equal words may repeat.
    """
    evals = _bounded_evaluations(length, bound)
    counts = [count_lyndon(length, ev) for ev in evals]
    state: dict[tuple[tuple[int, ...], int], Count] = {((0,) * len(bound), copies): 1}
    for ev, available in zip(evals, counts):
        if available == 0:
            continue
        nxt: dict[tuple[tuple[int, ...], int], Count] = {}
        for (acc, remaining), ways in state.items():
            take = 0
            while take <= remaining:
                new_acc = tuple(a + take * e for a, e in zip(acc, ev))
                if any(a > b for a, b in zip(new_acc, bound)):
                    break
                key = (new_acc, remaining - take)
                nxt[key] = nxt.get(key, 0) + ways * _multiset_choose(available, take)
                take += 1
        state = nxt
    return {acc: ways for (acc, remaining), ways in state.items() if remaining == 0}


def count_words_by_type(lam: Partition, mu: Sequence[int]) -> Count:
    """Words with Lyndon-factor lengths lam and evaluation mu."""
    ev = _normalize_evaluation(mu)
    if lam.n != sum(ev):
        raise DomainError(
            f"type {lam.parts} has size {lam.n}, evaluation sums to {sum(ev)}")
    if not ev:
        raise DomainError("empty evaluation")
    return _words_by_type(lam, tuple(sorted((m for m in ev if m), reverse=True)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _words_by_type(lam: Partition, ev: tuple[int, ...]) -> Count:
    # the convolution over part lengths; any order of ev, zeros allowed
    multiplicities: dict[int, int] = {}
    for part in lam.parts:
        multiplicities[part] = multiplicities.get(part, 0) + 1
    combined: dict[tuple[int, ...], Count] = {(0,) * len(ev): 1}
    for length in sorted(multiplicities, reverse=True):
        table = _length_class_table(length, multiplicities[length], ev)
        nxt: dict[tuple[int, ...], Count] = {}
        for acc, ways in combined.items():
            for sub_ev, sub_ways in table.items():
                new_acc = tuple(a + e for a, e in zip(acc, sub_ev))
                if any(a > b for a, b in zip(new_acc, ev)):
                    continue
                nxt[new_acc] = nxt.get(new_acc, 0) + ways * sub_ways
        combined = nxt
    return combined.get(ev, 0)


def count_by_type_and_descents(lam: Partition, I: DescentSet, exact: bool = True) -> Count:
    """Permutations with cycle type lam and descent set related to I.

    With exact=False this is the count of those whose descent set is
    contained in I; with exact=True, exactly I (by inclusion-exclusion).
    """
    if lam.n != I.n:
        raise DomainError(f"type size {lam.n} != ambient size {I.n}")
    if not exact:
        return count_words_by_type(lam, composition_of(I).parts)
    # each submask's composition parts, sorted, key the word-count memo
    n = I.n
    size = I.mask.bit_count()
    total = 0
    sub = I.mask
    while True:
        cuts = (0, *mask_elements(sub), n)
        parts = sorted([b - a for a, b in zip(cuts, cuts[1:])], reverse=True)
        sign = -1 if (size - sub.bit_count()) & 1 else 1
        total += sign * _words_by_type(lam, tuple(parts))
        if sub == 0:
            break
        sub = (sub - 1) & I.mask
    if total < 0:
        raise InvariantViolation(
            f"negative exact count for type {lam.parts}, set {I.to_text()!r}")
    return total
