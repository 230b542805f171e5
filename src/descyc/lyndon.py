"""Word-side counting: Lyndon factorization and counts of words by type
and evaluation, which mirror permutation counts by cycle type and descent
set.

The number of Lyndon words of length n with a given letter multiset comes
from a Moebius divisor sum over multinomials; counts for arbitrary types
convolve those across part lengths, treating equal-length factors as an
unordered selection with repetition.  The convolution packs each
evaluation into one int, a guarded bit field per letter (see _layout), so
adding two evaluations is one integer add and checking one against the
bound is one subtraction and one mask.

By Gessel & Reutenauer ("Counting permutations with given cycle structure
and descent set", JCTA 64, 1993) the number of words with Lyndon type lam
and evaluation mu is the coefficient of x^mu in a symmetric function, so it
depends only on the nonzero parts of mu, sorted.  The convolution is
therefore memoized on (lam, sorted mu): the 2^(n-1) compositions of n
share the p(n) partitions of n as keys.

The word count at the composition of I counts the permutations of type lam
whose descent set lies inside I.  type_descent_table reads it at every
mask of n and turns the row into exact counts with one subset Moebius
transform of its own (linear.beta_table, which verify checks the type sums
against, is built another way).  count_by_type_and_descents keeps the
inclusion-exclusion over the subsets of one I: its 2^|I| terms cost less
than a table of 2^(n-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    MEMO_SIZE,
    CapacityError,
    Count,
    DescentSet,
    DomainError,
    InvariantViolation,
    composition_of,
    divisors,
    exact_div,
    mask_elements,
    mobius_sum,
    signed_submask_sum,
)
from .linear import multinomial

Word = tuple[int, ...]

# type_descent_table reads one word count per sorted composition of n.
# Cold, every type at n = 12 takes under 1 s; at n = 14 the type (7, 7)
# takes about 11 s, most of it pairing the Lyndon words of length 7.
TYPE_TABLE_CAP = 12


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


# Largest n served by count_lyndon.  The slowest evaluation is all ones,
# whose d = 1 term is n!: at n = 50000 it takes about 1.6 s on one core,
# printing included, and the time grows faster than the square of n.
LYNDON_CAP = 50000


def count_lyndon(n: int, mu: Sequence[int]) -> Count:
    """Lyndon words of length n with evaluation mu.

    Raises CapacityError above LYNDON_CAP, before the divisors of the gcd.
    """
    ev = _normalize_evaluation(mu)
    if sum(ev) != n or n < 1:
        raise DomainError(f"evaluation {tuple(mu)} does not sum to {n}")
    if n > LYNDON_CAP:
        raise CapacityError(f"Lyndon counts capped at n = {LYNDON_CAP}, got {n}")
    total = mobius_sum(math.gcd(*ev), lambda d: (
        multinomial(n // d, (m // d for m in ev if m))))
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


def _layout(bound: Sequence[int]) -> tuple[int, int, int]:
    """Field width, guard bits and guarded bound for packing evaluations.

    An evaluation dominated by `bound` packs into one int, letter i in
    bits [i*width, (i+1)*width).  The low width-1 bits of a field hold any
    value up to 2*sum(bound), so the sum of two dominated evaluations never
    carries into the next field; the top bit of each field is a guard.
    With H the guard bits and BH = packed(bound) | H, a packed `acc`
    whose fields are at most 2*sum(bound) is dominated by `bound` exactly
    when (BH - acc) & H == H: a field that exceeds its bound clears its
    own guard and borrows no further.
    """
    width = (2 * sum(bound)).bit_length() + 1
    guards = _pack((1 << (width - 1),) * len(bound), width)
    return width, guards, _pack(bound, width) | guards


def _pack(ev: Sequence[int], width: int) -> int:
    packed = 0
    for e in reversed(ev):
        packed = packed << width | e
    return packed


@functools.lru_cache(maxsize=MEMO_SIZE)
def _length_class_table(
    length: int, copies: int, bound: tuple[int, ...]
) -> dict[int, Count]:
    """Distributions of `copies` unordered Lyndon words of one length.

    Maps total evaluation, packed in the layout of `bound`, -> number of
    multisets realizing it.  Evaluation classes are walked in a fixed
    lexicographic order; repetition within a class is a stars-and-bars
    choice since equal words may repeat.
    """
    width, guards, ceiling = _layout(bound)
    # rows[r]: packed evaluation -> ways, with r words still to choose.  A
    # class moves entries only to lower rows, which it has already passed,
    # so the rows are updated in place and row 0 is never walked.
    rows: list[dict[int, Count]] = [{} for _ in range(copies)] + [{0: 1}]
    for ev in _bounded_evaluations(length, bound):
        available = count_lyndon(length, ev)
        if available == 0:
            continue
        step = _pack(ev, width)
        choose = [_multiset_choose(available, take) for take in range(copies + 1)]
        for remaining in range(1, copies + 1):
            for acc, ways in rows[remaining].items():
                for take in range(1, remaining + 1):
                    acc += step
                    if (ceiling - acc) & guards != guards:
                        break
                    row = rows[remaining - take]
                    row[acc] = row.get(acc, 0) + ways * choose[take]
    return rows[0]


def count_words_by_type(lam: Partition, mu: Sequence[int]) -> Count:
    """Words with Lyndon-factor lengths lam and evaluation mu."""
    ev = _normalize_evaluation(mu)
    if lam.n != sum(ev):
        raise DomainError(
            f"type {lam.parts} has size {lam.n}, evaluation sums to {sum(ev)}")
    return _words_by_type(lam, tuple(sorted((m for m in ev if m), reverse=True)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _words_by_type(lam: Partition, ev: tuple[int, ...]) -> Count:
    # the convolution over part lengths on packed evaluations; any order of
    # ev, zeros allowed.  The last length class is read at the one packed
    # evaluation that completes each partial sum to ev.
    multiplicities: dict[int, int] = {}
    for part in lam.parts:
        multiplicities[part] = multiplicities.get(part, 0) + 1
    *lengths, last = sorted(multiplicities, reverse=True)
    width, guards, ceiling = _layout(ev)
    combined: dict[int, Count] = {0: 1}
    for length in lengths:
        table = _length_class_table(length, multiplicities[length], ev)
        nxt: dict[int, Count] = {}
        for acc, ways in combined.items():
            for sub_ev, sub_ways in table.items():
                new_acc = acc + sub_ev
                if (ceiling - new_acc) & guards == guards:
                    nxt[new_acc] = nxt.get(new_acc, 0) + ways * sub_ways
        combined = nxt
    table = _length_class_table(last, multiplicities[last], ev)
    target = _pack(ev, width)
    return sum(ways * table.get(target - acc, 0) for acc, ways in combined.items())


def _sorted_parts(n: int, mask: int) -> tuple[int, ...]:
    # the parts of the composition of mask, sorted: the word-count memo key
    cuts = (0, *mask_elements(mask), n)
    return tuple(sorted([b - a for a, b in zip(cuts, cuts[1:])], reverse=True))


def type_descent_table(lam: Partition) -> list[Count]:
    """Permutations of cycle type lam by exact descent set, every mask.

    Entry mask counts the permutations of type lam whose descent set is
    exactly the set of mask.  The word count at each mask's composition
    counts those whose descent set lies inside it (Gessel-Reutenauer);
    one subset Moebius transform turns those 2^(n-1) counts into exact
    ones, in (n-1) * 2^(n-2) subtractions where inclusion-exclusion set by
    set takes 3^(n-1) terms.  Raises CapacityError above TYPE_TABLE_CAP.
    """
    n = lam.n
    if n > TYPE_TABLE_CAP:
        raise CapacityError(
            f"type-descent tables capped at n = {TYPE_TABLE_CAP}, got {n}")
    table = [_words_by_type(lam, _sorted_parts(n, mask))
             for mask in range(1 << (n - 1))]
    for bit in range(n - 1):
        for mask in range(len(table)):
            if mask >> bit & 1:
                table[mask] -= table[mask ^ 1 << bit]
    if min(table) < 0:
        raise InvariantViolation(f"negative exact count for type {lam.parts}")
    return table


def count_by_type_and_descents(lam: Partition, I: DescentSet, exact: bool = True) -> Count:
    """Permutations with cycle type lam and descent set related to I.

    With exact=False this is the count of those whose descent set is
    contained in I; with exact=True, exactly I (by inclusion-exclusion).
    """
    if lam.n != I.n:
        raise DomainError(f"type size {lam.n} != ambient size {I.n}")
    if not exact:
        return count_words_by_type(lam, composition_of(I).parts)
    total = signed_submask_sum(
        I.mask, lambda sub: _words_by_type(lam, _sorted_parts(I.n, sub)))
    if total < 0:
        raise InvariantViolation(
            f"negative exact count for type {lam.parts}, set {I.to_text()!r}")
    return total
