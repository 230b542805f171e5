"""Exhaustive ground truth by direct enumeration of the symmetric group.

Nothing here reuses the counting code of the formula modules: descents,
cycle types, pattern containment, and word factorization are recomputed
from first principles, so agreement with the formulas is meaningful
evidence rather than a tautology.

One depth-first sweep over S_n (brute_tables, memoised per n) tallies
permutations by cycle type and descent set: a shared prefix fixes its
descent bits once, and cycles are tracked as open paths joined or closed
in O(1) per placed value; one call places the last three values and
emits their six permutations.  Runs of ascents and descents depend only on
the descent set, so the pattern profile is read from those tallies;
brute_avoiders and enumerate_permutations still walk S_n one permutation
at a time and stay as the references for both.

The Eulerian rows, by number of descents, come from their classical
recurrence rather than from enumeration, so they reach past S_10; the
cycle rows sum the main theorem over the descent sets of each size.

Words of one length over {1..q} are handled by their base-q ranks, which
list them in lexicographic order.  One rotation sweep per (length, q),
memoised (word_flags), flags each word primitive (no power of a shorter
word) and Lyndon (smaller than each of its rotations, compared as
integers).  One greedy loop takes longest Lyndon prefixes by reading those
flags at the ranks of the prefixes; it gives brute_words its types and
slow_factorization its factors.  None of this calls the lyndon module.
is_lyndon_slow and is_primitive_slow test one word tuple directly and are
the references for the sweep.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .core import (
    MEMO_SIZE,
    CapacityError,
    Count,
    CountTable,
    DescentSet,
    DomainError,
    check_size,
    divisors,
    exact_div,
    mobius,
    small_table_cache,
)

# 10! records stream in comfortably; anything larger is a different tool.
ENUMERATION_CAP = 10
# Words per (length, alphabet) of word_flags and brute_words; a word also
# has at most WORD_CAP.bit_length() = 24 letters.
WORD_CAP = 10**7

# Flags of word_flags: a word is primitive when it is no power v^k with
# k >= 2, and Lyndon when it is smaller than each nontrivial rotation.
PRIMITIVE = 1
LYNDON = 2


@dataclass(frozen=True, slots=True)
class PermRecord:
    """One permutation with its recomputed descent and cycle data."""

    one_line: tuple[int, ...]
    descent_mask: int
    cycle_type: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.one_line)

    @property
    def descents(self) -> DescentSet:
        return DescentSet(self.n, self.descent_mask)

    @property
    def is_n_cycle(self) -> bool:
        return self.cycle_type == (self.n,)


def _descent_mask(perm: tuple[int, ...]) -> int:
    mask = 0
    for i in range(len(perm) - 1):
        if perm[i] > perm[i + 1]:
            mask |= 1 << i
    return mask


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm)
    seen = 0
    lengths = []
    for start in range(n):
        if seen >> start & 1:
            continue
        length = 0
        j = start
        while not seen >> j & 1:
            seen |= 1 << j
            j = perm[j] - 1
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def enumerate_permutations(n: int) -> Iterator[PermRecord]:
    """All permutations of {1, ..., n} in lexicographic order, streamed."""
    check_size("enumeration", n, 1, ENUMERATION_CAP)
    for perm in itertools.permutations(range(1, n + 1)):
        yield PermRecord(perm, _descent_mask(perm), _cycle_type(perm))


@small_table_cache
def brute_tables(
    n: int,
) -> tuple[CountTable, CountTable, Mapping[tuple[int, ...], CountTable]]:
    """Exact-descent counts overall, for n-cycles, and per cycle type.

    One depth-first sweep over S_n places a value at each position in
    turn, so permutations that share a prefix share its descent bits.  The
    placed arrows i -> perm[i] form closed cycles and open paths; every
    unplaced position ends one open path, whose start is a value not yet
    used, so head[e] and length[e] for the unplaced e are the whole state
    (undone on backtrack), and the free values are exactly those heads.
    Placing pos -> head[e] closes pos's path into a cycle when e == pos and
    otherwise joins pos's path onto e's.  Each closed cycle of length L
    adds (n + 1)**(L - 1) to an integer code, decoded to its cycle type
    once at the end.  The sweep stops at position n - 3, where three open
    paths are left: that position closes its own path or joins it onto one
    of the other two, and each of those three choices leaves two paths with
    two ways to finish, so one call emits all six leaves.  n = 1 and n = 2
    are written out.  The overall row is the column sum of the per-type
    rows.  The result is memoised per n, so the per-type map is read-only.
    """
    check_size("enumeration", n, 1, ENUMERATION_CAP)
    size = 1 << (n - 1)
    cycle_code = [0] + [(n + 1) ** (cycle - 1) for cycle in range(1, n + 1)]
    rows: defaultdict[int, list[int]] = defaultdict(lambda: [0] * size)
    if n == 1:
        rows[cycle_code[1]][0] = 1
    elif n == 2:
        rows[2 * cycle_code[1]][0] = 1  # 12: two fixed points
        rows[cycle_code[2]][1] = 1  # 21: one transposition, one descent
    else:
        head = list(range(n))
        length = [1] * n
        # the last three positions, and the descent bits into each of them
        first, second, third = n - 3, n - 2, n - 1
        into, mid, end = 1 << first >> 1, 1 << first, 1 << second

        def sweep(pos: int, prev: int, mask: int, code: int) -> None:
            if pos == first:
                # the open paths ending at the last three positions start at
                # x, y and z.  Per choice at the first of them, the first
                # leaf closes the two paths left and the second merges them
                # into one cycle.  Indexing, not slicing, allocates nothing.
                x, y, z = head[first], head[second], head[third]
                lx, ly, lz = length[first], length[second], length[third]
                step = mask | into if prev > x else mask
                rows[code + cycle_code[lx] + cycle_code[ly] + cycle_code[lz]][
                    step | (mid if x > y else 0) | (end if y > z else 0)] += 1
                rows[code + cycle_code[lx] + cycle_code[ly + lz]][
                    step | (mid if x > z else 0) | (end if z > y else 0)] += 1
                step = mask | into if prev > y else mask
                rows[code + cycle_code[lx + ly] + cycle_code[lz]][
                    step | (mid if y > x else 0) | (end if x > z else 0)] += 1
                rows[code + cycle_code[lx + ly + lz]][
                    step | (mid if y > z else 0) | (end if z > x else 0)] += 1
                step = mask | into if prev > z else mask
                rows[code + cycle_code[ly] + cycle_code[lx + lz]][
                    step | (mid if z > y else 0) | (end if y > x else 0)] += 1
                rows[code + cycle_code[lx + ly + lz]][
                    step | (mid if z > x else 0) | (end if x > y else 0)] += 1
                return
            bit = 1 << pos >> 1
            start, grow = head[pos], length[pos]
            sweep(pos + 1, start, mask | bit if prev > start else mask,
                  code + cycle_code[grow])
            for e in range(pos + 1, n):
                value = head[e]
                head[e] = start
                length[e] += grow
                sweep(pos + 1, value, mask | bit if prev > value else mask, code)
                head[e] = value
                length[e] -= grow

        sweep(0, -1, 0, 0)
    by_type = {
        tuple(cycle for cycle in range(n, 0, -1)
              for _ in range(code // cycle_code[cycle] % (n + 1))): row
        for code, row in rows.items()
    }
    betas = [sum(column) for column in zip(*by_type.values())]
    n_cycles = by_type.get((n,), [0] * size)
    typed = {
        ctype: CountTable(n, f"beta[type={ctype}]", tuple(row))
        for ctype, row in sorted(by_type.items())
    }
    return (
        CountTable(n, "beta", tuple(betas)),
        CountTable(n, "beta_cyc", tuple(n_cycles)),
        MappingProxyType(typed),
    )


def eulerian_rows(max_n: int) -> list[list[Count]]:
    """rows[m][j] = permutations of m with exactly j descents, m = 0..max_n.

    Built in one loop by the recurrence
    A(m, j) = (j + 1) * A(m-1, j) + (m - j) * A(m-1, j-1): the new entry m
    either lands at the end or inside a descent (keeping the count), or at
    the front or inside an ascent (adding one).  It shares no code with the
    power sums of linear.eulerian, which it checks.
    """
    rows = [[1]]
    for m in range(1, max_n + 1):
        prev = [*rows[-1], 0]
        rows.append([(j + 1) * prev[j] + (m - j) * (prev[j - 1] if j else 0)
                     for j in range(m)])
    return rows


def cyclic_eulerian_rows(max_n: int) -> list[list[Count]]:
    """rows[n][j] = n-cycles of n with exactly j descents, n = 1..max_n.

    Summing the main theorem over the descent sets of each size gives
    n * c(n, k) = sum over d | n, j of mobius(d) * (-1)**(k-j)
    * C(n - n/d, k - j) * A(n/d, j), read here from eulerian_rows.  The
    entry at index 0 is an empty row.
    """
    eulerian = eulerian_rows(max_n)
    rows: list[list[Count]] = [[]]
    for n in range(1, max_n + 1):
        row = [0] * n
        for d in divisors(n):
            mu = mobius(d)
            if not mu:
                continue
            m = n // d
            for k in range(n):
                for j in range(max(0, k - (n - m)), min(k, m - 1) + 1):
                    sign = -mu if (k - j) & 1 else mu
                    row[k] += sign * math.comb(n - m, k - j) * eulerian[m][j]
        rows.append([exact_div(total, n, "cyclic eulerian row") for total in row])
    return rows


def _has_run(perm: tuple[int, ...], k: int, descending: bool) -> bool:
    # a run of k-1 adjacent ascents (or descents) is k monotone entries
    run = 0
    for i in range(len(perm) - 1):
        step_down = perm[i] > perm[i + 1]
        if step_down == descending:
            run += 1
            if run >= k - 1:
                return True
        else:
            run = 0
    return False


def brute_avoiders(
    n: int,
    k: int,
    direction: str = "incr",
    cyclic_only: bool = False,
    ascent_boundary: bool = False,
) -> Count:
    """Count permutations with no k-1 adjacent ascents (or descents).

    cyclic_only restricts to n-cycles; ascent_boundary additionally demands
    that the first and last steps ascend (so n = 1 never qualifies).
    This walks S_n itself and is the reference for brute_pattern_profile.
    """
    check_size("enumeration", n, 1, ENUMERATION_CAP)
    if k < 2:
        raise DomainError(f"pattern length must be >= 2, got {k}")
    if direction not in ("incr", "decr"):
        raise DomainError(f"direction must be incr or decr, got {direction!r}")
    descending = direction == "decr"
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if _has_run(perm, k, descending):
            continue
        if ascent_boundary:
            if n < 2 or perm[0] > perm[1] or perm[-2] > perm[-1]:
                continue
        if cyclic_only and _cycle_type(perm) != (n,):
            continue
        count += 1
    return count


def _has_bit_run(word: int, length: int) -> bool:
    # `length` adjacent set bits survive length - 1 shift-and-AND steps
    for _ in range(length - 1):
        word &= word >> 1
    return word != 0


def brute_pattern_profile(n: int, k: int) -> dict[str, Count]:
    """All six avoider statistics for pattern length k.

    Keys: incr / decr (full counts), incr_cyc / decr_cyc (n-cycles only),
    incr_boundary / decr_boundary (avoiders whose first and last steps
    both ascend).  Runs of ascents and descents depend only on the descent
    set, so the counts are read from the per-mask tallies of brute_tables
    instead of a second sweep over S_n.
    """
    check_size("enumeration", n, 1, ENUMERATION_CAP)
    if k < 2:
        raise DomainError(f"pattern length must be >= 2, got {k}")
    betas, n_cycles, _ = brute_tables(n)
    full = (1 << (n - 1)) - 1
    ends = 1 | 1 << max(n - 2, 0)
    tally = dict.fromkeys(
        ("incr", "decr", "incr_cyc", "decr_cyc",
         "incr_boundary", "decr_boundary"), 0)
    for mask, (beta, cyc) in enumerate(zip(betas.counts, n_cycles.counts)):
        boundary = n >= 2 and not mask & ends
        for key, word in (("incr", full ^ mask), ("decr", mask)):
            if _has_bit_run(word, k - 1):
                continue
            tally[key] += beta
            tally[key + "_cyc"] += cyc
            if boundary:
                tally[key + "_boundary"] += beta
    return tally


def is_lyndon_slow(word: tuple[int, ...]) -> bool:
    """Strictly smaller than every nontrivial rotation, checked directly."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def is_primitive_slow(word: tuple[int, ...]) -> bool:
    """Distinct from every nontrivial rotation, checked directly."""
    return all(word != word[i:] + word[:i] for i in range(1, len(word)))


def _check_word_cap(length: int, q: int) -> None:
    # q**length is built only for length <= 24 and q <= WORD_CAP, so a
    # hostile size is refused at once.  At q >= 2 the cap on q**length
    # already keeps words below 24 letters; the letter cap binds at q = 1.
    if length < 1 or q < 1:
        raise DomainError("need n >= 1 and alphabet_size >= 1")
    if length > WORD_CAP.bit_length():
        raise CapacityError(
            f"words capped at {WORD_CAP.bit_length()} letters, got {length}")
    if q > WORD_CAP or q**length > WORD_CAP:
        raise CapacityError(f"{q}^{length} words exceed the cap of {WORD_CAP}")


@functools.lru_cache(maxsize=MEMO_SIZE)
def word_flags(length: int, q: int) -> bytes:
    """PRIMITIVE and LYNDON flags of every length-`length` word over {1..q}.

    Entry r belongs to the word of base-q rank r (letter 1 is digit 0, the
    first letter the most significant digit), so rank order is
    lexicographic order and the rotation by i of rank r is
    (r % q**(length - i)) * q**i + r // q**(length - i).  A word is Lyndon
    when it is smaller than each of its nontrivial rotations: visited in
    rank order, the first word of each rotation class not yet seen is its
    least member, and it is compared with each rotation once; the other
    members are not Lyndon.  A word is imprimitive when it is a power v^k
    with k >= 2: after the walk, which marks every word it reaches
    PRIMITIVE, the powers are listed directly as the ranks
    u * (1 + q**d + q**(2d) + ...) over the proper divisors d of the length
    and lose that flag, so the two flags come from separate facts.  Raises
    CapacityError above WORD_CAP before any work.
    """
    _check_word_cap(length, q)
    size = q**length
    top = q ** (length - 1)
    flags = bytearray(size)
    for rank in range(size):
        if flags[rank]:
            continue
        # rotate left by one letter, length - 1 times
        rotations = [rank]
        for _ in range(length - 1):
            rotations.append(rotations[-1] % top * q + rotations[-1] // top)
        for rotation in rotations:
            flags[rotation] = PRIMITIVE  # for now; it also marks the word seen
        if all(rank < rotation for rotation in rotations[1:]):
            flags[rank] |= LYNDON
    for d in divisors(length)[:-1]:
        repunit = sum(q ** (d * k) for k in range(length // d))
        for root in range(q**d):
            flags[root * repunit] &= ~PRIMITIVE
    return bytes(flags)


def _flag_tables(length: int, q: int) -> tuple[list, list[int]]:
    # flags[m] = word_flags(m, q) for each m <= length (flags[0] is None),
    # and powers[k] = q**k
    return ([None, *(word_flags(m, q) for m in range(1, length + 1))],
            [q**k for k in range(length + 1)])


def _factor_lengths(rank: int, length: int, flags: list,
                    powers: list[int]) -> list[int]:
    """Lengths of the longest-Lyndon-prefix factors of a word, in order.

    The word has this base-q rank and length; flags and powers are
    _flag_tables(length, q).  The letters from the current factor on are
    rank % q**rest, and their first m letters are that // q**(rest - m).
    One letter is always Lyndon, so each factor has a length.
    """
    lengths = []
    rest = length
    while rest:
        suffix = rank % powers[rest]
        m = rest
        while not flags[m][suffix // powers[rest - m]] & LYNDON:
            m -= 1
        lengths.append(m)
        rest -= m
    return lengths


def slow_factorization(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Factor greedily into longest Lyndon prefixes (no Duval).

    Every prefix is looked up in word_flags over the word's span of letters,
    min(word)..max(word), so the word is capped like brute_words.
    """
    if not word:
        raise DomainError("cannot factor the empty word")
    low = min(word)
    q = max(word) - low + 1
    rank = 0
    for letter in word:
        rank = rank * q + letter - low
    factors = []
    start = 0
    for m in _factor_lengths(rank, len(word), *_flag_tables(len(word), q)):
        factors.append(word[start:start + m])
        start += m
    return factors


def brute_words(
    n: int, alphabet_size: int
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Count]:
    """Tally all length-n words over {1..q} by (type, evaluation).

    The type comes from the greedy factorization of _factor_lengths, read
    from word_flags by rank; evaluations are padded to the alphabet size.
    Raises CapacityError above WORD_CAP before any work.
    """
    _check_word_cap(n, alphabet_size)
    tables = _flag_tables(n, alphabet_size)
    letters = range(1, alphabet_size + 1)
    tally: dict[tuple[tuple[int, ...], tuple[int, ...]], Count] = {}
    # the keys share one tuple per distinct type and per distinct
    # evaluation (equal tuples are interchangeable): at n = 8, q = 3 the 786
    # keys hold 22 types and 45 evaluations, which keeps the peak memory of
    # a tally down
    parts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for rank, word in enumerate(itertools.product(letters, repeat=n)):
        ctype = tuple(sorted(_factor_lengths(rank, n, *tables), reverse=True))
        # a list, not an iterator, so the tuple is built at its final size:
        # tuple() shrinks one built from an iterator, which leaves a spare
        # tuple on the interpreter's free list for every word
        ev = tuple([word.count(letter) for letter in letters])
        key = (parts.setdefault(ctype, ctype), parts.setdefault(ev, ev))
        tally[key] = tally.get(key, 0) + 1
    return tally
