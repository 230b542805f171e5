"""Number-theoretic primitives and the subset/composition codecs.

A descent set lives inside an ambient size n: it is a subset of
{1, ..., n-1}, stored as a bitmask with bit i-1 set exactly when i is a
member.  Everything downstream (divisor sums, quotient sets, composition
codecs) is built on this encoding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator, Sequence

# Exact counts are plain Python integers throughout; no counting path may
# touch floating point.
Count = int

# Masks are kept inside one machine word; the largest scan, all-proper,
# reaches n = 32 (asymptotics.ALL_PROPER_SCAN_CAP).
MAX_N = 64

# Whole per-ambient tables are memoized up to this size; larger ones are
# rebuilt on demand to keep memory bounded.
TABLE_CACHE_MAX_N = 16

# Entries kept by each bounded lru_cache memo.
MEMO_SIZE = 1 << 20


class DomainError(ValueError):
    """An argument is outside the domain of the requested operation."""


class CapacityError(DomainError):
    """A request exceeds a documented size cap."""


class InvariantViolation(RuntimeError):
    """A proven identity failed to hold: an implementation bug, not bad input."""


def check_size(what: str, n: int, least: int, cap: float) -> None:
    """Refuse n below least (DomainError) or above cap (CapacityError),
    before any work that grows with n."""
    if n < least:
        raise DomainError(f"{what} needs n >= {least}, got {n}")
    if n > cap:
        raise CapacityError(f"{what} capped at n = {cap}, got {n}")


def small_table_cache(build):
    """Memoize a builder of whole per-ambient tables for n <= TABLE_CACHE_MAX_N."""
    cached = functools.lru_cache(maxsize=None)(build)

    @functools.wraps(build)
    def table(n: int):
        return cached(n) if n <= TABLE_CACHE_MAX_N else build(n)

    return table


def capped_sequence(name: str, cap: int):
    """Memoize a sequence a_0, a_1, ... built term by term up to n = cap.

    Decorates a generator function that is called once with the list of
    terms built so far (a_0..a_{m-1} as it resumes for a_m) and yields the
    terms in order, each once.  The result is a function of n that raises
    DomainError below 0, and CapacityError above cap before any term is built.
    The generator is closed once the term at the cap is built.
    """
    def decorate(terms):
        values: list = []
        steps = terms(values)

        def term(n: int):
            check_size(name, n, 0, cap)
            while len(values) <= n:
                values.append(next(steps))
                if len(values) > cap:
                    steps.close()  # the last term is built: free the generator's state
            return values[n]

        functools.update_wrapper(term, terms)
        del term.__wrapped__  # term takes n, not the generator's argument
        return term

    return decorate


def exact_div(total: int, n: int, what: str) -> int:
    """total / n, which is a count: the integrality and the sign are
    theorems, so a remainder or a negative quotient is a bug."""
    q, r = divmod(total, n)
    if r:
        raise InvariantViolation(f"{what}: {total} not divisible by {n}")
    if q < 0:
        raise InvariantViolation(f"{what} negative: {total} / {n}")
    return q


def mobius(d: int) -> int:
    """Number-theoretic Mobius function, by trial factorization.

    Returns 0 if d has a squared prime factor, otherwise (-1)**(number of
    prime factors).  Intended range is d <= 10**6 or so; no sieve is kept.
    """
    if d < 1:
        raise DomainError(f"mobius undefined for {d}")
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if d > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise DomainError(f"divisors undefined for {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@functools.lru_cache(maxsize=MEMO_SIZE)
def square_free_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mobius(d)) for the divisors d of n with mobius(d) != 0, ascending."""
    pairs = ((d, mobius(d)) for d in divisors(n))
    return tuple((d, mu) for d, mu in pairs if mu)


def mobius_sum(n: int, term) -> int:
    """The sum of mobius(d) * term(d) over the divisors d of n."""
    total = 0
    for d, mu in square_free_divisors(n):
        total += mu * term(d)
    return total


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def signed_submask_sum(mask: int, f) -> int:
    """The sum of (-1)^(|mask| - |sub|) * f(sub) over the submasks of mask."""
    size = mask.bit_count()
    total = 0
    for sub in submasks(mask):
        term = f(sub)
        total += -term if (size - sub.bit_count()) & 1 else term
    return total


def subset_sums(table: Sequence[int]) -> list[int]:
    """The zeta transform of a per-mask table: entry mask is the sum of
    table[sub] over the submasks sub of mask.

    Bit b is folded in by adding each block of 2^b entries without that bit
    to the block above it, so 2^m entries take m * 2^(m-1) additions.
    """
    out = list(table)
    step = 1
    while step < len(out):
        for top in range(step, len(out), 2 * step):
            out[top:top + step] = map(add, out[top:top + step], out[top - step:top])
        step *= 2
    return out


@dataclass(frozen=True)
class DescentSet:
    """A subset of {1, ..., n-1} with its ambient size n.

    Bit i-1 of ``mask`` is set exactly when i is in the set.  The empty
    mask is valid for every n, including n = 1 where {1, ..., 0} is empty.
    """

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise DomainError(f"ambient size {self.n} outside 1..{MAX_N}")
        if self.mask < 0 or self.mask >> max(self.n - 1, 0):
            raise DomainError(
                f"mask {self.mask:#x} has bits outside [1, {self.n - 1}]")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "DescentSet":
        mask = 0
        for i in elements:
            if not 1 <= i <= n - 1:
                raise DomainError(f"element {i} outside [1, {n - 1}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def from_text(cls, n: int, text: str) -> "DescentSet":
        """Parse the canonical encoding: comma-separated ascending integers.

        The empty string denotes the empty set.  Duplicates, descending
        order, or out-of-range elements are rejected rather than repaired.
        """
        text = text.strip()
        if not text:
            return cls(n, 0)
        elements = []
        for token in text.split(","):
            try:
                value = int(token.strip())
            except ValueError:
                raise DomainError(f"bad set element {token!r}") from None
            elements.append(value)
        for a, b in zip(elements, elements[1:]):
            if a >= b:
                raise DomainError(
                    f"set elements must be strictly ascending, got {text!r}")
        return cls.from_elements(n, elements)

    def to_text(self) -> str:
        """Canonical encoding: comma-separated ascending, '' for the empty set."""
        return ",".join(str(i) for i in self.elements())

    def elements(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n - 1 and self.mask >> (i - 1) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())


def mask_elements(mask: int) -> tuple[int, ...]:
    """The members of a raw mask, ascending."""
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length())
        mask ^= low
    return tuple(result)


def mask_gcd(n: int, mask: int) -> int:
    """gcd of n and every member of a raw mask; n itself for the empty mask."""
    g = n
    while mask and g > 1:
        low = mask & -mask
        g = math.gcd(g, low.bit_length())
        mask ^= low
    return g


def quotient_mask(mask: int, d: int, n: int) -> int:
    """Mask of {i/d : i in I, d | i} inside ambient n/d, for raw masks."""
    if d == 1:
        return mask
    q = 0
    for j in range(1, n // d):
        if mask >> (d * j - 1) & 1:
            q |= 1 << (j - 1)
    return q


def gap_parts(n: int, mask: int) -> tuple[int, ...]:
    """The gap sequence of a raw mask within ambient n.

    {i1 < i2 < ...} maps to (i1, i2 - i1, ..., n - i_last); the empty mask
    maps to the single part (n).
    """
    parts = []
    prev = 0
    while mask:
        low = mask & -mask
        cut = low.bit_length()
        parts.append(cut - prev)
        prev = cut
        mask ^= low
    parts.append(n - prev)
    return tuple(parts)


def alternation_mask(mask: int, n: int) -> int:
    """Mask over {1, ..., n-2} of positions where membership flips."""
    return (mask ^ (mask >> 1)) & ((1 << max(n - 2, 0)) - 1)


def csv_field(text: str) -> str:
    """Quote a CSV field exactly when it contains a comma, a double quote or
    a line break, doubling each double quote inside (RFC 4180)."""
    if not any(c in text for c in ',"\n\r'):
        return text
    return '"' + text.replace('"', '""') + '"'


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by descent-set mask at one ambient size."""

    n: int
    statistic: str
    counts: tuple[Count, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != 1 << (self.n - 1):
            raise DomainError(
                f"table for n={self.n} needs {1 << (self.n - 1)} entries")

    def to_csv(self) -> str:
        """Render as mask-ascending CSV with a header row.

        The set column is quoted whenever it holds more than one element,
        since the canonical encoding uses commas.
        """
        lines = ["mask,set,count"]
        for mask, count in enumerate(self.counts):
            text = csv_field(DescentSet(self.n, mask).to_text())
            lines.append(f"{mask},{text},{count}")
        return "\n".join(lines) + "\n"
