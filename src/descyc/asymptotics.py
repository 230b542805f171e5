"""Deviation scans behind the 1/n-fraction heuristic.

The quantity of interest is |n * beta_cyc(I) / beta(I) - 1|, held as an
exact rational: numerators come straight out of the signed divisor sum, so
no comparison ever rounds.  Every scan reports the maximum under one total
order (deviation, then the lexicographically smallest element tuple of the
argmax), so the order in which sets are visited cannot change the result.

Every family is scanned by one depth-first walk over the descent bits in
one process.  It carries the rank-prefix vector of the beta DP, skips
prefixes that no member of the family extends, and skips a subtree once
two bounds prove that no set below it can reach the best deviation found
so far: beta_n is at least the rank-prefix vector dotted with a table of
completion floors, and each divisor term beta_{n/d}(I/d) is at most the
largest beta_{n/d} over the completions of the bits of I/d already fixed,
read from a prefix-max table of beta_table(n/d).  Both tables are built
once per scan.  The root of the second is the zigzag number E_{n/d}
(Niven), and it tightens as the walk fixes multiples of d.  A skipped
subtree adds its member count, so the number of members accounted for is
an exact certificate.  The exhaustive scan over the whole beta table
stays as the tests' reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import getitem, mul, or_
from typing import Iterator, Optional

from .core import (
    CapacityError,
    Count,
    DescentSet,
    DomainError,
    InvariantViolation,
    alternation_mask,
    check_size,
    mask_elements,
    square_free_divisors,
)
from .cyclic import signed_divisor_sum, signed_divisor_table
from .linear import beta_table, psi_step

SCAN_CAP = 24
# Largest n of an all-proper family: at n = 32 its scan visits 46,219 nodes
# in about 0.12-0.17 s and 17 MB on one core.  Every other family stays at
# SCAN_CAP.
ALL_PROPER_SCAN_CAP = 32
# Largest denominator of an alt-threshold epsilon: the exact threshold test
# raises to that power, and at n = SCAN_CAP with epsilon = 49999/100000 the
# family's member count takes about 0.1 s on one core (0.33 s at 200000).
EPSILON_DENOMINATOR_CAP = 100_000


@dataclass(frozen=True)
class Family:
    """A scan family of descent sets at one ambient size n: the single set
    member when it is given, else the subsets of {1, ..., n-1} with at
    least `least` alternations.  text names the family in reports and
    refusals.  The constructors:

      all_proper     every nonempty proper subset, least = 1; n is at most
                     ALL_PROPER_SCAN_CAP
      periodic       the single set {i : i mod ell in pattern} cut to [n-1],
                     which must be nonempty and proper
      alt_threshold  subsets whose alternation number exceeds
                     n/2 - n**(1 - epsilon)

    n is at most SCAN_CAP for the last two.
    """

    n: int
    text: str
    least: int = 0
    member: Optional[int] = None

    @classmethod
    def all_proper(cls, n: int) -> "Family":
        if n < 3:
            raise DomainError(f"no proper nonempty subsets at n = {n}")
        _check_cap("all-proper", n, ALL_PROPER_SCAN_CAP)
        return cls(n, "all-proper", least=1)

    @classmethod
    def periodic(cls, n: int, ell: int, pattern) -> "Family":
        pat = tuple(sorted(set(pattern)))
        if ell < 1 or not pat or any(not 1 <= r <= ell for r in pat):
            raise DomainError(f"pattern {pattern} not inside [1, {ell}]")
        if len(pat) == ell:
            raise DomainError("pattern must be proper within its period")
        text = f"periodic:{ell}:{','.join(map(str, pat))}"
        _check_cap(text, n, SCAN_CAP)
        member = sum(1 << (i - 1) for i in range(1, n) if (i - 1) % ell + 1 in pat)
        if member in (0, (1 << max(n - 1, 0)) - 1):
            raise DomainError(f"{text} has no proper nonempty member at n = {n}")
        return cls(n, text, member=member)

    @classmethod
    def alt_threshold(cls, n: int, epsilon: Fraction) -> "Family":
        epsilon = Fraction(epsilon)
        if not 0 < epsilon < Fraction(1, 2):
            raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
        text = f"alt-threshold:{epsilon}"
        check_size(text, n, 1, math.inf)
        if epsilon.denominator > EPSILON_DENOMINATOR_CAP:
            raise CapacityError(
                f"alt-threshold epsilon denominator capped at {EPSILON_DENOMINATOR_CAP},"
                f" got {epsilon.denominator}")
        _check_cap(text, n, SCAN_CAP)
        # qualifying only gets easier as the alternation number grows
        least = next(a for a in range(n) if _alt_qualifies(a, n, epsilon))
        return cls(n, text, least=least)

    def members_below(self, mask: int, p: int) -> Count:
        """Number of members whose bits 1..p-1 equal those of mask, which
        has no bit at p or above."""
        if self.member is not None:
            return int(mask == self.member & ((1 << (p - 1)) - 1))
        n, least = self.n, self.least
        if least <= 1:
            # every completion; least = 1 drops the empty and the full set
            # where the prefix allows them
            return (1 << (n - p)) - least * ((mask == 0) + (mask == (1 << (p - 1)) - 1))
        if p == 1:
            # bit 1 is free as well, and either value tallies the same
            return 2 * self.members_below(0, 2)
        # once bit p-1 is fixed, the free bits p..n-1 set the alternations
        # at p-1..n-2 one to one, so the tally collapses to binomial sums
        need = least - alternation_mask(mask, p).bit_count()
        free = n - p
        if need <= 0:
            return 1 << free
        return sum(math.comb(free, j) for j in range(need, free + 1))

    def member_count(self) -> Count:
        return self.members_below(0, 1)

    def members(self) -> Iterator[int]:
        """Member masks, ascending."""
        if self.member is not None:
            return iter((self.member,))
        n, least = self.n, self.least
        if least <= 1:
            # every mask; least = 1 drops the empty and the full one
            return iter(range(least, (1 << (n - 1)) - least))
        return (mask for mask in range(1 << (n - 1))
                if alternation_mask(mask, n).bit_count() >= least)


def _check_cap(text: str, n: int, cap: int) -> None:
    # before any work that grows with n
    if n > cap:
        raise CapacityError(f"{text} scan capped at n = {cap}")


def _alt_qualifies(alt: int, n: int, epsilon: Fraction) -> bool:
    # alt > n/2 - n**(1 - eps), compared exactly via integer powers
    deficit2 = n - 2 * alt
    if deficit2 <= 0:
        return True
    p, q = epsilon.numerator, epsilon.denominator
    return deficit2**q < 2**q * n ** (q - p)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one deviation scan."""

    n: int
    family: str
    max_deviation: Fraction
    argmax: DescentSet
    member_count: Count
    elapsed_s: float

    def to_json_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "n": self.n,
            "family": self.family,
            "max_deviation_num": self.max_deviation.numerator,
            "max_deviation_den": self.max_deviation.denominator,
            "argmax_set": self.argmax.to_text(),
            "member_count": self.member_count,
        }
        if include_timing:
            doc["elapsed_ms"] = int(self.elapsed_s * 1000)
        return doc


_Candidate = tuple[int, int, int]  # (num, den, argmax mask)


def _better(a: Optional[_Candidate], b: _Candidate) -> _Candidate:
    if a is None:
        return b
    left = a[0] * b[1]
    right = b[0] * a[1]
    if left != right:
        return a if left > right else b
    # exact tie: keep the lexicographically smaller element tuple
    return a if mask_elements(a[2]) <= mask_elements(b[2]) else b


def _divisor_terms(n: int) -> list:
    # the d > 1 terms of the signed divisor sum
    return [(d, mu, beta_table(n // d).__getitem__)
            for d, mu in square_free_divisors(n) if d > 1]


def _exhaustive_scan(family: Family) -> ScanReport:
    """The reference scan: every member, read off whole tables."""
    start = time.monotonic()
    # the d = 1 term is beta itself, so the d > 1 terms sum to the
    # numerator n * beta_cyc - beta
    nums = signed_divisor_table(family.n, _divisor_terms(family.n))
    betas = beta_table(family.n)
    members = list(family.members())
    # floor(num / den * 2^64) is monotone in num / den, so every member tied
    # with the exact maximum carries the top key; _better settles the rest
    keys = [(abs(nums[m]) << 64) // betas[m] for m in members]
    top = max(keys)
    best: Optional[_Candidate] = None
    for m in compress(members, map(top.__eq__, keys)):
        best = _better(best, (abs(nums[m]), betas[m], m))
    return _report(family, best, len(members), start)


def _prefix_max_levels(m: int) -> list[list[Count]]:
    """levels[q][x]: the largest beta_m over the masks whose bits 1..q read
    x, for q = 0..m-1.  The root levels[0][0] is the zigzag number E_m
    (Niven), and the last level is beta_table(m) itself."""
    levels = [beta_table(m)]
    while len(row := levels[-1]) > 1:
        # bit q+1 of a mask is its top bit in a row of 2^(q+1) entries
        half = len(row) // 2
        levels.append(list(map(max, row[:half], row[half:])))
    levels.reverse()
    return levels


def _completion_floors(n: int) -> list[list[Count]]:
    """floors[p][j] bounds from below the length-n extensions of a length-p
    pattern whose last entry has rank j+1 (it is the fewest at n <= 10):
    the smaller of the sums of floors[p+1] over the ranks that a descent
    (<= j) or an ascent (> j) reaches, as in psi_step.  So psi . floors[p]
    <= beta_n below a prefix, with equality at p = n."""
    floors = [[]] * n + [[1] * n]
    for p in range(n - 1, 0, -1):
        low = list(accumulate(floors[p + 1]))
        floors[p] = [min(a, low[-1] - a) for a in low[:p]]
    return floors


def _pruned_scan(family: Family) -> ScanReport:
    """The scan as a depth-first walk that skips what it proves cannot
    reach the best deviation found so far."""
    n = family.n
    start = time.monotonic()
    terms = _divisor_terms(n)
    # |n * beta_cyc - beta| is at most the sum of beta_{n/d}(I/d) over the
    # d > 1 terms.  Below a node with bits 1..p-1 fixed, bits 1..q of I/d
    # are fixed, q = min((p-1)//d, n/d - 1), so each term is at most the
    # prefix maximum at level q.  reads[p] holds that level of every term,
    # and grows[p] the bit that fixing bit p adds to each I/d prefix; it
    # is None where no d divides p, and the bound stays as it is
    levels = [_prefix_max_levels(n // d) for d, _, _ in terms]
    reads = [None] + [[lv[min((p - 1) // d, len(lv) - 1)]
                       for (d, _, _), lv in zip(terms, levels)]
                      for p in range(1, n + 1)]
    grows = [None] * n
    for p in range(1, n):
        bits = tuple(0 if p % d else 1 << (p // d - 1) for d, _, _ in terms)
        if any(bits):
            grows[p] = bits
    below = family.members_below
    # with least <= 1, every prefix short of a leaf has a member
    sparse = family.member is not None or family.least > 1
    best: Optional[_Candidate] = None
    # a node is skipped only when bound / den < best_num / best_den
    # strictly, so exact ties are evaluated and _better settles them; with
    # best_num = 0 nothing is skipped before the first nonzero deviation
    best_num, best_den = 0, 1
    scanned = 0
    # (mask of the fixed bits 1..p-1, p, psi of that prefix, the I/d
    # prefixes, the bound); psi . floors[p] is at most beta_n of every set
    # below the node, and is beta_n itself at a leaf
    floors = _completion_floors(n)
    quotients = (0,) * len(terms)
    stack = [(0, 1, [1], quotients, sum(map(getitem, reads[1], quotients)))]
    while stack:
        mask, p, psi, quotients, bound = stack.pop()
        if sparse and not below(mask, p):
            continue
        den = sum(map(mul, psi, floors[p]))
        if bound * best_den < best_num * den:
            scanned += below(mask, p)
        elif p < n:
            fixed, bound_fixed, bound_free = quotients, bound, bound
            if grow := grows[p]:
                fixed = tuple(map(or_, quotients, grow))
                bound_fixed = sum(map(getitem, reads[p + 1], fixed))
                bound_free = sum(map(getitem, reads[p + 1], quotients))
            stack.append((mask | 1 << (p - 1), p + 1, psi_step(psi, True),
                          fixed, bound_fixed))
            stack.append((mask, p + 1, psi_step(psi, False), quotients, bound_free))
        elif below(mask, n):
            scanned += 1
            best = _better(best, (abs(signed_divisor_sum(n, mask, terms)), den, mask))
            best_num, best_den, _ = best
    return _report(family, best, scanned, start)


def _report(family: Family, best: Optional[_Candidate], scanned: int,
            start: float) -> ScanReport:
    n = family.n
    if best is None:
        raise DomainError(f"family {family.text} has no members at n = {n}")
    expected = family.member_count()
    if scanned != expected:
        raise InvariantViolation(
            f"scanned {scanned} members, expected {expected}")
    num, den, mask = best
    return ScanReport(
        n=n,
        family=family.text,
        max_deviation=Fraction(num, den),
        argmax=DescentSet(n, mask),
        member_count=expected,
        elapsed_s=time.monotonic() - start,
    )


def beta_deviation_scan(family: Family, jobs: int = 1) -> ScanReport:
    """Exact max of |n * beta_cyc / beta - 1| over the family, with its
    lexicographically smallest argmax, by the pruned walk in one process.

    jobs must be at least 1 and changes no byte of the report.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    return _pruned_scan(family)
