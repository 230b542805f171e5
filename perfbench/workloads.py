"""Inputs, timed operations and answer checks for the three workloads.

scan    one all-proper beta deviation scan at n = 20 with two workers
        (what ``descyc scan --family all-proper --n 20 --jobs 2`` runs)
verify  ``verify.run_suite("all", 9)``, the ``descyc verify all --max-n 9`` gate
query   a seeded stream of single-statistic calls, as ``descyc compute`` makes

Every answer is checked after the timed phase.  scan and verify are checked
against the outcome recorded for this package; each query answer against a
route that shares no code with the timed call (see ``Reference``).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from descyc import asymptotics, cyclic, linear, lyndon, oracle, verify
from descyc.core import DescentSet

SCAN_N = {"full": 20, "tiny": 8}
SCAN_JOBS = 2
# (max deviation, argmax elements, member count) of the all-proper scan.
SCAN_EXPECTED = {
    20: (Fraction(1, 19), (1,), 524286),
    8: (Fraction(1, 7), (1,), 126),
}

VERIFY_MAX_N = {"full": 9, "tiny": 4}
VERIFY_CHECKS = {9: 160, 4: 71}

QUERY_COUNT = {"full": 2000, "tiny": 80}
# Assumed, not measured: there is no record of how ``descyc compute`` is
# used.  A quarter of the calls repeat an earlier one, so the LRU memos serve
# a visible minority; the fresh calls are split evenly over the kinds, so no
# guessed weight decides which layer the stream measures.
REPEAT_SHARE = 0.25
QUERY_KINDS = (
    "beta",
    "beta_cyc",
    "alpha_cyc",
    "cyclic_eulerian",
    "kz_cycles",
    "alternating_cycles",
    "type_descents",
)
# Masks of the mask queries have at most MASK_MAX_BITS elements, which keeps
# the inclusion-exclusion checks cheap; the DP costs O(n^2) whatever the mask.
MASK_N = (20, 64)
MASK_MAX_BITS = 10
CYCLE_MAX_N = 200
KZ_MAX_K = 8
# Type-descent queries cycle through every cycle type at these n, with masks
# of n - 3 elements: inclusion-exclusion makes the cost grow about fourfold
# per element, so a fixed size keeps the rounds comparable.
TYPE_N = (5, 6, 7, 8)


# ---------------------------------------------------------------- scan

def scan_op(n: int, jobs: int = SCAN_JOBS) -> asymptotics.ScanReport:
    return asymptotics.beta_deviation_scan(asymptotics.Family.all_proper(n), jobs=jobs)


def scan_ok(n: int, report) -> bool:
    deviation, argmax, members = SCAN_EXPECTED[n]
    return (report.max_deviation == deviation
            and report.argmax is not None
            and report.argmax.elements() == argmax
            and report.member_count == members)


# ---------------------------------------------------------------- verify

def verify_op(max_n: int) -> verify.SuiteReport:
    return verify.run_suite("all", max_n)


def verify_failures(max_n: int, report) -> tuple[int, int]:
    """(attempted, failed) checks; a missing or extra check is a failure."""
    expected = VERIFY_CHECKS[max_n]
    got = len(report.results)
    failed = sum(not r.ok for r in report.results) + abs(got - expected)
    return max(got, expected), failed


# ---------------------------------------------------------------- query

def _mask(rng: random.Random, n: int, bits: int) -> int:
    mask = 0
    for i in rng.sample(range(n - 1), bits):
        mask |= 1 << i
    return mask


def _fresh_queries(rng: random.Random, kind: str, count: int) -> list[tuple]:
    if kind == "type_descents":
        types = [(n, lam.parts) for n in TYPE_N for lam in lyndon.partitions_of(n)]
        rng.shuffle(types)
        return [(kind, parts, n, _mask(rng, n, n - 3))
                for n, parts in itertools.islice(itertools.cycle(types), count)]
    out = []
    for _ in range(count):
        if kind in ("beta", "beta_cyc", "alpha_cyc"):
            n = rng.randint(*MASK_N)
            out.append((kind, n, _mask(rng, n, rng.randint(0, MASK_MAX_BITS))))
        elif kind == "cyclic_eulerian":
            n = rng.randint(1, CYCLE_MAX_N)
            out.append((kind, n, rng.randint(1, n)))
        elif kind == "kz_cycles":
            out.append((kind, rng.randint(1, CYCLE_MAX_N), rng.randint(1, KZ_MAX_K)))
        else:
            out.append((kind, rng.randint(1, CYCLE_MAX_N)))
    return out


def query_stream(seed: int, round_index: int, count: int) -> list[tuple]:
    """``count`` queries in seeded order; REPEAT_SHARE of them repeat an
    earlier query of the stream, the rest are fresh, an equal count of each
    of QUERY_KINDS (the first kinds take the remainder)."""
    rng = random.Random(seed * 1_000_003 + round_index)
    repeats = int(count * REPEAT_SHARE)
    each, extra = divmod(count - repeats, len(QUERY_KINDS))
    fresh = []
    for i, kind in enumerate(QUERY_KINDS):
        fresh.extend(_fresh_queries(rng, kind, each + (i < extra)))
    rng.shuffle(fresh)
    repeat_at = set(rng.sample(range(1, count), repeats))
    stream: list[tuple] = []
    for i in range(count):
        stream.append(rng.choice(stream) if i in repeat_at else fresh.pop())
    return stream


def repeat_share(stream: list[tuple]) -> float:
    """Measured share of queries whose input appeared earlier in the stream."""
    seen: set[tuple] = set()
    repeats = 0
    for q in stream:
        repeats += q in seen
        seen.add(q)
    return repeats / len(stream)


def answer(q: tuple) -> int:
    """The package call that ``descyc compute`` makes for this query."""
    kind = q[0]
    if kind == "beta":
        return linear.beta(DescentSet(q[1], q[2]))
    if kind == "beta_cyc":
        return cyclic.beta_cyc(DescentSet(q[1], q[2]))
    if kind == "alpha_cyc":
        return cyclic.alpha_cyc(DescentSet(q[1], q[2]))
    if kind == "cyclic_eulerian":
        return cyclic.cyclic_eulerian(q[1], q[2])
    if kind == "kz_cycles":
        return cyclic.kz_cycles(q[1], q[2])
    if kind == "alternating_cycles":
        return cyclic.alternating_cycles(q[1])
    return lyndon.count_by_type_and_descents(
        lyndon.Partition(q[1]), DescentSet(q[2], q[3]), exact=True)


def _mobius_divisors(n: int) -> list[tuple[int, int]]:
    """(d, mobius(d)) for the square-free divisors d of n."""
    out = []
    for d in range(1, n + 1):
        if n % d:
            continue
        mu, m, p = 1, d, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    mu = 0
                    break
                mu = -mu
            p += 1
        if mu and m > 1:
            mu = -mu
        if mu:
            out.append((d, mu))
    return out


class Reference:
    """Answers by routes that share no code with the timed calls.

    beta            inclusion-exclusion over alpha (linear's second route)
    alpha_cyc       the divisor sum over multinomials, written out here
    beta_cyc        inclusion-exclusion over the alpha_cyc above
    cyclic_eulerian Lyndon-word counts L(n, k) = sum_j C(n+k-j, n) c(n, j),
                    the cycle analogue of Worpitzky's identity, solved for c
    kz_cycles       divisor sum over generalized Euler numbers taken from
                    their exponential generating function, not the DP
    alternating     kz_cycles with k = 2 (the package uses zigzag numbers)
    type_descents   the cycle-type rows of ``oracle.brute_tables``
    """

    def __init__(self) -> None:
        self._cycle_eulerian_rows: dict[int, list[int]] = {}
        self._gen_euler: dict[tuple[int, int], int] = {}
        self._brute: dict[int, dict] = {}

    def __call__(self, q: tuple) -> int:
        kind = q[0]
        if kind == "beta":
            return linear.beta_mask(q[1], q[2], linear.Strategy.INCLUSION_EXCLUSION)
        if kind == "alpha_cyc":
            return self.alpha_cyc(q[1], q[2])
        if kind == "beta_cyc":
            n, mask = q[1], q[2]
            size = mask.bit_count()
            total, sub = 0, mask
            while True:
                sign = -1 if (size - sub.bit_count()) & 1 else 1
                total += sign * self.alpha_cyc(n, sub)
                if sub == 0:
                    return total
                sub = (sub - 1) & mask
        if kind == "cyclic_eulerian":
            return self.cycle_eulerian_row(q[1])[q[2] - 1]
        if kind == "kz_cycles":
            return self.kz_cycles(q[1], q[2])
        if kind == "alternating_cycles":
            return self.kz_cycles(q[1], 2)
        n, mask = q[2], q[3]
        if n not in self._brute:
            self._brute[n] = oracle.brute_tables(n)[2]
        return self._brute[n][q[1]].counts[mask]

    @staticmethod
    def alpha_cyc(n: int, mask: int) -> int:
        elements = []
        while mask:
            low = mask & -mask
            elements.append(low.bit_length())
            mask ^= low
        g = math.gcd(n, *elements)
        total = 0
        for d, mu in _mobius_divisors(g):
            cuts = [0] + [i // d for i in elements] + [n // d]
            ways = math.factorial(n // d)
            for a, b in zip(cuts, cuts[1:]):
                ways //= math.factorial(b - a)
            total += mu * ways
        return total // n

    def cycle_eulerian_row(self, n: int) -> list[int]:
        row = self._cycle_eulerian_rows.get(n)
        if row is None:
            terms = _mobius_divisors(n)
            binom = [math.comb(n + t, n) for t in range(n)]
            row = []
            for k in range(1, n + 1):
                lyndon_words = sum(mu * k ** (n // d) for d, mu in terms) // n
                known = sum(binom[k - j] * row[j - 1] for j in range(1, k))
                row.append(lyndon_words - known)
            self._cycle_eulerian_rows[n] = row
        return row

    def generalized_euler(self, n: int, k: int) -> int:
        """Permutations of n with descent set exactly the multiples of k.

        With m = n // k full runs: sum_j (-1)^j C(n, jk) E(n - jk) equals
        (-1)^m when k does not divide n, and [n == 0] when it does.
        """
        key = (n, k)
        value = self._gen_euler.get(key)
        if value is None:
            m, r = divmod(n, k)
            if m == 0:
                value = 1
            else:
                value = (-1) ** m if r else 0
                for j in range(1, m + 1):
                    value -= (-1) ** j * math.comb(n, j * k) * self.generalized_euler(n - j * k, k)
            self._gen_euler[key] = value
        return value

    def kz_cycles(self, n: int, k: int) -> int:
        size = (n - 1) // k
        total = 0
        for d, mu in _mobius_divisors(n):
            kd = k // math.gcd(k, d)
            nd = n // d
            sign = -1 if (size - (nd - 1) // kd) & 1 else 1
            total += mu * sign * self.generalized_euler(nd, kd)
        return total // n


def query_failures(stream: list[tuple], answers: list, reference: Reference) -> int:
    """Answers that raised (stored as the exception) or disagree with the reference."""
    failed = 0
    for q, got in zip(stream, answers):
        if isinstance(got, BaseException) or got != reference(q):
            failed += 1
    return failed + abs(len(stream) - len(answers))
