"""Named verification suites: every identity the package relies on, run
exhaustively up to per-check size caps and reported one line per check.
This is the one module that states identities and reports their failures;
the counting modules only count.

Each suite clamps the requested max size to the cap its checks are rated
for, so `run_suite("all", 9)` stays fast while larger explicit requests
exercise the expensive sweeps.

Every check line is a `_check`-decorated function.  An InvariantViolation
raised by a formula under test fails that one line, with the exception
message as its witness, and every other line still runs.  Each line also
carries its wall time, which `descyc verify --timing` prints to stderr.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from . import cyclic, linear, lyndon, oracle, patterns
from .core import (
    DescentSet,
    DomainError,
    InvariantViolation,
    alternation_mask,
    divisors,
    mask_gcd,
    mobius,
    quotient_mask,
    submasks,
    subset_sums,
)

@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    witness: str = ""
    # wall time of the check; it differs between runs, so it takes no part
    # in equality and no default output prints it
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    max_n: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)


def _check(label: str):
    """Turn a body returning (ok, witness) into a check line.

    The line's label is `label` formatted with the check's arguments.
    """
    def wrap(body):
        @functools.wraps(body)
        def check(*args) -> CheckResult:
            start = time.perf_counter()
            try:
                ok, witness = body(*args)
            except InvariantViolation as exc:
                ok, witness = False, str(exc)
            return CheckResult(label.format(*args), ok, "" if ok else witness,
                               time.perf_counter() - start)
        return check
    return wrap


def _same_tables(n: int, *tables):
    """Compare (name, got, want) per-mask tables at ambient n, in order.

    The witness names the first table that differs and its first differing
    mask: "NAME mismatch at I={...}".
    """
    for name, got, want in tables:
        for mask, (a, b) in enumerate(zip(got, want, strict=True)):
            if a != b:
                return False, f"{name} mismatch at I={{{DescentSet(n, mask).to_text()}}}"
    return True, ""


@_check("oracle agreement n={}")
def _check_oracle(n: int):
    b_table, bc_table, _ = oracle.brute_tables(n)
    # lazy: a mismatch in an earlier table is reported before this can raise
    alpha_cycs = map(functools.partial(cyclic.alpha_cyc_mask, n), range(1 << (n - 1)))
    return _same_tables(
        n, ("beta", linear.beta_table(n), b_table.counts),
        ("beta_cyc", cyclic.beta_cyc_table(n), bc_table.counts),
        ("alpha", linear.alpha_table(n), subset_sums(b_table.counts)),
        ("alpha_cyc", alpha_cycs, subset_sums(bc_table.counts)))


def suite_oracle(max_n: int) -> list[CheckResult]:
    """Formula alpha/beta and their cycle versions against enumeration."""
    return [_check_oracle(n) for n in range(1, min(max_n, 9) + 1)]


@_check("inversion closure n={}")
def _check_inversions(n: int):
    """Both inverse identities for every subset of {1, ..., n-1}.

    For each I: alpha equals the divisor sum of scaled alpha_cyc values over
    d | gcd(I u {n}), and beta equals the signed divisor sum of scaled
    beta_cyc values over d | n.  The beta side writes out its quotients and
    signs instead of calling cyclic.signed_divisor_sum, which it checks.
    """
    def alpha_side(mask):
        return sum((n // d) * cyclic.alpha_cyc_mask(n // d, quotient_mask(mask, d, n))
                   for d in divisors(mask_gcd(n, mask)))

    def beta_side(mask):
        total = 0
        for d in divisors(n):
            q = quotient_mask(mask, d, n)
            sign = -1 if (mask.bit_count() - q.bit_count()) & 1 else 1
            total += sign * (n // d) * cyclic.beta_cyc_mask(n // d, q)
        return total

    masks = range(1 << (n - 1))
    return _same_tables(
        n,
        ("alpha-from-alpha-cyc", map(alpha_side, masks), linear.alpha_table(n)),
        ("beta-from-beta-cyc", map(beta_side, masks), linear.beta_table(n)))


def suite_inversions(max_n: int) -> list[CheckResult]:
    """The two exhaustive cross-inversion identities."""
    return [_check_inversions(n) for n in range(1, min(max_n, 12) + 1)]


@_check("prefix identity n={}")
def _check_prefix_identity(n: int):
    bc = cyclic.beta_cyc_table(n)
    high = 1 << (n - 2)
    return _same_tables(
        n, ("prefix", map(add, bc[:high], bc[high:]), linear.beta_table(n - 1)))


@_check("gcd shortcuts n={}")
def _check_gcd_shortcuts(n: int):
    betas = linear.beta_table(n)
    beta_cycs = cyclic.beta_cyc_table(n)
    for mask in range(1 << (n - 1)):
        I = DescentSet(n, mask)
        elements = I.elements()
        g = math.gcd(n, *elements) if elements else n
        if g == 1:
            lhs = linear.alpha_mask(n, mask)
            rhs = n * cyclic.alpha_cyc_mask(n, mask)
            if lhs != rhs:
                return False, f"alpha case at I={{{I.to_text()}}}"
        if n >= 2 and all(math.gcd(i, n) == 1 for i in elements):
            sign = -1 if len(elements) & 1 else 1
            if betas[mask] != n * beta_cycs[mask] + sign:
                return False, f"beta case at I={{{I.to_text()}}}"
    return True, ""


@_check("complements n={}")
def _check_complements(n: int):
    """beta_cyc against its value at the complement of I.

    Off n = 2 mod 4 the two are equal.  At n = 2 mod 4, for I with an odd
    number of odd elements, beta_cyc(I) - beta_cyc(complement) is
    beta_cyc(I/2) at n/2 (so never negative), and it is zero exactly when I
    holds no even element or every even element.  The difference comes
    from the table, the half-size value from the point formula.
    """
    table = cyclic.beta_cyc_table(n)
    if n % 4 != 2:
        return _same_tables(n, ("complement", table, table[::-1]))
    full = (1 << (n - 1)) - 1
    evens = linear.kz_mask(n, 2)
    for mask in range(1 << (n - 1)):
        if (mask & ~evens).bit_count() % 2 == 0:
            continue
        witness = DescentSet(n, mask).to_text
        delta = table[mask] - table[full ^ mask]
        if delta < 0:
            return False, f"inequality at I={{{witness()}}}"
        if delta != cyclic.beta_cyc_mask(n // 2, quotient_mask(mask, 2, n)):
            return False, f"half-size identity at I={{{witness()}}}"
        # At n = 2 the half-size empty set contributes 1, so the zero test
        # only characterizes equality from n = 6 on.
        if n >= 6 and (delta == 0) != (mask & evens in (0, evens)):
            return False, f"equality criterion at I={{{witness()}}}"
    return True, ""


def _size_rule(table, counts, oracle_row, total: int):
    """A per-mask table summed over the masks of each size, the counts by
    size from the power sums, and the oracle's row agree; they add up to
    total."""
    sizes = [0] * len(counts)
    for mask, value in enumerate(table):
        sizes[mask.bit_count()] += value
    for k, count in enumerate(counts, 1):
        if not (sizes[k - 1] == count == oracle_row[k - 1]):
            return False, (f"k={k}: by-size sum {sizes[k - 1]}, power sum {count},"
                           f" oracle row {oracle_row[k - 1]}")
    return sum(sizes) == total, f"sum={sum(sizes)}, want {total}"


@_check("cycle sum rules n={}")
def _check_cycle_sum_rules(n: int):
    counts = [cyclic.cyclic_eulerian(n, k) for k in range(1, n + 1)]
    return _size_rule(cyclic.beta_cyc_table(n), counts,
                      oracle.cyclic_eulerian_rows(n)[n], math.factorial(n - 1))


@_check("beta sum rule n={}")
def _check_beta_sum_rule(n: int):
    counts = [linear.eulerian(n, k) for k in range(1, n + 1)]
    return _size_rule(linear.beta_table(n), counts,
                      oracle.eulerian_rows(n)[n], math.factorial(n))


@_check("alternating cycles n={}")
def _check_alternating_cycles(n: int):
    expected = cyclic.beta_cyc_mask(n, linear.kz_mask(n, 2))
    got = cyclic.alternating_cycles(n)
    return got == expected, f"{got} != {expected}"


def _is_odd_prime(k: int) -> bool:
    if k < 3 or k % 2 == 0:
        return False
    return all(k % p for p in range(3, math.isqrt(k) + 1, 2))


@_check("kz cycles vs beta_cyc (k<=5)")
def _check_kz_cycles(max_n: int):
    """kz_cycles, and its coprime and odd-prime forms where they hold."""
    for n in range(1, max_n + 1):
        for k in range(1, 6):
            expected = cyclic.beta_cyc_mask(n, linear.kz_mask(n, k))
            forms = [("", cyclic.kz_cycles)]
            if math.gcd(k, n) == 1:
                forms.append(("coprime form ", cyclic._kz_coprime))
            if _is_odd_prime(k):
                forms.append(("odd-prime form ", cyclic._kz_odd_prime))
            for name, form in forms:
                got = form(n, k)
                if got != expected:
                    return False, f"{name}n={n} k={k}: {got} != {expected}"
    return True, ""


@_check("spot values")
def _check_spot_values():
    return (cyclic.alternating_cycles(4) == 1
            and cyclic.alternating_cycles(8) == 173
            and cyclic.kz_cycles(6, 3) == 3,
            "alternating(4), alternating(8), kz(6,3)")


@_check("alpha_cyc subset sums n={}")
def _check_alpha_cyc_subset_sums(n: int):
    alpha_cycs = [cyclic.alpha_cyc_mask(n, m) for m in range(1 << (n - 1))]
    return _same_tables(
        n, ("alpha_cyc", alpha_cycs, subset_sums(cyclic.beta_cyc_table(n))))


def suite_corollaries(max_n: int) -> list[CheckResult]:
    """Prefix identity, gcd shortcuts, complements, sum rules, special sets."""
    out = [_check_prefix_identity(n) for n in range(2, min(max_n, 14) + 1)]
    out += [_check_gcd_shortcuts(n) for n in range(1, min(max_n, 14) + 1)]
    out += [_check_complements(n) for n in range(1, min(max_n, 12) + 1)
            if n % 4 != 2]
    out += [_check_complements(n) for n in (6, 10) if n <= max_n]
    out += [_check_cycle_sum_rules(n) for n in range(1, min(max_n, 14) + 1)]
    out += [_check_beta_sum_rule(n) for n in range(1, min(max_n, 12) + 1)]
    out += [_check_alternating_cycles(n) for n in range(1, min(max_n, 18) + 1)]
    out.append(_check_kz_cycles(min(max_n, 18)))
    if max_n >= 8:
        out.append(_check_spot_values())
    out += [_check_alpha_cyc_subset_sums(n) for n in range(1, min(max_n, 10) + 1)]
    return out


def _evaluations(n: int, q: int) -> list[tuple[int, ...]]:
    """The q-tuples of nonnegative integers that sum to n, in lexicographic
    order: the evaluations of the words of length n over q letters."""
    if q == 1:
        return [(n,)]
    return [(first, *rest) for first in range(n + 1)
            for rest in _evaluations(n - first, q - 1)]


@_check("word counts vs enumeration n={}")
def _check_word_counts(n: int):
    for q in (1, 2, 3):
        tally = oracle.brute_words(n, q)
        evaluations = _evaluations(n, q)
        for lam in lyndon.partitions_of(n):
            for ev in evaluations:
                got = lyndon.count_words_by_type(lam, ev)
                if got != tally.get((lam.parts, ev), 0):
                    return False, f"type={lam.parts} ev={ev} q={q}"
    return True, ""


@_check("type sums give beta n={}")
def _check_type_sums(n: int):
    tables = [lyndon.type_descent_table(lam) for lam in lyndon.partitions_of(n)]
    return _same_tables(
        n, ("type sum", map(sum, zip(*tables)), linear.beta_table(n)))


@_check("factorization laws length={}")
def _check_factorization_laws(length: int):
    """Duval's factors of every word over {1, 2, 3} concatenate to the
    word, weakly decrease and are Lyndon.  After one comparison of the
    concatenation, a single pass over the factors checks that each is no
    greater than the one before and carries the LYNDON flag.  A factor's
    flag comes from the oracle's rotation sweep at the factor's rank: the
    base-3 digits of the word's rank that it spans."""
    flags, powers = oracle._flag_tables(length, 3)
    for rank, word in enumerate(itertools.product((1, 2, 3), repeat=length)):
        factors = lyndon.lyndon_factorize(word)
        if sum(factors, ()) != word:
            return False, f"word={word}"
        rest = length  # letters after factor f
        before = word  # f's predecessor; the first factor, a prefix, is at most the word
        for f in factors:
            m = len(f)
            rest -= m
            # an empty factor is not Lyndon (and has no flag table)
            if (before < f or not m
                    or not flags[m][rank // powers[rest] % powers[m]] & oracle.LYNDON):
                return False, f"word={word}"
            before = f
    return True, ""


@_check("necklace totals n={}")
def _check_necklace_totals(n: int):
    for q in (1, 2, 3, 4):
        total = sum(lyndon.count_lyndon(n, ev) for ev in _evaluations(n, q))
        necklace = sum(mobius(d) * q ** (n // d) for d in divisors(n)) // n
        if total != necklace:
            return False, f"q={q}: {total} != {necklace}"
    return True, ""


@_check("primitive words n={}")
def _check_primitive_words(n: int):
    """n times the Lyndon words are the primitive words: the oracle's sweep
    finds the Lyndon words by comparing rotations and the imprimitive ones
    as powers of shorter words."""
    for q in (1, 2, 3):
        flags = oracle.word_flags(n, q)
        prim = sum(1 for flag in flags if flag & oracle.PRIMITIVE)
        lynd = sum(1 for flag in flags if flag & oracle.LYNDON)
        if prim != n * lynd:
            return False, f"q={q}: {prim} != {n} * {lynd}"
    return True, ""


def suite_lyndon(max_n: int) -> list[CheckResult]:
    """Word counts against enumeration, factorization laws, necklace totals."""
    out = [_check_word_counts(n) for n in range(1, min(max_n, 8) + 1)]
    out += [_check_type_sums(n) for n in range(1, min(max_n, 8) + 1)]
    out += [_check_factorization_laws(length)
            for length in range(1, min(max_n, 10) + 1)]
    out += [_check_necklace_totals(n) for n in range(1, min(max_n, 12) + 1)]
    out += [_check_primitive_words(n) for n in range(1, min(max_n, 10) + 1)]
    return out


@_check("pattern counts vs enumeration n={}")
def _check_pattern_counts(n: int):
    profile = oracle.brute_pattern_profile(n, 3)
    g_beta = sum(linear.beta_mask(n, m)
                 for m in patterns.composition_masks(n, 1, 2))
    gs_beta = sum(linear.beta_mask(n, m)
                  for m in patterns.composition_masks(n, 2, n))
    ok = (patterns.gamma(n) == g_beta == profile["incr"]
          and patterns.gamma_star(n) == gs_beta == profile["decr_boundary"]
          and patterns.cycles_avoiding_incr3(n) == profile["incr_cyc"]
          and patterns.cycles_avoiding_decr3(n) == profile["decr_cyc"])
    return ok, f"profile={profile}"


@_check("closed forms vs family sums n={}")
def _check_closed_forms(n: int):
    for direction, closed in (("incr", patterns.cycles_avoiding_incr3),
                              ("decr", patterns.cycles_avoiding_decr3)):
        want = closed(n)
        got = patterns.cycles_avoiding_monotone(n, 3, direction)
        if want != got:
            return False, f"{direction}: closed form {want} != family sum {got}"
    return True, ""


@_check("incr3 equals decr3 off 2 mod 4")
def _check_incr3_decr3(max_n: int):
    for n in range(1, max_n + 1):
        if n % 4 == 2:
            continue
        if patterns.cycles_avoiding_incr3(n) != patterns.cycles_avoiding_decr3(n):
            return False, f"n={n}"
    return True, ""


@_check("theta divisor sums n<=200")
def _check_theta_divisor_sums():
    for n in range(1, 201):
        if (patterns.theta_divisor_sum(n) != patterns.theta(n)
                or patterns.theta_tilde_divisor_sum(n) != patterns.theta_tilde(n)):
            return False, f"n={n}"
    return True, ""


def suite_patterns(max_n: int) -> list[CheckResult]:
    """Avoider recurrences and cycle formulas against every other route."""
    out = [_check_pattern_counts(n) for n in range(1, min(max_n, 9) + 1)]
    out += [_check_closed_forms(n) for n in range(1, min(max_n, 14) + 1)]
    out.append(_check_incr3_decr3(min(max_n, 21)))
    out.append(_check_theta_divisor_sums())
    return out


def _even_run_mask(k: int) -> int:
    # {2, 4, ..., 2k}
    return linear.kz_mask(2 * k + 1, 2)


@_check("inequality sweep n={}")
def _check_inequalities(n: int):
    """Sweep the proven inequalities over every subset at ambient n.

    Covers: the floor(n/2)! gap bound; minimization of beta by the
    alternating staircase of the same alternation number; its truncation
    to any shorter even staircase; the half-binomial zigzag lower bound;
    and the two-term staircase identity it rests on.
    """
    betas = linear.beta_table(n)
    beta_cycs = cyclic.beta_cyc_table(n)
    failures: list[str] = []
    half_fact = math.factorial(n // 2)
    for mask in range(1 << (n - 1)):
        witness = DescentSet(n, mask).to_text
        gap = n * beta_cycs[mask] - betas[mask]
        if 2 * abs(gap) > n * half_fact:
            failures.append(f"gap bound: I={{{witness()}}} gap={gap}")
        alt = alternation_mask(mask, n).bit_count()
        # the staircase {2, 4, ..., alt} or {1, 3, ..., alt}
        stair = _even_run_mask((alt + 1) // 2) >> (alt % 2)
        if betas[mask] < betas[stair]:
            failures.append(f"staircase minimization: I={{{witness()}}} alt={alt}")
        for k in range(alt // 2 + 1):
            if betas[mask] < betas[_even_run_mask(k)]:
                failures.append(f"even staircase 2k={2 * k}: I={{{witness()}}}")
    for k in range(n // 4 + 1):
        lhs = 2 * betas[_even_run_mask(k)]
        rhs = math.comb(n, 2 * k) * linear.euler_zigzag(2 * k)
        if lhs < rhs:
            failures.append(f"half-binomial zigzag bound at 2k={2 * k}")
    for i in range(1, (n - 1) // 2 + 1):
        lhs = betas[_even_run_mask(i - 1)] + betas[_even_run_mask(i)]
        if lhs != math.comb(n, 2 * i) * linear.euler_zigzag(2 * i):
            failures.append(f"staircase pair identity at 2i={2 * i}")
    return not failures, "; ".join(failures[:3])


@_check("alpha deviation bound n={}")
def _check_alpha_deviation_bound(n: int):
    """The max of |n * alpha_cyc(I) / alpha(I) - 1| over nonempty I stays
    within d(n) / sqrt(n).  Only the sets on the multiples of a d > 1
    dividing n are read: the others share no prime with n and deviate by
    exactly 0, as the gcd shortcuts check."""
    def deviation(mask):
        alpha = linear.alpha_mask(n, mask)
        return abs(Fraction(n * cyclic.alpha_cyc_mask(n, mask) - alpha, alpha))

    dev = max((deviation(mask) for d in divisors(n)[1:]
               for mask in submasks(linear.kz_mask(n, d)) if mask),
              default=Fraction(0))
    d_n = len(divisors(n))
    holds = dev.numerator ** 2 * n <= d_n ** 2 * dev.denominator ** 2
    return holds, f"max deviation {dev}"


def suite_bounds(max_n: int) -> list[CheckResult]:
    """Inequality sweeps and the divisor-count deviation bound."""
    out = [_check_inequalities(n) for n in range(2, min(max_n, 14) + 1)]
    out += [_check_alpha_deviation_bound(n) for n in range(2, min(max_n, 18) + 1)]
    return out


_SUITE_FUNCS = {
    "oracle": suite_oracle,
    "inversions": suite_inversions,
    "corollaries": suite_corollaries,
    "lyndon": suite_lyndon,
    "patterns": suite_patterns,
    "bounds": suite_bounds,
}

SUITES = (*_SUITE_FUNCS, "all")


def run_suite(suite: str, max_n: int) -> SuiteReport:
    """Run one named suite (or all of them) up to the clamped size."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    names = _SUITE_FUNCS if suite == "all" else (suite,)
    results = [r for name in names for r in _SUITE_FUNCS[name](max_n)]
    if not results:  # a run of no checks would pass vacuously
        least = next(m for m in itertools.count(max_n + 1)
                     if any(_SUITE_FUNCS[name](m) for name in names))
        raise DomainError(
            f"suite {suite!r} has no check at max_n = {max_n}; use max_n >= {least}")
    return SuiteReport(suite, max_n, tuple(results))
