"""Named verification suites: every identity the package relies on, run
exhaustively up to per-check size caps and reported one line per check.

Each suite clamps the requested max size to the cap its checks are rated
for, so `run_suite("all", 9)` stays fast while larger explicit requests
exercise the expensive sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import asymptotics, cyclic, linear, lyndon, oracle, patterns
from .core import DescentSet, DomainError, InvariantViolation, divisors, mobius

SUITES = ("oracle", "inversions", "corollaries", "lyndon", "patterns",
          "bounds", "all")


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    max_n: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def first_failure(self) -> CheckResult | None:
        for r in self.results:
            if not r.ok:
                return r
        return None


def _result(label: str, ok: bool, witness: str = "") -> CheckResult:
    return CheckResult(label, ok, witness if not ok else "")


def _check_oracle(n: int) -> CheckResult:
    b_table, bc_table, _ = oracle.brute_tables(n)
    fb = linear.beta_table(n)
    fbc = cyclic.beta_cyc_table(n)
    bad = ""
    for mask in range(1 << (n - 1)):
        if fb[mask] != b_table.counts[mask]:
            bad = f"beta mismatch at I={{{DescentSet(n, mask).to_text()}}}"
            break
        if fbc[mask] != bc_table.counts[mask]:
            bad = f"beta_cyc mismatch at I={{{DescentSet(n, mask).to_text()}}}"
            break
        sub, a_sum, ac_sum = mask, 0, 0
        while True:
            a_sum += b_table.counts[sub]
            ac_sum += bc_table.counts[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        if linear.alpha_mask(n, mask) != a_sum:
            bad = f"alpha mismatch at I={{{DescentSet(n, mask).to_text()}}}"
            break
        if cyclic.alpha_cyc_mask(n, mask) != ac_sum:
            bad = f"alpha_cyc mismatch at I={{{DescentSet(n, mask).to_text()}}}"
            break
    return _result(f"oracle agreement n={n}", not bad, bad)


def suite_oracle(max_n: int) -> list[CheckResult]:
    """Formula alpha/beta and their cycle versions against enumeration."""
    return [_check_oracle(n) for n in range(1, min(max_n, 9) + 1)]


def _check_inversions(n: int) -> CheckResult:
    rep = cyclic.verify_main_inversions(n)
    if not rep.ok:
        return _result(f"inversion closure n={n}", False, str(rep.counterexample))
    return _result(f"inversion closure n={n}", rep.checked == 1 << (n - 1),
                   f"checked {rep.checked} sets")


def suite_inversions(max_n: int) -> list[CheckResult]:
    """The two exhaustive cross-inversion identities."""
    return [_check_inversions(n) for n in range(1, min(max_n, 12) + 1)]


def _check_prefix_identity(n: int) -> CheckResult:
    bc = cyclic.beta_cyc_table(n)
    prev = linear.beta_table(n - 1)
    high = 1 << (n - 2)
    for mask in range(high):
        if bc[mask] + bc[mask | high] != prev[mask]:
            return _result(
                f"prefix identity n={n}", False,
                f"I={{{DescentSet(n, mask).to_text()}}}")
    return _result(f"prefix identity n={n}", True)


def _check_gcd_shortcuts(n: int) -> CheckResult:
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
                return _result(f"gcd shortcuts n={n}", False,
                               f"alpha case at I={{{I.to_text()}}}")
        if n >= 2 and all(math.gcd(i, n) == 1 for i in elements):
            sign = -1 if len(elements) & 1 else 1
            if betas[mask] != n * beta_cycs[mask] + sign:
                return _result(f"gcd shortcuts n={n}", False,
                               f"beta case at I={{{I.to_text()}}}")
    return _result(f"gcd shortcuts n={n}", True)


def _check_complements(n: int) -> CheckResult:
    table = cyclic.beta_cyc_table(n)
    full = (1 << (n - 1)) - 1
    label = f"complements n={n}"
    if n % 4 != 2:
        for mask in range(1 << (n - 1)):
            if table[mask] != table[full ^ mask]:
                return _result(label, False,
                               f"I={{{DescentSet(n, mask).to_text()}}}")
        return _result(label, True)
    for mask in range(1 << (n - 1)):
        I = DescentSet(n, mask)
        odd_count = sum(1 for i in I.elements() if i % 2)
        if odd_count % 2 == 0:
            continue
        delta = table[mask] - table[full ^ mask]
        if delta < 0:
            return _result(label, False,
                           f"inequality at I={{{I.to_text()}}}")
        try:
            half = cyclic.complement_delta(I)
        except InvariantViolation as exc:
            return _result(label, False, str(exc))
        if delta != half:
            return _result(label, False,
                           f"half-size identity at I={{{I.to_text()}}}")
    return _result(label, True)


def _check_cycle_sum_rules(n: int) -> CheckResult:
    total = sum(cyclic.beta_cyc_table(n))
    rows = sum(cyclic.cyclic_eulerian(n, k) for k in range(1, n + 1))
    expected = math.factorial(n - 1)
    return _result(
        f"cycle sum rules n={n}",
        total == expected and rows == expected,
        f"sum(beta_cyc)={total}, sum(C)={rows}, want {expected}")


def _check_beta_sum_rule(n: int) -> CheckResult:
    total = sum(linear.beta_table(n))
    return _result(f"beta sum rule n={n}", total == math.factorial(n),
                   f"sum={total}")


def _check_alternating_cycles(n: int) -> CheckResult:
    expected = cyclic.beta_cyc_mask(n, linear.kz_mask(n, 2))
    got = cyclic.alternating_cycles(n)
    return _result(f"alternating cycles n={n}", got == expected,
                   f"{got} != {expected}")


def _check_kz_cycles(max_n: int) -> CheckResult:
    for n in range(1, max_n + 1):
        for k in range(1, 6):
            expected = cyclic.beta_cyc_mask(n, linear.kz_mask(n, k))
            got = cyclic.kz_cycles(n, k, check_corollaries=True)
            if got != expected:
                return _result("kz cycles vs beta_cyc (k<=5)", False,
                               f"n={n} k={k}: {got} != {expected}")
    return _result("kz cycles vs beta_cyc (k<=5)", True)


def _check_spot_values() -> CheckResult:
    return _result(
        "spot values",
        cyclic.alternating_cycles(4) == 1
        and cyclic.alternating_cycles(8) == 173
        and cyclic.kz_cycles(6, 3) == 3,
        "alternating(4), alternating(8), kz(6,3)")


def _check_alpha_cyc_subset_sums(n: int) -> CheckResult:
    table = cyclic.beta_cyc_table(n)
    for mask in range(1 << (n - 1)):
        sub, acc = mask, 0
        while True:
            acc += table[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        if acc != cyclic.alpha_cyc_mask(n, mask):
            return _result(f"alpha_cyc subset sums n={n}", False,
                           f"I={{{DescentSet(n, mask).to_text()}}}")
    return _result(f"alpha_cyc subset sums n={n}", True)


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


def _check_word_counts(n: int) -> CheckResult:
    for q in (1, 2, 3):
        tally = oracle.brute_words(n, q)
        for lam in lyndon.partitions_of(n):
            for ev in itertools.product(range(n + 1), repeat=q):
                if sum(ev) != n:
                    continue
                got = lyndon.count_words_by_type(lam, ev)
                if got != tally.get((lam.parts, ev), 0):
                    return _result(f"word counts vs enumeration n={n}", False,
                                   f"type={lam.parts} ev={ev} q={q}")
    return _result(f"word counts vs enumeration n={n}", True)


def _check_type_sums(n: int) -> CheckResult:
    betas = linear.beta_table(n)
    parts = lyndon.partitions_of(n)
    for mask in range(1 << (n - 1)):
        I = DescentSet(n, mask)
        total = sum(
            lyndon.count_by_type_and_descents(lam, I, exact=True)
            for lam in parts)
        if total != betas[mask]:
            return _result(f"type sums give beta n={n}", False,
                           f"I={{{I.to_text()}}}")
    return _result(f"type sums give beta n={n}", True)


def suite_lyndon(max_n: int) -> list[CheckResult]:
    """Word counts against enumeration, factorization laws, necklace totals."""
    out = [_check_word_counts(n) for n in range(1, min(max_n, 8) + 1)]
    out += [_check_type_sums(n) for n in range(1, min(max_n, 8) + 1)]
    for length in range(1, min(max_n, 10) + 1):
        bad = ""
        for word in itertools.product((1, 2, 3), repeat=length):
            factors = lyndon.lyndon_factorize(word)
            if (sum(factors, ()) != word
                    or any(not oracle.is_lyndon_slow(f) for f in factors)
                    or any(factors[i] < factors[i + 1]
                           for i in range(len(factors) - 1))):
                bad = f"word={word}"
                break
        out.append(_result(f"factorization laws length={length}", not bad, bad))
    for n in range(1, min(max_n, 12) + 1):
        bad = ""
        for q in (1, 2, 3, 4):
            total = sum(
                lyndon.count_lyndon(n, ev)
                for ev in itertools.product(range(n + 1), repeat=q)
                if sum(ev) == n)
            necklace = sum(mobius(d) * q ** (n // d) for d in divisors(n)) // n
            if total != necklace:
                bad = f"q={q}: {total} != {necklace}"
                break
        out.append(_result(f"necklace totals n={n}", not bad, bad))
    for n in range(1, min(max_n, 10) + 1):
        bad = ""
        for q in (1, 2, 3):
            prim = 0
            lynd = 0
            for word in itertools.product(range(1, q + 1), repeat=n):
                if oracle.is_primitive_slow(word):
                    prim += 1
                    lynd += oracle.is_lyndon_slow(word)
            if prim != n * lynd:
                bad = f"q={q}: {prim} != {n} * {lynd}"
                break
        out.append(_result(f"primitive words n={n}", not bad, bad))
    return out


def suite_patterns(max_n: int) -> list[CheckResult]:
    """Avoider recurrences and cycle formulas against every other route."""
    out = []
    for n in range(1, min(max_n, 9) + 1):
        profile = oracle.brute_pattern_profile(n, 3)
        g_beta = sum(linear.beta_mask(n, m)
                     for m in patterns.bounded_composition_masks(n, 2))
        gs_beta = sum(linear.beta_mask(n, m)
                      for m in patterns.spaced_composition_masks(n, 2))
        ok = (patterns.gamma(n) == g_beta == profile["incr"]
              and patterns.gamma_star(n) == gs_beta == profile["decr_boundary"]
              and patterns.cycles_avoiding_incr3(n) == profile["incr_cyc"]
              and patterns.cycles_avoiding_decr3(n) == profile["decr_cyc"])
        out.append(_result(f"pattern counts vs enumeration n={n}", ok,
                           f"profile={profile}"))
    for n in range(1, min(max_n, 14) + 1):
        ok = (patterns.cycles_avoiding_incr3(n)
              == patterns.cycles_avoiding_monotone(n, 3, "incr")
              and patterns.cycles_avoiding_decr3(n)
              == patterns.cycles_avoiding_monotone(n, 3, "decr"))
        out.append(_result(f"closed forms vs family sums n={n}", ok))
    bad = ""
    for n in range(1, min(max_n, 21) + 1):
        if n % 4 == 2:
            continue
        if patterns.cycles_avoiding_incr3(n) != patterns.cycles_avoiding_decr3(n):
            bad = f"n={n}"
            break
    out.append(_result("incr3 equals decr3 off 2 mod 4", not bad, bad))
    bad = ""
    for n in range(1, 201):
        if (patterns.theta_divisor_sum(n) != patterns.theta(n)
                or patterns.theta_tilde_divisor_sum(n) != patterns.theta_tilde(n)):
            bad = f"n={n}"
            break
    out.append(_result("theta divisor sums n<=200", not bad, bad))
    return out


def suite_bounds(max_n: int) -> list[CheckResult]:
    """Inequality sweeps and the divisor-count deviation bound."""
    out = []
    for n in range(2, min(max_n, 14) + 1):
        rep = asymptotics.bound_checks(n)
        witness = "; ".join(rep.failures[:3])
        out.append(_result(f"inequality sweep n={n}", rep.passed, witness))
    for n in range(2, min(max_n, 18) + 1):
        report, holds = asymptotics.alpha_deviation_scan(n)
        out.append(_result(
            f"alpha deviation bound n={n}", holds,
            f"max deviation {report.max_deviation}"))
    return out


_SUITE_FUNCS = {
    "oracle": suite_oracle,
    "inversions": suite_inversions,
    "corollaries": suite_corollaries,
    "lyndon": suite_lyndon,
    "patterns": suite_patterns,
    "bounds": suite_bounds,
}


def run_suite(suite: str, max_n: int) -> SuiteReport:
    """Run one named suite (or all of them) up to the clamped size."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    if suite == "all":
        results: list[CheckResult] = []
        for name in SUITES[:-1]:
            results.extend(_SUITE_FUNCS[name](max_n))
        return SuiteReport(suite, max_n, tuple(results))
    return SuiteReport(suite, max_n, tuple(_SUITE_FUNCS[suite](max_n)))
