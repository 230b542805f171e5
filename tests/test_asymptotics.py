import json
import math
import operator
import time
from fractions import Fraction
from itertools import compress

import pytest

from descyc import asymptotics
from descyc.asymptotics import (
    ALL_PROPER_SCAN_CAP,
    EPSILON_DENOMINATOR_CAP,
    SCAN_CAP,
    Family,
    _completion_floors,
    _exhaustive_scan,
    _prefix_max_levels,
    beta_deviation_scan,
)
from descyc.core import (
    MAX_N,
    CapacityError,
    DescentSet,
    DomainError,
    alternation_mask,
    quotient_mask,
    square_free_divisors,
)
from descyc.cyclic import beta_cyc_mask, signed_divisor_table
from descyc.linear import beta_mask, beta_table, euler_zigzag, psi_step


def test_family_validation():
    with pytest.raises(DomainError):
        Family.all_proper(2)
    with pytest.raises(DomainError):
        Family.periodic(8, 2, ())
    with pytest.raises(DomainError):
        Family.periodic(8, 2, (3,))
    with pytest.raises(DomainError):
        Family.periodic(8, 2, (1, 2))  # not proper within the period
    # cut to [n-1], the set is the full set or empty: no proper member
    for n, ell, pattern in ((2, 2, (1,)), (3, 3, (1, 2)), (1, 2, (1,)), (2, 2, (2,))):
        with pytest.raises(DomainError):
            Family.periodic(n, ell, pattern)
    with pytest.raises(DomainError):
        Family.alt_threshold(8, Fraction(1, 2))
    with pytest.raises(DomainError):
        Family.alt_threshold(8, Fraction(0))


def test_family_members():
    assert list(Family.all_proper(3).members()) == [1, 2]
    assert list(Family.periodic(8, 2, (2,)).members()) == [
        DescentSet.from_elements(8, [2, 4, 6]).mask]
    fam = Family.alt_threshold(8, Fraction(1, 4))
    members = list(fam.members())
    assert len(members) == fam.member_count() == 128
    for n in range(1, 13):
        fam = Family.alt_threshold(n, Fraction(2, 5))
        assert len(list(fam.members())) == fam.member_count(), n
    # a set is nonempty and proper exactly when it has an alternation, so
    # all-proper is the rule least = 1
    for n in range(3, 17):
        with_alternation = [mask for mask in range(1 << (n - 1))
                            if alternation_mask(mask, n).bit_count() >= 1]
        members = list(Family.all_proper(n).members())
        assert members == with_alternation == list(range(1, 2**(n - 1) - 1)), n
    # least is the first alternation number that clears the threshold
    for eps in (Fraction(1, 4), Fraction(2, 5), Fraction(49, 100)):
        for n in range(1, 25):
            least = next(a for a in range(n) if asymptotics._alt_qualifies(a, n, eps))
            assert Family.alt_threshold(n, eps).least == least, (eps, n)
    # members() compares alternation counts with the least qualifying one;
    # the exact power comparison of _alt_qualifies is the reference
    for eps in (Fraction(1, 4), Fraction(2, 5), Fraction(49, 100)):
        for n in range(1, 17):
            expected = [mask for mask in range(1 << (n - 1)) if asymptotics._alt_qualifies(
                alternation_mask(mask, n).bit_count(), n, eps)]
            assert list(Family.alt_threshold(n, eps).members()) == expected, (eps, n)
    # the walk skips prefixes with no member and adds members_below for
    # every subtree it prunes
    for n in range(1, 11):
        families = [Family.alt_threshold(n, eps) for eps in (
            Fraction(1, 4), Fraction(2, 5), Fraction(49, 100))]
        if n >= 3:
            families.append(Family.all_proper(n))
        if n >= 4:
            families += [Family.periodic(n, 2, (2,)), Family.periodic(n, 4, (1, 3, 4))]
        for family in families:
            members = list(family.members())
            for p in range(1, n + 1):
                low = (1 << (p - 1)) - 1
                for mask in range(low + 1):
                    expected = sum(m & low == mask for m in members)
                    assert family.members_below(mask, p) == expected, (family, mask, p)


def test_beta_scan_small_examples():
    report = beta_deviation_scan(Family.all_proper(3))
    assert report.max_deviation == Fraction(1, 2)
    assert report.argmax.elements() == (1,)
    assert report.member_count == 2
    report = beta_deviation_scan(Family.all_proper(4))
    assert report.max_deviation == Fraction(1, 3)
    assert report.argmax.elements() == (1,)  # ties break to the lex-least set
    report = beta_deviation_scan(Family.periodic(8, 2, (2,)))
    assert report.max_deviation == Fraction(1, 1385)
    assert report.member_count == 1


def _direct_scan(family):
    # (max deviation, lexicographically least argmax) over the members
    n = family.n
    best = None
    for m in family.members():
        dev = abs(Fraction(n * beta_cyc_mask(n, m), beta_mask(n, m)) - 1)
        elements = DescentSet(n, m).elements()
        if best is None or dev > best[0] or (dev == best[0] and elements < best[1]):
            best = (dev, elements)
    return best


def test_beta_scan_matches_direct_maximum():
    # alt-threshold and periodic members are not contiguous: the walk skips
    # every prefix that no member extends
    families = []
    for n in range(3, 12):
        families.append(Family.all_proper(n))
        families.append(Family.alt_threshold(n, Fraction(2, 5)))
        families.append(Family.alt_threshold(n, Fraction(49, 100)))
        if n >= 4:
            families.append(Family.periodic(n, 2, (2,)))
            families.append(Family.periodic(n, 3, (1,)))
            families.append(Family.periodic(n, 4, (1, 3, 4)))
    families += [Family.alt_threshold(n, Fraction(1, 4)) for n in (1, 2)]
    for family in families:
        report = beta_deviation_scan(family)
        assert report.member_count == len(list(family.members()))
        assert (report.max_deviation, report.argmax.elements()) == _direct_scan(family), (
            family)


def test_beta_scan_deterministic_across_jobs():
    # every family takes the one-process walk, where jobs is byte-neutral
    for family in (Family.all_proper(26), Family.alt_threshold(14, Fraction(2, 5))):
        reports = [
            json.dumps(beta_deviation_scan(family, jobs=jobs).to_json_dict())
            for jobs in (1, 2, 4)
        ]
        assert reports[0] == reports[1] == reports[2], family


def test_pruned_scan_matches_exhaustive_scan():
    # the exhaustive reference visits every member of the whole beta table
    families = [Family.all_proper(n) for n in range(3, 23)]
    for n in range(1, 17):
        families += [Family.alt_threshold(n, eps) for eps in (
            Fraction(1, 4), Fraction(2, 5), Fraction(49, 100))]
        if n >= 4:
            families += [Family.periodic(n, 2, (2,)), Family.periodic(n, 3, (1,)),
                         Family.periodic(n, 4, (1, 3, 4))]
    for family in families:
        assert (beta_deviation_scan(family).to_json_dict()
                == _exhaustive_scan(family).to_json_dict()), family


def test_pruned_scan_argmax_beyond_exhaustive_cap():
    # past SCAN_CAP no exhaustive route runs: recompute the reported
    # deviation at the argmax from the pointwise formulas
    for n in range(SCAN_CAP + 1, ALL_PROPER_SCAN_CAP + 1):
        report = beta_deviation_scan(Family.all_proper(n))
        mask = report.argmax.mask
        direct = abs(Fraction(n * beta_cyc_mask(n, mask), beta_mask(n, mask)) - 1)
        assert report.max_deviation == direct, n
        assert report.member_count == (1 << (n - 1)) - 2


def test_pruned_walk_node_counts(monkeypatch):
    # only the walk calls asymptotics.psi_step, twice for each node it
    # expands, so the calls are one fewer than the nodes it visits
    calls = []

    def counted(psi, descent):
        calls.append(descent)
        return psi_step(psi, descent)

    monkeypatch.setattr(asymptotics, "psi_step", counted)
    for family, expected in ((Family.all_proper(16), 734),
                             (Family.all_proper(20), 1_998),
                             (Family.all_proper(24), 5_602),
                             (Family.all_proper(32), 46_218),
                             (Family.alt_threshold(20, Fraction(49, 100)), 23_544)):
        calls.clear()
        beta_deviation_scan(family)
        assert len(calls) == expected, family


def test_all_proper_maximum_closed_form():
    # computed facts (they hold at n = 3..32), not a trend: the worst proper
    # set is {1} with deviation 1/(n-1), except at n = 2 mod 4, where it is
    # [n-3] with deviation (n+2)/((n-1)(n-2)).  Past SCAN_CAP this is the
    # only check that the reported maximum is the maximum
    for n in range(3, 27):
        report = beta_deviation_scan(Family.all_proper(n))
        if n % 4 == 2:
            expected = (Fraction(n + 2, (n - 1) * (n - 2)), tuple(range(1, n - 2)))
        else:
            expected = (Fraction(1, n - 1), (1,))
        assert (report.max_deviation, report.argmax.elements()) == expected, n


def test_worst_set_closed_forms():
    # conjectured closed forms (README) at the two sets that attain the
    # all-proper maximum, checked at every n = 5..64: {1} and [n-3]
    for n in range(5, MAX_N + 1):
        assert (beta_mask(n, 1), beta_cyc_mask(n, 1)) == (n - 1, 1), n
        head = (1 << (n - 3)) - 1
        cycles = (n - 3 if n % 2 else n - 2 if n % 4 == 0 else n - 4) // 2
        assert (beta_mask(n, head), beta_cyc_mask(n, head)) == (
            math.comb(n - 1, 2), cycles), n


def test_quotient_inequality_over_whole_tables():
    # conjectured (README): beta_n(I) >= (n-1) * beta_{n/d}(I/d) for every
    # square-free d > 1 dividing n and every proper nonempty I, with
    # equality at {1}; here at every such I and d for n <= 16
    compared = 0
    for n in range(3, 17):
        betas = beta_table(n)
        for d, _ in square_free_divisors(n):
            if d == 1:
                continue
            low = beta_table(n // d)
            for mask in range(1, len(betas) - 1):
                assert betas[mask] >= (n - 1) * low[quotient_mask(mask, d, n)], (n, d, mask)
            assert betas[1] == (n - 1) * low[0]
            compared += len(betas) - 2
    assert compared == 119_820


def _skipped_nodes(family):
    """Every node (mask, p) with p < n whose members the walk over family
    counted without descending below it, mapped to the incumbent
    (num, den, mask) it held when it skipped that node."""
    calls = []
    incumbent = [None]
    better = asymptotics._better

    def logged_better(a, b):
        incumbent[0] = better(a, b)
        return incumbent[0]

    class Logged(Family):
        def members_below(self, mask, p):
            calls.append((mask, p, incumbent[0]))
            return super().members_below(mask, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asymptotics, "_better", logged_better)
        beta_deviation_scan(Logged(family.n, family.text, family.least, family.member))
    # a node the walk expanded is a proper prefix of a later call; the walk
    # calls members_below on a node only while it visits it, and the
    # incumbent only changes at a leaf
    expanded = {(mask & ((1 << (p - 1)) - 1), p)
                for mask, q, _ in calls for p in range(1, q)}
    return {(mask, p): best for mask, p, best in calls
            if p < family.n and (mask, p) not in expanded}


def test_pruned_walk_skips_only_what_falls_short():
    # equal reports could hide an unsound skip whose subtree happens not to
    # hold the maximum: every member below a skipped node must deviate
    # strictly less than the incumbent the walk held when it skipped it
    audited = 0
    for n in range(1, 19):
        families = [Family.alt_threshold(n, eps) for eps in (
            Fraction(1, 4), Fraction(2, 5), Fraction(49, 100))]
        if n >= 3:
            families.append(Family.all_proper(n))
        terms = [(d, mu, beta_table(n // d).__getitem__)
                 for d, mu in square_free_divisors(n) if d > 1]
        nums = signed_divisor_table(n, terms)
        betas = beta_table(n)
        for family in families:
            skipped = _skipped_nodes(family)
            member = [False] * len(betas)
            for m in family.members():
                member[m] = True
            for (mask, p), best in skipped.items():
                # a node with no member is passed over, not pruned
                for m in compress(range(mask, len(betas), 1 << (p - 1)),
                                  member[mask::1 << (p - 1)]):
                    audited += 1
                    assert best is not None, (family, mask, p)
                    assert abs(nums[m]) * best[1] < best[0] * betas[m], (
                        family, mask, p, m)
    assert audited > 1_000_000


def test_niven_zigzag_bound():
    # the walk's prefix-max table starts from the largest beta_m, which is
    # the zigzag number E_m (Niven); the alternating sets attain it
    for m in range(1, 17):
        assert _prefix_max_levels(m)[0] == [euler_zigzag(m)] == [max(beta_table(m))], m


def test_prefix_max_levels():
    # level q holds the largest beta_m over the completions of each q-bit
    # prefix; the last level is exact
    for m in range(1, 13):
        levels = _prefix_max_levels(m)
        assert len(levels) == m
        for q, level in enumerate(levels):
            assert level == [
                max(beta_mask(m, x | rest << q) for rest in range(1 << (m - 1 - q)))
                for x in range(1 << q)], (m, q)


def test_completion_floors():
    # floors[p][j] is the fewest length-n extensions of the unit rank-prefix
    # vector at j, over every sequence of the n - p steps still to come
    entries = 0
    for n in range(1, 11):
        floors = _completion_floors(n)
        for p in range(1, n + 1):
            for j in range(p):
                fewest = math.inf
                for steps in range(1 << (n - p)):
                    psi = [int(i == j) for i in range(p)]
                    for q in range(n - p):
                        psi = psi_step(psi, bool(steps >> q & 1))
                    fewest = min(fewest, sum(psi))
                assert floors[p][j] == fewest, (n, p, j)
                entries += 1
    assert entries == 220


def test_prefix_lower_bound():
    # the walk bounds beta_n below by psi . floors[p] for the rank-prefix
    # vector psi of the first p - 1 bits, which is at least beta_p of them
    for n in range(1, 13):
        floors = _completion_floors(n)
        for mask in range(1 << (n - 1)):
            value = beta_mask(n, mask)
            psi = [1]
            for p in range(1, n + 1):
                assert sum(psi) == beta_mask(p, mask & ((1 << (p - 1)) - 1))
                floor = sum(map(operator.mul, psi, floors[p]))
                assert sum(psi) <= floor <= value, (n, mask, p)
                if p < n:
                    psi = psi_step(psi, bool(mask >> (p - 1) & 1))
            assert floor == value, (n, mask)


def test_beta_scan_errors():
    with pytest.raises(DomainError):
        beta_deviation_scan(Family.all_proper(10), jobs=0)
    with pytest.raises(CapacityError):
        beta_deviation_scan(Family.all_proper(33))
    with pytest.raises(CapacityError):
        beta_deviation_scan(Family.alt_threshold(25, Fraction(1, 4)))
    # refused by the family, before any scan reaches divisors(n)
    with pytest.raises(DomainError, match="alt-threshold:1/4 needs n >= 1, got 0"):
        Family.alt_threshold(0, Fraction(1, 4))


def test_almost_all_fraction_examples():
    # small n put the threshold below zero, so every subset qualifies
    assert Family.alt_threshold(2, Fraction(1, 4)).member_count() == 2
    assert Family.alt_threshold(8, Fraction(1, 4)).member_count() == 1 << 7
    assert 0 < Family.alt_threshold(12, Fraction(1, 4)).member_count() <= 1 << 11
    with pytest.raises(DomainError):
        Family.alt_threshold(8, Fraction(1, 2))
    with pytest.raises(DomainError):
        Family.alt_threshold(8, Fraction(-1, 4))


def test_epsilon_denominator_capped_before_any_power():
    # the threshold test raises to the power of epsilon's denominator
    for eps in (Fraction(1, EPSILON_DENOMINATOR_CAP + 1), Fraction(1, 10**9),
                Fraction("1e-400"), Fraction(49999999, 10**8)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="denominator capped at 100000,"):
            Family.alt_threshold(SCAN_CAP, eps)
        assert time.perf_counter() - start < 1, eps
    # at the cap: 24**0.50001 is about 4.899, so the threshold is near 7.1
    # and a member's alternation number is at least 8.  Each of the 2**22
    # alternation masks on n - 2 = 22 bits comes from two descent sets.
    start = time.perf_counter()
    eps = Fraction(49999, EPSILON_DENOMINATOR_CAP)
    count = Family.alt_threshold(SCAN_CAP, eps).member_count()
    assert time.perf_counter() - start < 1
    assert count == 2 * sum(math.comb(22, j) for j in range(8, 23))
    assert Fraction(count, 1 << (SCAN_CAP - 1)) == Fraction(489213, 524288)


def _clears_threshold(alt, n, eps):
    # alt > n/2 - n**(1 - eps), settled in exact arithmetic
    gap = Fraction(n, 2) - alt
    if gap <= 0:
        return True
    p, q = eps.numerator, eps.denominator
    return gap**q < n ** (q - p)


def test_almost_all_fraction_matches_enumeration():
    for n in range(1, 13):
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(49, 100)):
            count = 0
            for mask in range(1 << (n - 1)):
                alt = alternation_mask(mask, n).bit_count()
                if _clears_threshold(alt, n, eps):
                    count += 1
            assert Family.alt_threshold(n, eps).member_count() == count, (n, eps)


def test_almost_all_fraction_monotone_nonincreasing_in_eps():
    # a larger epsilon means a higher alternation threshold, hence no more
    # qualifying subsets
    for n in (8, 12, 16, 20):
        counts = [Family.alt_threshold(n, Fraction(k, 100)).member_count()
                  for k in range(1, 50)]
        assert all(a >= b for a, b in zip(counts, counts[1:])), n


def test_scan_report_json_shape():
    report = beta_deviation_scan(Family.all_proper(6))
    doc = report.to_json_dict()
    assert set(doc) == {"n", "family", "max_deviation_num", "max_deviation_den",
                        "argmax_set", "member_count"}
    timed = report.to_json_dict(include_timing=True)
    assert "elapsed_ms" in timed and timed["elapsed_ms"] >= 0
