import math
import time

import pytest

from conftest import assert_passed
from descyc import verify
from descyc.core import CapacityError, DomainError, gap_parts, mask_elements
from descyc.cyclic import beta_cyc_mask
from descyc.linear import beta_mask
from descyc.oracle import brute_pattern_profile
from descyc.patterns import (
    GAMMA_CAP,
    chi,
    chi_star,
    composition_masks,
    cycles_avoiding_decr3,
    cycles_avoiding_incr3,
    cycles_avoiding_monotone,
    gamma,
    gamma_star,
    monotone_avoiders,
    theta,
    theta_tilde,
)

GAMMA = [1, 1, 2, 5, 17, 70, 349, 2017, 13358, 99377, 822041]
GAMMA_STAR = [1, 0, 1, 1, 6, 19, 109, 588, 4033, 29485, 246042]
INCR3 = [1, 1, 2, 4, 14, 58, 288, 1669, 11042, 82206, 679742, 6183925]
DECR3 = [1, 1, 2, 4, 14, 58, 288, 1669, 11042, 82202, 679742, 6183925]


def test_chi_weights():
    for r in range(0, 300):
        assert chi(r) == (1 if r % 3 == 1 else -1 if r % 3 == 0 else 0)
        assert chi_star(r) == (1 if r % 3 == 2 else -1 if r % 3 == 0 else 0)


def test_gamma_sequences():
    assert [gamma(n) for n in range(11)] == GAMMA
    assert [gamma_star(n) for n in range(11)] == GAMMA_STAR
    with pytest.raises(DomainError):
        gamma(-1)
    with pytest.raises(DomainError):
        gamma_star(-1)
    with pytest.raises(CapacityError):
        gamma(GAMMA_CAP + 1)
    with pytest.raises(CapacityError):
        gamma_star(GAMMA_CAP + 1)


def test_gamma_equals_beta_sums():
    for n in range(1, 13):
        assert gamma(n) == sum(
            beta_mask(n, m) for m in composition_masks(n, 1, 2))
        assert gamma_star(n) == sum(
            beta_mask(n, m) for m in composition_masks(n, 2, n))


def test_gamma_matches_oracle():
    assert_passed([verify._check_pattern_counts(n) for n in range(1, 10)])
    for n in range(1, 10):
        profile = brute_pattern_profile(n, 3)
        assert profile["incr"] == profile["decr"], n


def test_composition_families():
    # compositions of 4 with parts <= 2: (1,1,1,1), (1,1,2), (1,2,1),
    # (2,1,1), (2,2)
    masks = sorted(composition_masks(4, 1, 2))
    assert masks == [0b010, 0b011, 0b101, 0b110, 0b111]
    assert sorted(composition_masks(4, 2, 4)) == [0b000, 0b010]
    assert list(composition_masks(1, 2, 1)) == []
    assert list(composition_masks(1, 1, 2)) == [0]
    # n = 0 has one composition, the empty one
    assert [list(composition_masks(0, 1, k)) for k in (1, 2, 5)] == [[0]] * 3
    # depth first: a composition, then those that split its last part,
    # smaller parts first; that is ascending order of the members.  Parts
    # at most b, at least b, and mixed small bounds
    for n in range(1, 16):
        masks = sorted(range(1 << (n - 1)), key=mask_elements)
        parts = [gap_parts(n, mask) for mask in masks]
        bounds = {*((1, b) for b in range(1, n + 2)), *((b, n) for b in range(1, n + 2)),
                  *((a, b) for b in range(1, 5) for a in range(1, b + 1))}
        for least, most in sorted(bounds):
            expected = [mask for mask, p in zip(masks, parts)
                        if least <= min(p) and max(p) <= most]
            assert list(composition_masks(n, least, most)) == expected, (
                n, least, most)
    # a part of size 0 would never end the walk
    for least in (0, -1):
        with pytest.raises(DomainError, match=f"least >= 1, got {least}"):
            next(composition_masks(5, least, 2))


def test_theta_functions():
    assert [theta(n) for n in (1, 2, 3, 6, 9, 12, 18, 54)] == [
        0, 0, 1, -2, 1, 0, -2, -2]
    assert [theta_tilde(n) for n in (1, 3, 6, 9, 27)] == [0, 1, 0, 1, 1]
    assert_passed([verify._check_theta_divisor_sums()])


def test_cycle_avoider_sequences():
    assert [cycles_avoiding_incr3(n) for n in range(1, 13)] == INCR3
    assert [cycles_avoiding_decr3(n) for n in range(1, 13)] == DECR3
    assert cycles_avoiding_incr3(4) == 4
    assert cycles_avoiding_decr3(4) == 4
    assert cycles_avoiding_decr3(2) == 1
    assert cycles_avoiding_incr3(1) == 1


def test_cycle_avoiders_match_oracle():
    assert_passed([verify._check_pattern_counts(n) for n in range(1, 10)])


def test_cycle_avoiders_match_family_sums():
    assert_passed([verify._check_closed_forms(n) for n in range(1, 65)])


def test_incr_equals_decr_off_two_mod_four():
    assert_passed([verify._check_incr3_decr3(21)])


def test_monotone_avoiders():
    assert monotone_avoiders(4, 3, "incr") == 17
    assert monotone_avoiders(4, 3, "decr") == 17
    assert monotone_avoiders(0, 3) == 1
    for n in range(0, 9):
        for k in range(max(n + 1, 2), n + 3):
            assert monotone_avoiders(n, k, "incr") == math.factorial(n)
    with pytest.raises(DomainError):
        monotone_avoiders(4, 1)
    with pytest.raises(DomainError):
        monotone_avoiders(4, 3, "sideways")


def test_monotone_avoiders_match_oracle():
    for n in range(1, 9):
        for k in (2, 3, 4, 5):
            profile = brute_pattern_profile(n, k)
            assert monotone_avoiders(n, k, "incr") == profile["incr"]
            assert monotone_avoiders(n, k, "decr") == profile["decr"]
            assert cycles_avoiding_monotone(n, k, "incr") == profile["incr_cyc"]
            assert cycles_avoiding_monotone(n, k, "decr") == profile["decr_cyc"]


def test_cycles_avoiding_monotone_edges():
    for n in range(1, 9):
        for k in range(n + 1, n + 3):
            assert cycles_avoiding_monotone(n, k) == math.factorial(n - 1)
    assert cycles_avoiding_monotone(25, 3) == cycles_avoiding_incr3(25)
    with pytest.raises(DomainError):
        cycles_avoiding_monotone(4, 3, "up")


def test_family_sums_answer_every_n_to_64():
    # the inputs the per-set sums once refused as too many sets
    start = time.monotonic()
    for n, k in ((17, 17), (23, 3), (24, 3), (25, 3), (40, 20), (64, 3), (64, 64)):
        for direction in ("incr", "decr"):
            assert monotone_avoiders(n, n + 1, direction) == math.factorial(n)
            assert cycles_avoiding_monotone(n, n + 1, direction) == math.factorial(n - 1)
        # only the monotone word has a run of n, and it is no n-cycle
        if k == n:
            assert monotone_avoiders(n, n) == math.factorial(n) - 1
            assert cycles_avoiding_monotone(n, n) == math.factorial(n - 1)
        if k == 3:
            assert monotone_avoiders(n, 3) == gamma(n)
            assert cycles_avoiding_monotone(n, 3, "incr") == cycles_avoiding_incr3(n)
            assert cycles_avoiding_monotone(n, 3, "decr") == cycles_avoiding_decr3(n)
        assert monotone_avoiders(n, k, "incr") == monotone_avoiders(n, k, "decr")
        assert 0 < cycles_avoiding_monotone(n, k) < monotone_avoiders(n, k)
    assert monotone_avoiders(64, 10**18) == math.factorial(64)
    for count in (monotone_avoiders, cycles_avoiding_monotone):
        with pytest.raises(CapacityError, match="n = 64"):
            count(65, 66)
    assert time.monotonic() - start < 1
    assert monotone_avoiders(64, 2) == 1
    assert cycles_avoiding_monotone(64, 2) == beta_cyc_mask(64, (1 << 63) - 1)


def test_decr_uses_complements():
    # the per-set route: beta and beta_cyc summed over the small-gap descent
    # sets, complemented for the descending runs
    for n in range(1, 13):
        full = (1 << (n - 1)) - 1
        for k in range(2, n + 2):
            masks = list(composition_masks(n, 1, k - 1))
            for direction, flip in (("incr", 0), ("decr", full)):
                assert monotone_avoiders(n, k, direction) == sum(
                    beta_mask(n, m ^ flip) for m in masks), (n, k, direction)
                assert cycles_avoiding_monotone(n, k, direction) == sum(
                    beta_cyc_mask(n, m ^ flip) for m in masks), (n, k, direction)
