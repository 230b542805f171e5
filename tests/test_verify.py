"""Each whole-table check names the table that differs and the first set
where it differs, so a planted off-by-one points at its own table; the
closed-form check names the direction that differs, and each word check
names the first word, type or alphabet where a planted bug shows."""

import itertools

import pytest

from descyc import cyclic, linear, lyndon, oracle, patterns, verify

PLANTS = [
    (cyclic, "beta_cyc_table", {
        "_check_oracle": "beta_cyc",
        "_check_prefix_identity": "prefix",
        "_check_complements": "complement",
        "_check_alpha_cyc_subset_sums": "alpha_cyc",
    }),
    (linear, "beta_table", {
        "_check_oracle": "beta",
        "_check_inversions": "beta-from-beta-cyc",
        "_check_prefix_identity": "prefix",
        "_check_type_sums": "type sum",
    }),
    (linear, "alpha_table", {
        "_check_oracle": "alpha",
        "_check_inversions": "alpha-from-alpha-cyc",
    }),
]


@pytest.mark.parametrize("module, name, witnesses", PLANTS)
def test_planted_off_by_one_names_its_table(monkeypatch, module, name, witnesses):
    build = getattr(module, name)

    def planted(n):
        table = list(build(n))
        table[1] += 1  # the set {1}
        return table

    monkeypatch.setattr(module, name, planted)
    for check, table in witnesses.items():
        result = getattr(verify, check)(5)
        assert not result.ok, check
        assert result.witness == f"{table} mismatch at I={{1}}", check


def test_closed_form_mismatch_names_its_direction(monkeypatch):
    decr3 = patterns.cycles_avoiding_decr3
    monkeypatch.setattr(patterns, "cycles_avoiding_decr3", lambda n: decr3(n) + 1)
    result = verify._check_closed_forms(6)
    assert not result.ok
    assert result.witness == "decr: closed form 59 != family sum 58"


def test_duval_with_a_strict_comparison_fails_the_factorization_laws(monkeypatch):
    def planted(word):
        # lyndon.lyndon_factorize with w[k] <= w[j] changed to w[k] < w[j]
        w = tuple(word)
        factors = []
        i, n = 0, len(w)
        while i < n:
            j, k = i + 1, i
            while j < n and w[k] < w[j]:
                k = i if w[k] < w[j] else k + 1
                j += 1
            while i <= k:
                factors.append(w[i:i + j - k])
                i += j - k
        return factors

    monkeypatch.setattr(lyndon, "lyndon_factorize", planted)
    assert verify._check_factorization_laws(2).ok
    result = verify._check_factorization_laws(3)
    assert not result.ok
    assert result.witness == "word=(1, 1, 2)"


_duval = lyndon.lyndon_factorize

# planted factorizers, each breaking one law of the check (Duval's factors
# reversed break two), with the first word each fails at length 3
FACTORIZER_PLANTS = [
    # the factors of all but the last letter: too short to concatenate
    pytest.param(lambda word: _duval(word[:-1]), "word=(1, 1, 1)", id="drop last letter"),
    # ordered Lyndon letters, as many as the word has, but all of them 1
    pytest.param(lambda word: [(1,)] * len(word), "word=(1, 1, 2)", id="all ones"),
    # a first factor that is not the word's prefix, and increasing factors
    pytest.param(lambda word: _duval(word)[::-1], "word=(1, 2, 1)", id="reversed factors"),
    # single letters are Lyndon and concatenate, but increase at an ascent
    pytest.param(lambda word: [(a,) for a in word], "word=(1, 1, 2)", id="single letters"),
    # the whole word concatenates and is ordered, but need not be Lyndon
    pytest.param(lambda word: [tuple(word)], "word=(1, 1, 1)", id="whole word"),
    # an empty last factor changes no concatenation or order, and is no
    # Lyndon word: a failed line, not a crash on its missing flag table
    pytest.param(lambda word: [*_duval(word), ()], "word=(1, 1, 1)", id="empty factor"),
]


@pytest.mark.parametrize("planted, witness", FACTORIZER_PLANTS)
def test_each_factorization_law_names_its_first_word(monkeypatch, planted, witness):
    monkeypatch.setattr(lyndon, "lyndon_factorize", planted)
    result = verify._check_factorization_laws(3)
    assert not result.ok
    assert result.witness == witness


@pytest.fixture
def fresh_word_counts():
    # the planted fillings below must not be served from, or left in, the memo
    lyndon._words_by_type.cache_clear()
    yield
    lyndon._words_by_type.cache_clear()


def test_fillings_off_by_one_fails_the_word_counts(monkeypatch, fresh_word_counts):
    def planted(rho, caps):
        # lyndon._fillings with cap >= part changed to cap > part
        if not rho:
            return 1
        part, rest = rho[0], rho[1:]
        letters = {}
        for cap in caps:
            if cap > part:
                letters[cap] = letters.get(cap, 0) + 1
        total = 0
        for cap, copies in letters.items():
            left = list(caps)
            left.remove(cap)
            left.append(cap - part)
            total += copies * planted(rest, tuple(sorted(filter(None, left), reverse=True)))
        return total

    monkeypatch.setattr(lyndon, "_fillings", planted)
    result = verify._check_word_counts(3)
    assert not result.ok
    assert result.witness == "type=(1, 1, 1) ev=(3,) q=1"


def test_evaluations_are_the_filtered_tuples_in_order():
    # the word checks list each (n, q)'s evaluations once, in the order of
    # the filtered product they replace, so each first witness stays put
    for n in range(13):
        for q in (1, 2, 3, 4):
            assert verify._evaluations(n, q) == [
                ev for ev in itertools.product(range(n + 1), repeat=q)
                if sum(ev) == n], (n, q)


def test_a_periodic_word_flagged_primitive_fails_the_primitive_words(monkeypatch):
    flags = oracle.word_flags

    def planted(length, q):
        table = bytearray(flags(length, q))
        table[0] |= oracle.PRIMITIVE  # the word 1^length, a power at length > 1
        return table

    monkeypatch.setattr(oracle, "word_flags", planted)
    assert verify._check_primitive_words(1).ok
    result = verify._check_primitive_words(4)
    assert not result.ok
    assert result.witness == "q=1: 1 != 4 * 0"


def _plant_alpha_cyc(monkeypatch, n, elements, error):
    alpha_cyc = cyclic.alpha_cyc_mask
    planted_mask = sum(1 << (i - 1) for i in elements)

    def planted(m, mask):
        return alpha_cyc(m, mask) + (error if (m, mask) == (n, planted_mask) else 0)

    monkeypatch.setattr(cyclic, "alpha_cyc_mask", planted)


def test_alpha_cyc_error_at_a_shared_prime_set_breaks_the_bound(monkeypatch):
    assert verify._check_alpha_deviation_bound(6).ok
    # {2, 4} shares the prime 2 with n = 6: alpha = 6!/(2! 2! 2!) = 90 and
    # alpha_cyc = 14, so 6 * (14 + 100) - 90 = 594 and the deviation 33/5
    # passes d(6) / sqrt(6) = 4 / sqrt(6)
    _plant_alpha_cyc(monkeypatch, 6, (2, 4), 100)
    result = verify._check_alpha_deviation_bound(6)
    assert not result.ok
    assert result.witness == "max deviation 33/5"


def test_alpha_cyc_error_at_a_coprime_set_is_for_the_gcd_shortcuts(monkeypatch):
    # {1} shares no prime with n = 6, so the bound never reads it
    _plant_alpha_cyc(monkeypatch, 6, (1,), 100)
    assert verify._check_alpha_deviation_bound(6).ok
    result = verify._check_gcd_shortcuts(6)
    assert not result.ok
    assert result.witness == "alpha case at I={1}"
