"""Each whole-table check names the table that differs and the first set
where it differs, so a planted off-by-one points at its own table; the
closed-form check names the direction that differs."""

import pytest

from descyc import cyclic, linear, patterns, verify

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
