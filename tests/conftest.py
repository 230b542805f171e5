from descyc.linear import psi_step


def assert_passed(results):
    """Assert that a list of `verify` check results is nonempty and that
    every check passed; a failure names each failed check and its witness."""
    failures = [r for r in results if not r.ok]
    assert results and not failures, failures


def rank_prefix_beta(n, mask):
    """beta_n at a raw mask by the rank-prefix DP, folded from
    linear.psi_step one position at a time.  It shares no code with the
    top-bit recurrence behind linear.beta_mask and linear.beta_table, which
    it checks."""
    psi = [1]
    for pos in range(1, n):
        psi = psi_step(psi, bool(mask >> (pos - 1) & 1))
    return sum(psi)
