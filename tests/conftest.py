def assert_passed(results):
    """Assert that a list of `verify` check results is nonempty and that
    every check passed; a failure names each failed check and its witness."""
    failures = [r for r in results if not r.ok]
    assert results and not failures, failures
