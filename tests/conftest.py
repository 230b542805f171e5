import pytest

from descyc import oracle


@pytest.fixture(scope="session")
def word_tallies():
    """Memoized brute-force word tallies keyed by (length, alphabet)."""
    cache = {}

    def get(n, q):
        if (n, q) not in cache:
            cache[n, q] = oracle.brute_words(n, q)
        return cache[n, q]

    return get
