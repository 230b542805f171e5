"""Exact descent-set statistics of permutations and cyclic permutations.

Counts of permutations by descent set, their restrictions to n-cycles via
signed divisor sums, word counts under the cycle-type correspondence,
consecutive-pattern avoiders, and exact deviation scans - all in integer
arithmetic, cross-validated against a brute-force oracle.  The ``descyc``
command and its ``verify`` suites are the product; the library API is
what README documents.
"""

from .core import (
    CapacityError,
    Count,
    CountTable,
    DescentSet,
    DomainError,
    InvariantViolation,
    divisors,
    mobius,
)

__all__ = [
    "CapacityError",
    "Count",
    "CountTable",
    "DescentSet",
    "DomainError",
    "InvariantViolation",
    "divisors",
    "mobius",
]

__version__ = "0.4.0"
