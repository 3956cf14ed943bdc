"""Differential test of the engines on seeded random semilattices beyond
the exhaustive n <= 6 range."""

import random

from semiam.clifford import FiniteAbelianGroup, build_clifford, collapse, diagonal_solve
from semiam.diagonal import diagonal_recursive, unit, verify_diagonal
from semiam.moebius import diagonal_via_mobius
from semiam.semilattice import Semilattice, validate

from test_semilattice import random_family_table


def test_engines_agree_on_random_families_up_to_128():
    rng = random.Random(31)
    sizes = [7, 8, 9, 10] + [16 + (112 * k) // 19 for k in range(20)]
    for n in sizes:
        s = validate(random_family_table(rng, n))
        assert isinstance(s, Semilattice)
        assert s.n == n
        u = unit(s)
        assert all(type(c) is int for c in u)
        d = diagonal_recursive(s)
        assert d == diagonal_via_mobius(s)
        assert verify_diagonal(d, u) == (True, None)
        am = d.am()
        assert am.denominator == 1
        assert am % 4 == 1
        assert am >= 2 * n - 1
        if n <= 10:
            trivial = build_clifford(s, [FiniteAbelianGroup([1])] * n, {})
            assert collapse(diagonal_solve(trivial)) == d
