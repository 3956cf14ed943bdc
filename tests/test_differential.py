"""Differential test of the engines on seeded random semilattices beyond
the exhaustive n <= 6 range."""

import random
from itertools import islice

from semiam.clifford import (
    CliffordSemigroup,
    FiniteAbelianGroup,
    build_clifford,
    collapse,
    diagonal_closed_form,
    diagonal_solve,
    hom_systems,
    unit_solve,
)
from semiam.diagonal import DiagonalTensor, diagonal_recursive, unit, verify_diagonal
from semiam.enumeration import enumerate_semilattices
from semiam.moebius import diagonal_via_mobius
from semiam.semilattice import Semilattice, flat, power_set, validate

from conftest import images_of, make_six
from oracles import first_failing_equation
from test_semilattice import random_family_table


def test_engines_agree_on_random_families_up_to_256():
    rng = random.Random(31)
    sizes = [7, 8, 9, 10] + [16 + (112 * k) // 19 for k in range(20)] + [192, 256]
    for n in sizes:
        s = validate(random_family_table(rng, n))
        assert isinstance(s, Semilattice)
        assert s.n == n
        u = unit(s)
        assert all(type(c) is int for c in u)
        d = diagonal_recursive(s)
        assert d == diagonal_via_mobius(s)
        assert verify_diagonal(d, u) == (True, None)
        if n <= 128:
            assert first_failing_equation(d, u) == (True, None)
        am = d.am()
        assert am.denominator == 1
        assert am % 4 == 1
        assert am >= 2 * n - 1
        if n <= 10:
            trivial = build_clifford(s, [FiniteAbelianGroup([1])] * n, {})
            assert collapse(diagonal_solve(trivial)) == d


def test_solver_oracle_reads_a_semilattice_directly():
    rng = random.Random(53)
    classes = [s for size in range(1, 7) for s in enumerate_semilattices(size)]
    drawn = [validate(random_family_table(rng, n)) for n in range(7, 13) for _ in range(2)]
    assert len(classes) == 77
    for s in classes + drawn:
        assert isinstance(s, Semilattice)
        assert unit_solve(s) == unit(s)
        d = diagonal_solve(s)
        assert d == diagonal_recursive(s)
        # the reference: the same solve over trivial blocks, summed back
        trivial = build_clifford(s, [FiniteAbelianGroup([1])] * s.n, {})
        assert d == collapse(diagonal_solve(trivial))


def test_zeta_identity_rejects_any_changed_entry():
    # verify_diagonal accepts a semilattice diagonal by the zeta identity
    # Z^T D Z = I alone, Z[x][a] = [a <= x]
    for s in (make_six(), power_set(2), flat(3)):
        d, u = diagonal_via_mobius(s), unit(s)
        assert verify_diagonal(d, u) == (True, None)
        for a in range(s.n):
            for b in range(s.n):
                rows = [list(row) for row in d.rows]
                rows[a][b] += 1
                bad = DiagonalTensor(s, rows, d.den)
                result = verify_diagonal(bad, u)
                assert result[0] is False
                assert result == first_failing_equation(bad, u)


def test_clifford_engines_agree_on_random_block_systems():
    rng = random.Random(47)
    skeletons = [s for size in range(1, 6) for s in enumerate_semilattices(size)]
    blocks = [[1], [2], [3], [4], [2, 2]]
    solved = 0
    for _ in range(30):
        skel = rng.choice(skeletons)
        groups = [FiniteAbelianGroup(rng.choice(blocks)) for _ in range(skel.n)]
        homs = rng.choice(list(islice(hom_systems(skel, groups), 50)))
        g = build_clifford(skel, groups, images_of(groups, homs))
        assert isinstance(g, CliffordSemigroup)
        u, d = g.unit, diagonal_closed_form(g)
        assert verify_diagonal(d, u) == (True, None)
        if g.n <= 16:
            solved += 1
            assert u == unit_solve(g)
            assert d == diagonal_solve(g)
        skel_d = diagonal_recursive(skel)
        assert collapse(d) == skel_d
        assert d.am() >= skel_d.am()
    assert solved >= 10
