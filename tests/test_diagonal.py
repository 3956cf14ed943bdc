import random
from fractions import Fraction

import pytest

from conftest import make_broom, make_six, make_tree
from oracles import point_mass, relabel, tensor_diagonal
from semiam.diagonal import (
    DiagonalTensor,
    diagonal_recursive,
    first_unit_failure,
    unit,
    verify_diagonal,
)
from semiam.semilattice import chain, flat, flat_with_top, power_set, product

D_L1 = ((2, -1), (-1, 1))
D_L2 = ((2, -1, 0), (-1, 2, -1), (0, -1, 1))
D_F2 = ((3, -1, -1), (-1, 1, 0), (-1, 0, 1))
D_F2_TOP = ((4, -2, -2, 1), (-2, 2, 1, -1), (-2, 1, 2, -1), (1, -1, -1, 1))
D_SIX = (
    (6, -2, -2, 0, -2, 1),
    (-2, 2, 1, -1, 0, 0),
    (-2, 1, 2, -1, 0, 0),
    (0, -1, -1, 2, 1, -1),
    (-2, 0, 0, 1, 2, -1),
    (1, 0, 0, -1, -1, 1),
)


def test_tensor_is_stored_in_lowest_terms():
    d = DiagonalTensor(chain(0), [[Fraction(2, 4)]])
    assert d.den == 2
    assert d.rows == ((1,),)


def test_tensor_from_ints_over_a_denominator_equals_the_fractions():
    ints = [[3, -2, 0], [1, 6, 4], [0, -9, 2]]
    over_six = DiagonalTensor(flat(2), ints, den=6)
    fractions = [[Fraction(v, 6) for v in row] for row in ints]
    assert over_six == DiagonalTensor(flat(2), fractions)
    assert over_six.den == 6
    assert over_six.rows == tuple(map(tuple, ints))
    doubled = [[2 * v for v in row] for row in ints]
    assert DiagonalTensor(flat(2), doubled, den=12) == over_six


@pytest.mark.parametrize("bad", [True, 0.5, None, object()])
def test_tensor_rejects_non_rational_entries(bad):
    with pytest.raises(TypeError):
        DiagonalTensor(chain(0), [[bad]])
    with pytest.raises(TypeError):
        DiagonalTensor(chain(1), [[2, -1], [bad, 1]])


def test_unit_golden_values():
    assert unit(flat(2)) == (Fraction(-1), Fraction(1), Fraction(1))
    assert unit(chain(3)) == (0, 0, 0, 1)
    assert unit(make_six()) == (0, 0, 0, 0, 0, 1)
    assert unit(power_set(2)) == (0, 0, 0, 1)
    # o < a,b with c above a: two maximal elements at different heights
    assert unit(make_broom()) == (-1, 0, 1, 1)


def test_unit_is_an_identity_and_sums_to_one():
    for s in [chain(0), chain(3), flat(3), flat_with_top(3), power_set(3),
              make_six(), make_tree(), make_broom()]:
        u = unit(s)
        assert sum(u) == 1
        for x in range(s.n):
            p = point_mass(s, x)
            # u * delta_x and delta_x * u, one product per nonzero u(t)
            left, right = [0] * s.n, [0] * s.n
            for t, c in enumerate(u):
                left[s.table[t][x]] += c
                right[s.table[x][t]] += c
            assert tuple(left) == p
            assert tuple(right) == p
        assert first_unit_failure(s, u) is None


def test_first_unit_failure_names_the_first_failing_element():
    for s in [chain(3), flat(3), make_six(), make_broom()]:
        bottom = point_mass(s, s.minimum)
        # delta_o * delta_q = delta_o, which is delta_q only for q = o
        first = next(q for q in range(s.n) if q != s.minimum)
        assert first_unit_failure(s, bottom) == first


def test_diagonal_golden_matrices():
    for s, matrix in [(chain(0), ((1,),)), (chain(1), D_L1), (chain(2), D_L2),
                      (flat(2), D_F2), (flat_with_top(2), D_F2_TOP),
                      (make_six(), D_SIX)]:
        assert diagonal_recursive(s) == DiagonalTensor(s, matrix)


def test_am_constants_small():
    assert diagonal_recursive(chain(0)).am() == 1
    assert diagonal_recursive(chain(1)).am() == 5
    assert diagonal_recursive(flat(2)).am() == 9
    assert diagonal_recursive(flat_with_top(2)).am() == 25
    assert diagonal_recursive(make_six()).am() == 41
    assert diagonal_recursive(make_tree()).am() == 13
    assert diagonal_recursive(make_broom()).am() == 13


def test_diagonal_transports_under_relabeling():
    six = make_six()
    d = diagonal_recursive(six)
    rng = random.Random(17)
    for _ in range(8):
        perm = list(range(6))
        rng.shuffle(perm)
        other = relabel(six, perm)
        d2 = diagonal_recursive(other)
        for a in range(6):
            for b in range(6):
                assert d2.rows[perm[a]][perm[b]] == d.rows[a][b]
        assert d2.den == d.den


def test_diagonal_shape_facts():
    for s in [chain(3), flat(3), flat_with_top(3), power_set(3), make_six(),
              make_tree(), make_broom()]:
        d = diagonal_recursive(s)
        assert d.rows == tuple(zip(*d.rows))
        assert d.den == 1
        sums = [sum(row) for row in d.rows]
        assert sums[s.minimum] == 1
        for x in range(s.n):
            if x != s.minimum:
                assert sums[x] == 0
        ok, witness = verify_diagonal(d, unit(s))
        assert ok, witness


def test_verify_catches_moment_perturbation():
    s = chain(1)
    d = DiagonalTensor(s, [[3, -1], [-1, 1]])
    ok, witness = verify_diagonal(d, unit(s))
    assert not ok
    assert witness == {
        "kind": "moment",
        "element": 0,
        "lhs": Fraction(1),
        "rhs": Fraction(0),
    }


def test_verify_catches_centrality_break():
    # moments kept intact, symmetry broken: +1 at (s1,s2), -1 at (s2,s1)
    s = flat(2)
    d = DiagonalTensor(s, [[3, -1, -1], [-1, 1, 1], [-1, -1, 1]])
    ok, witness = verify_diagonal(d, unit(s))
    assert not ok
    assert witness["kind"] == "centrality"
    assert witness["q"] == 0
    assert witness["pair"] == (0, 1)
    assert witness["lhs"] == Fraction(-1)
    assert witness["rhs"] == Fraction(0)


def test_tensor_diagonal_with_point_factor():
    s = make_six()
    d = diagonal_recursive(s)
    d0 = diagonal_recursive(chain(0))
    t = tensor_diagonal(d0, d)
    assert t == d
    assert t.base.n == s.n


def test_tensor_diagonal_matches_recursive_on_product():
    a, b = chain(1), chain(2)
    t = tensor_diagonal(diagonal_recursive(a), diagonal_recursive(b))
    direct = diagonal_recursive(product(a, b))
    assert t == direct
    assert t.am() == 5 * 9
    ok, witness = verify_diagonal(t, unit(product(a, b)))
    assert ok, witness


def test_tensor_diagonal_rejects_other_bases():
    class Fake:
        n = 1

        def mul(self, a, b):
            return 0

    d = diagonal_recursive(chain(1))
    with pytest.raises(TypeError):
        tensor_diagonal(d, DiagonalTensor(Fake(), [[1]]))


def test_closed_forms_first_values():
    for n in range(0, 5):
        assert diagonal_recursive(chain(n)).am() == 4 * n + 1
    for n in range(1, 5):
        assert diagonal_recursive(flat(n)).am() == 4 * n + 1
    for n in range(1, 5):
        assert diagonal_recursive(flat_with_top(n)).am() == 4 * n * n + 4 * n + 1
    for n in range(1, 4):
        assert diagonal_recursive(power_set(n)).am() == 5**n
