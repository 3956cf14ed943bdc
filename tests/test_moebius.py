import random
from fractions import Fraction

from conftest import make_broom, make_six, make_tree
from oracles import (
    mobius_by_definition,
    point_mass,
    relabel,
    schutzenberger,
    schutzenberger_inverse,
)
from semiam.diagonal import diagonal_recursive, unit
from semiam.moebius import diagonal_via_mobius, mobius_table
from semiam.semilattice import (
    Semilattice,
    chain,
    flat,
    flat_with_top,
    from_hasse,
    power_set,
    validate,
)
from test_semilattice import random_family_table


def test_mobius_chain():
    mu = mobius_table(chain(3))
    for t in range(4):
        assert mu.columns[t][t] == 1
    for t in range(3):
        assert mu.columns[t + 1][t] == -1
    assert mu.columns[2].get(0, 0) == 0
    assert mu.columns[3].get(0, 0) == 0
    assert mu.columns[3].get(1, 0) == 0


def test_mobius_flat_with_top():
    # o below a1, a2, both below 1; the square has mu(o, 1) = +1
    mu = mobius_table(flat_with_top(2))
    assert mu.columns[1][0] == -1
    assert mu.columns[2][0] == -1
    assert mu.columns[3][0] == 1
    assert mu.columns[3][1] == -1
    assert mu.columns[3][2] == -1


def test_mobius_six_element_golden():
    mu = mobius_table(make_six())
    expected = {
        (0, 1): -1,
        (0, 2): -1,
        (0, 4): -1,
        (0, 3): 1,
        (0, 5): 1,
        (1, 3): -1,
        (2, 3): -1,
        (1, 5): 0,
        (2, 5): 0,
        (3, 5): -1,
        (4, 5): -1,
    }
    for (t, s), v in expected.items():
        assert mu.columns[s].get(t, 0) == v, (t, s)
    for t in range(6):
        assert mu.columns[t][t] == 1


def test_extended_mobius_zero_off_order():
    # a column holds its support and nothing else: t in columns[s] iff
    # mu(t, s) != 0, so no pair off the order and no zero on it
    six = make_six()
    mu = mobius_table(six)
    expected = mobius_by_definition(six)
    for t in range(6):
        for s in range(6):
            assert (t in mu.columns[s]) == (expected.get((t, s), 0) != 0)
    assert sum(map(len, mu.columns)) == 15  # 17 comparable pairs, 2 zeros


def test_inversion_identities():
    for s in [chain(3), flat(3), power_set(2), make_six(), make_tree(),
              make_broom()]:
        mu = mobius_table(s)
        for t in range(s.n):
            for r in range(s.n):
                total = sum(
                    mu.columns[x].get(t, 0) for x in range(s.n)
                    if s.table[t][x] == t and s.table[x][r] == x
                )
                assert total == (1 if t == r else 0)
                total = sum(
                    mu.columns[r].get(x, 0) for x in range(s.n)
                    if s.table[t][x] == t and s.table[x][r] == x
                )
                assert total == (1 if t == r else 0)


def test_schutzenberger_golden_indicators():
    six = make_six()
    d3 = point_mass(six, 3)
    d4 = point_mass(six, 4)
    # down-set of s3 is {o, s1, s2, s3}
    assert schutzenberger(six, d3) == (1, 1, 1, 1, 0, 0)
    assert schutzenberger(six, d4) == (1, 0, 0, 0, 1, 0)
    # s3 * s4 = o, so delta_s3 * delta_s4 maps to the bottom indicator
    assert schutzenberger(six, point_mass(six, six.table[3][4])) == (1, 0, 0, 0, 0, 0)


def test_schutzenberger_turns_convolution_into_pointwise_product():
    six = make_six()
    for g in range(6):
        for h in range(6):
            # delta_g * delta_h = delta_{gh}
            lhs = schutzenberger(six, point_mass(six, six.table[g][h]))
            a = schutzenberger(six, point_mass(six, g))
            b = schutzenberger(six, point_mass(six, h))
            assert lhs == tuple(x * y for x, y in zip(a, b))


def test_schutzenberger_roundtrip_seeded():
    six = make_six()
    rng = random.Random(5)
    for _ in range(20):
        x = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)
        )
        assert schutzenberger_inverse(six, schutzenberger(six, x)) == x
        values = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)
        )
        assert schutzenberger(six, schutzenberger_inverse(six, values)) == values


def test_unit_as_schutzenberger_preimage_matches_recursion():
    for s in [chain(0), chain(4), flat(4), flat_with_top(3), power_set(3),
              make_six(), make_tree(), make_broom()]:
        assert schutzenberger_inverse(s, [1] * s.n) == unit(s)


def test_diagonal_via_mobius_matches_recursion():
    for s in [chain(0), chain(3), flat(3), flat_with_top(2), power_set(3),
              make_six(), make_tree(), make_broom()]:
        assert diagonal_via_mobius(s) == diagonal_recursive(s)


def test_diagonal_via_mobius_under_relabeling():
    six = make_six()
    rng = random.Random(23)
    for _ in range(6):
        perm = list(range(6))
        rng.shuffle(perm)
        other = relabel(six, perm)
        assert diagonal_via_mobius(other) == diagonal_recursive(other)


def test_mobius_pairs_cover_order():
    six = make_six()
    mu = mobius_table(six)
    listed = {(t, s) for t, s, _ in mu.pairs()}
    assert listed == {(t, s) for t in range(6) for s in range(6) if six.table[t][s] == t}


def test_mobius_columns_on_a_long_chain_hold_two_entries():
    # on a chain of 1000 covers mu(t, s) != 0 only for t = s and t = s - 1
    s = from_hasse(1001, [(i, i + 1) for i in range(1000)])
    columns = mobius_table(s).columns
    assert columns[0] == {0: 1}
    for x in range(1, 1001):
        assert columns[x] == {x: 1, x - 1: -1}
    assert len(mobius_table(s).pairs()) == 1001 * 1002 // 2
    assert diagonal_via_mobius(s).am() == 4 * 1000 + 1
    # the recursion is cubic on a chain: compare the engines on 300 covers
    short = from_hasse(301, [(i, i + 1) for i in range(300)])
    assert diagonal_via_mobius(short) == diagonal_recursive(short)


def test_mobius_columns_match_the_definition_at_scale():
    rng = random.Random(67)
    bases = [flat_with_top(200), power_set(8)]
    bases += [validate(random_family_table(rng, n)) for n in (32, 64, 128, 256)]
    for s in bases:
        assert isinstance(s, Semilattice)
        expected = mobius_by_definition(s)
        mu = mobius_table(s)
        assert mu.pairs() == sorted((t, x, v) for (t, x), v in expected.items())
        for x, column in enumerate(mu.columns):
            assert column == {t: v for (t, r), v in expected.items() if r == x and v}
        assert diagonal_via_mobius(s) == diagonal_recursive(s)
    # on a power set column s holds the 2^|s| subsets t of s, at
    # (-1)^|s - t|
    for x, column in enumerate(mobius_table(power_set(8)).columns):
        assert column == {t: (-1) ** bin(x ^ t).count("1")
                          for t in range(256) if t & x == t}
