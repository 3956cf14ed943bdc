"""Acceptance gate: every required result, checked at exact equality.

One test per criterion; `pytest -v` prints one pass/fail line for each.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from conftest import make_g, make_six
from oracles import (
    enumerate_brute,
    enumerate_by_families,
    first_failing_equation,
    point_mass,
    push,
    schutzenberger,
)
from semiam.clifford import (
    CliffordSemigroup,
    FiniteAbelianGroup,
    build_clifford,
    collapse,
    diagonal_solve,
)
from semiam.diagonal import (
    DiagonalTensor,
    diagonal_recursive,
    unit,
    verify_diagonal,
)
from semiam.enumeration import (
    enumerate_by_extension,
    enumerate_semilattices,
    gap_search,
)
from semiam.moebius import diagonal_via_mobius, mobius_table
from semiam.semilattice import (
    Semilattice,
    chain,
    check_table,
    flat,
    flat_with_top,
    from_hasse,
    power_set,
)

from test_clifford import G2_MATRIX


def all_classes(max_size):
    for size in range(1, max_size + 1):
        for s in enumerate_semilattices(size):
            yield s


def test_golden_diagonal_matrices_exact():
    goldens = [
        (chain(1), ((2, -1), (-1, 1))),
        (chain(2), ((2, -1, 0), (-1, 2, -1), (0, -1, 1))),
        (flat(2), ((3, -1, -1), (-1, 1, 0), (-1, 0, 1))),
        (flat_with_top(2),
         ((4, -2, -2, 1), (-2, 2, 1, -1), (-2, 1, 2, -1), (1, -1, -1, 1))),
        (make_six(), (
            (6, -2, -2, 0, -2, 1),
            (-2, 2, 1, -1, 0, 0),
            (-2, 1, 2, -1, 0, 0),
            (0, -1, -1, 2, 1, -1),
            (-2, 0, 0, 1, 2, -1),
            (1, 0, 0, -1, -1, 1),
        )),
    ]
    for s, matrix in goldens:
        assert diagonal_recursive(s) == DiagonalTensor(s, matrix)
    assert diagonal_recursive(make_six()).am() == 41


def test_closed_form_families_exact():
    for n in range(0, 11):
        assert diagonal_recursive(chain(n)).am() == 4 * n + 1
    for n in range(1, 11):
        assert diagonal_recursive(flat(n)).am() == 4 * n + 1
    for n in range(1, 9):
        assert diagonal_recursive(flat_with_top(n)).am() == 4 * n * n + 4 * n + 1
    for n in range(1, 5):
        assert diagonal_recursive(power_set(n)).am() == 5 ** n


def test_clifford_family_constants_exact():
    for n in range(2, 7):
        d = diagonal_solve(make_g(n))
        assert d.am() == 41 + Fraction(4 * (n - 1), n)
    assert diagonal_solve(make_g(2)) == DiagonalTensor(make_g(2), G2_MATRIX)


def test_three_engines_agree_on_every_class_through_size_six():
    total = 0
    for s in all_classes(6):
        recursive, moebius = diagonal_recursive(s), diagonal_via_mobius(s)
        assert first_failing_equation(recursive, unit(s)) == (True, None)
        assert recursive == moebius == diagonal_solve(s)
        total += 1
    assert total == 77


def test_every_constant_is_one_mod_four():
    for s in all_classes(6):
        am = diagonal_recursive(s).am()
        assert am.denominator == 1
        assert am % 4 == 1
    # each value 1, 5, 9, ..., 21 is actually attained
    for n in range(0, 6):
        assert diagonal_recursive(chain(n)).am() == 4 * n + 1


def test_lower_bound_and_diagonal_parity():
    for s in all_classes(6):
        d = diagonal_recursive(s)
        am = d.am()
        assert am >= 2 * s.n - 1
        assert d.den == 1
        assert d.rows[s.minimum][s.minimum] >= 1
        top = s.top()
        if top is not None:
            for p in range(s.n):
                if p != top:
                    assert d.rows[p][p] % 2 == 0


def test_diagonal_shape_invariants():
    for s in all_classes(6):
        d = diagonal_recursive(s)
        assert d.rows == tuple(zip(*d.rows))
        assert d.den == 1
        sums = [sum(row) for row in d.rows]
        for x in range(s.n):
            assert sums[x] == (1 if x == s.minimum else 0)
        ok, witness = verify_diagonal(d, unit(s))
        assert ok, witness


def test_collapse_matches_skeleton_and_constant_dominates():
    six_d = diagonal_recursive(make_six())
    for n in range(2, 7):
        g = make_g(n)
        d = diagonal_solve(g)
        assert collapse(d) == six_d
        assert d.am() >= six_d.am()
    rng = random.Random(7)
    skeletons = [chain(1), chain(2), flat(2), from_hasse(4, [(0, 1), (1, 2), (1, 3)])]
    for _ in range(8):
        skel = rng.choice(skeletons)
        groups = [
            FiniteAbelianGroup(rng.choice([[1], [2], [3], [2, 2]]))
            for _ in range(skel.n)
        ]
        g = build_clifford(skel, groups, {})
        assert isinstance(g, CliffordSemigroup)
        d = diagonal_solve(g)
        skel_d = diagonal_recursive(skel)
        assert collapse(d) == skel_d
        assert d.am() >= skel_d.am()


def quotients(s):
    """(theta, Y) for every congruence of s with 1 < |Y| < |S|: theta[x] is
    the id of x's class, and Y is the meet table on the classes, in the
    order of their first members.

    Every congruence of a finite semilattice is the kernel of
    x -> ([x >= a])_{a in A} for some set A of elements, since the maps
    onto the two-element chain separate the points of any quotient, and
    each is x -> [x >= a] for the principal filter it keeps."""
    n, table = s.n, s.table
    seen = set()
    for chosen in range(1 << n):
        keys = [tuple(table[x][a] == a for a in range(n) if chosen >> a & 1)
                for x in range(n)]
        classes = {}
        theta = tuple(classes.setdefault(key, len(classes)) for key in keys)
        if theta in seen or not 1 < len(classes) < n:
            continue
        seen.add(theta)
        first = [keys.index(key) for key in classes]
        y_table = [[theta[table[a][b]] for b in first] for a in first]
        # a congruence: the class of a meet depends only on the classes
        assert all(y_table[theta[a]][theta[b]] == theta[table[a][b]]
                   for a in range(n) for b in range(n))
        assert check_table(y_table).ok
        yield theta, Semilattice(y_table)


def test_every_quotient_pushes_the_diagonal_onto_its_own():
    # Claim 2 in its general form: a surjective homomorphism theta: S -> Y
    # gives a surjective norm-one algebra homomorphism l1(S) -> l1(Y), so
    # (theta (x) theta)(D_S) = D_Y and AM(Y) <= AM(S).  D_S comes from the
    # closed form and D_Y from the recursion, so that a fault in one engine
    # shows even where it only scales D
    counts, equal = Counter(), Counter()
    for s in all_classes(6):
        d = diagonal_via_mobius(s)
        for theta, y in quotients(s):
            dy = diagonal_recursive(y)
            assert push(d, theta, y) == dy, (s.table, theta)
            assert dy.am() <= d.am()
            counts[s.n] += 1
            equal[s.n] += dy.am() == d.am()
    assert counts == {3: 4, 4: 29, 5: 195, 6: 1390}  # 1618 in all
    # one quotient keeps AM: class 26 of size 6 onto M3, both 49
    assert +equal == {6: 1}


def test_isomorphism_class_counts():
    counts = [len(enumerate_by_extension(n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 5, 15, 53]
    for n in (5, 6):
        assert enumerate_by_families(n) == enumerate_by_extension(n)
    for n in range(1, 5):
        assert enumerate_brute(n) == enumerate_by_extension(n)


def test_no_constant_strictly_between_five_and_nine():
    start = time.monotonic()
    report = gap_search()
    elapsed = time.monotonic() - start
    assert report.instance_count == 332
    assert report.ok
    assert report.violations == []
    assert report.am_counts == [
        (Fraction(1), 4),
        (Fraction(5), 24),
        (Fraction(9), 304),
    ]
    assert report.min_am_beyond() == 9
    assert elapsed < 60.0, f"gap search took {elapsed:.1f}s"


def test_claim_three_reduction_every_skeleton_of_three_or_more_has_am_at_least_nine():
    # The README's reduction of claim 3: AM(S) >= AM(Y) for the skeleton
    # Y, |Y| <= 2 gives 1 or 5, and for |Y| >= 4, 2|Y| - 1 >= 7 and
    # AM = 1 (mod 4) force AM(Y) >= 9.  Here every class with
    # 3 <= n <= 7 is checked directly, the 222 of n = 7 among them.
    counts = []
    for size in range(3, 8):
        classes = enumerate_semilattices(size)
        counts.append(len(classes))
        assert min(diagonal_recursive(s).am() for s in classes) >= 9
    assert counts == [2, 5, 15, 53, 222]


def test_adding_a_maximal_element_adds_one_rank_one_term_and_raises_am():
    # S minus a maximal element m is a down-closed subsemilattice whose
    # Moebius columns are those of S, so D(S) - (D(S minus m) + 0) is
    # c (x) c with c = mu(., m); the rise in AM is then at least 4, as
    # both are 1 mod 4.  The engine is the corner-growing recursion, not
    # the Moebius sum.  Observed through n = 7, not proved: a failure is
    # data, and every one is listed.
    steps = Counter()
    failures = []
    for size in range(2, 8):
        for s in enumerate_semilattices(size):
            d = diagonal_recursive(s)
            for m in (x for x in range(s.n) if not s.strictly_above[x]):
                keep = [x for x in range(s.n) if x != m]
                sub = Semilattice([[keep.index(s.table[a][b]) for b in keep]
                                   for a in keep])
                e = diagonal_recursive(sub)
                c = mobius_table(s).columns[m]
                rest = [[Fraction(0)] * s.n for _ in range(s.n)]
                for i, a in enumerate(keep):
                    for j, b in enumerate(keep):
                        rest[a][b] = Fraction(e.rows[i][j], e.den)
                if any(Fraction(d.rows[a][b], d.den) - rest[a][b]
                       != c.get(a, 0) * c.get(b, 0)
                       for a in range(s.n) for b in range(s.n)):
                    failures.append(("rank one", s.table, m))
                step = d.am() - e.am()
                if step < 4:
                    failures.append(("step", s.table, m, step))
                steps[step] += 1
    assert failures == []
    assert steps == {4: 483, 16: 128, 36: 26, 12: 9, 32: 9, 64: 5, 60: 2,
                     28: 1, 100: 1}


def test_inversion_and_verification_properties():
    # Moebius inversion identities on every class through size five
    for s in all_classes(5):
        mu = mobius_table(s)
        for t in range(s.n):
            for r in range(s.n):
                total = sum(
                    mu.columns[x].get(t, 0)
                    for x in range(s.n)
                    if s.table[t][x] == t and s.table[x][r] == x
                )
                assert total == (1 if t == r else 0)
    # the down-set indicator map is multiplicative on basis elements:
    # delta_g * delta_h = delta_{gh}
    for s in all_classes(4):
        for g in range(s.n):
            for h in range(s.n):
                lhs = schutzenberger(s, point_mass(s, s.table[g][h]))
                a = schutzenberger(s, point_mass(s, g))
                b = schutzenberger(s, point_mass(s, h))
                assert lhs == tuple(x * y for x, y in zip(a, b))
    # tampering with any single entry is caught by the checker
    two = chain(1)
    bad_moment = DiagonalTensor(two, [[3, -1], [-1, 1]])
    ok, witness = verify_diagonal(bad_moment, unit(two))
    assert not ok and witness["kind"] == "moment" and witness["element"] == 0
    f2 = flat(2)
    bad_central = DiagonalTensor(f2, [[3, -1, -1], [-1, 1, 1], [-1, -1, 1]])
    ok, witness = verify_diagonal(bad_central, unit(f2))
    assert not ok
    assert witness["kind"] == "centrality"
    assert witness["q"] == 0 and witness["pair"] == (0, 1)
