import json
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import make_g, make_six
from oracles import digits_index
import semiam.clifford as clifford_mod
import semiam.semilattice as semilattice_mod
from semiam.clifford import (
    MAX_ELEMENTS,
    CliffordSemigroup,
    DiagonalSolveError,
    FiniteAbelianGroup,
    NotUnitalError,
    build_clifford,
    collapse,
    diagonal_solve,
    from_json_dict,
    generator_images,
    hom_choices,
    hom_images,
    hom_systems,
    hom_violation,
    unit_solve,
)
from semiam.diagonal import DiagonalTensor, diagonal_recursive, verify_diagonal
from semiam.enumeration import enumerate_semilattices, gap_search
from semiam.semilattice import (
    Semilattice,
    chain,
    flat_with_top,
    from_hasse,
    power_set,
    validate,
)

G2_MATRIX = (
    (6, -2, -2, Fraction(-1, 2), Fraction(1, 2), -2, 1),
    (-2, 2, 1, Fraction(-1, 2), Fraction(-1, 2), 0, 0),
    (-2, 1, 2, Fraction(-1, 2), Fraction(-1, 2), 0, 0),
    (Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(3, 2), 0, 1, -1),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), 0, Fraction(1, 2), 0, 0),
    (-2, 0, 0, 1, 0, 2, -1),
    (1, 0, 0, -1, 0, -1, 1),
)


def test_group_structure():
    z4 = FiniteAbelianGroup([4])
    assert z4.order == 4
    assert z4.sum_table(0)[1][3] == 0
    assert z4.inverses[1] == 3
    klein = FiniteAbelianGroup([2, 2])
    assert klein.order == 4
    assert klein.element(3) == (1, 1)
    sums = klein.sum_table(0)
    assert sums[digits_index(klein, (1, 0))][digits_index(klein, (0, 1))] == digits_index(
        klein, (1, 1))
    for x in range(4):
        assert sums[x][x] == 0
    assert klein.sum_table(10)[1][2] == 10 + sums[1][2]


def test_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([2, -1])


def test_hom_validity_depends_on_orders():
    z2 = FiniteAbelianGroup([2])
    z4 = FiniteAbelianGroup([4])
    assert hom_violation(z2, z4, [(2,)]) is None
    assert hom_images(z2, z4, [(2,)])[1] == 2
    assert hom_violation(z2, z4, [(1,)]) is not None


def test_hom_count_is_gcd_per_generator():
    z6 = FiniteAbelianGroup([6])
    z4 = FiniteAbelianGroup([4])
    valid = [
        img
        for img in range(4)
        if hom_violation(z6, z4, [(img,)]) is None
    ]
    # images of an order-6 generator must be killed by 6 in Z_4: gcd(6,4)=2
    assert valid == [0, 2]


def test_hom_compose_and_same_map():
    z2 = FiniteAbelianGroup([2])
    z4 = FiniteAbelianGroup([4])
    z8 = FiniteAbelianGroup([8])
    f = hom_images(z2, z4, [(2,)])
    g = hom_images(z4, z8, [(2,)])
    composite = tuple(g[y] for y in f)
    assert composite[1] == 4
    assert composite == hom_images(z2, z8, [(4,)])
    assert composite != hom_images(z2, z8, [(0,)])


def test_build_rejects_invalid_hom():
    skel = chain(1)
    # top block Z_4 maps onto bottom Z_2: 4 * 1 = 0 mod 2, fine
    ok = build_clifford(
        skel,
        [FiniteAbelianGroup([2]), FiniteAbelianGroup([4])],
        {(1, 0): [(1,)]},
    )
    assert isinstance(ok, CliffordSemigroup)
    # top Z_2 into bottom Z_4 sending the generator to 1: 2 * 1 != 0 mod 4
    bad = build_clifford(
        skel,
        [FiniteAbelianGroup([4]), FiniteAbelianGroup([2])],
        {(1, 0): [(1,)]},
    )
    assert not isinstance(bad, CliffordSemigroup)
    assert bad.violations[0].axiom == "hom_invalid"
    assert bad.violations[0].witness[:2] == (1, 0)


def test_build_rejects_misdirected_hom_pair():
    skel = chain(1)
    z2 = FiniteAbelianGroup([2])
    bad = build_clifford(skel, [z2, z2], {(0, 1): [(0,)]})
    assert not isinstance(bad, CliffordSemigroup)
    assert bad.violations[0].axiom == "hom_pair"


def test_build_rejects_nontransitive_homs():
    skel = chain(2)
    z2 = FiniteAbelianGroup([2])
    homs = {
        (2, 1): [(1,)],
        (1, 0): [(0,)],
        (2, 0): [(1,)],  # disagrees with the two-step route, which kills
    }
    report = build_clifford(skel, [z2, z2, z2], homs)
    assert not isinstance(report, CliffordSemigroup)
    v = report.violations[0]
    assert v.axiom == "hom_transitive"
    assert v.witness == (2, 1, 0)


def test_omitted_homs_build_no_connecting_hom(monkeypatch):
    # an omitted pair is the zero map by absence: build_clifford computes
    # one image tuple per given pair, none for the 45150 omitted ones here
    built = []
    real = clifford_mod.hom_images

    def counted(source, target, gen_images):
        built.append(gen_images)
        return real(source, target, gen_images)

    monkeypatch.setattr(clifford_mod, "hom_images", counted)
    groups = [FiniteAbelianGroup([1])] * 301
    assert isinstance(build_clifford(chain(300), groups, {}), CliffordSemigroup)
    assert built == []
    homs = {(7, 2): [(0,)], (300, 0): [(0,)]}
    assert isinstance(build_clifford(chain(300), groups, homs), CliffordSemigroup)
    assert built == list(homs.values())


def test_a_semigroup_without_homs_holds_nothing_per_pair():
    # chain(510) has 130 305 strict pairs: with no hom given, the semigroup
    # holds no map, and every push off the diagonal is its block's zero map
    g = build_clifford(chain(509), [FiniteAbelianGroup([1])] * 510, {})
    assert isinstance(g, CliffordSemigroup)
    assert g.homs == {}
    sizes = [len(v) for v in vars(g).values() if isinstance(v, (tuple, list, dict))]
    assert max(sizes) == g.n == 510
    assert g.push(509, 0) == (0,) and g.push(7, 7) == range(1)


def test_a_reject_composes_only_the_triples_that_touch_a_given_pair(monkeypatch):
    # Z2 chains of n + 1 blocks with one bad cover triple, (2, 1, 0): the
    # reject lists every failing triple, but composes only the 2n - 3 that
    # touch (2, 1) or (1, 0), and the cover walk before it one, not the
    # n^3 / 6 triples of the chain
    pushes = []
    real = CliffordSemigroup.push

    def push(self, e, f):
        pushes.append((e, f))
        return real(self, e, f)

    monkeypatch.setattr(CliffordSemigroup, "push", push)
    homs = {(2, 1): [(1,)], (1, 0): [(1,)]}
    for n in (20, 40):
        pushes.clear()
        report = build_clifford(chain(n), [FiniteAbelianGroup([2])] * (n + 1), homs)
        assert [(v.axiom, v.witness) for v in report.violations] == [
            ("hom_transitive", (2, 1, 0))]
        assert len(pushes) == 3 * (2 * n - 2)


# systems of non-trivial Z2 maps over chain(2) that omit pairs, with the
# transitivity witnesses each must be rejected with: an omitted pair is the
# zero map, so a triple touched at (r, t) alone can fail too
PARTIAL_Z2_CHAINS = [
    ({(2, 0): [(1,)]}, [(2, 1, 0)]),
    ({(2, 1): [(1,)], (1, 0): [(1,)]}, [(2, 1, 0)]),
    ({(2, 1): [(1,)]}, []),
]
PARTIAL_Z2_CHAIN_IDS = ["only (2, 0)", "(2, 1) and (1, 0)", "only (2, 1)"]


@pytest.mark.parametrize("homs, witnesses", PARTIAL_Z2_CHAINS, ids=PARTIAL_Z2_CHAIN_IDS)
def test_omitted_pairs_are_zero_maps_to_the_transitivity_check(homs, witnesses):
    built = build_clifford(chain(2), [FiniteAbelianGroup([2])] * 3, homs)
    if witnesses:
        assert [(v.axiom, v.witness) for v in built.violations] == [
            ("hom_transitive", w) for w in witnesses]
    else:
        assert isinstance(built, CliffordSemigroup)


def test_transitivity_compares_reduced_generator_images():
    # 5, 9 and -7 are all 1 in Z_4, and so is 3 * 3: in every system
    # phi_{2,0} is phi_{1,0} after phi_{2,1}, however its digits are written
    z4 = FiniteAbelianGroup([4])
    for homs in (
        {(2, 1): [(5,)], (1, 0): [(1,)], (2, 0): [(1,)]},
        {(2, 1): [(1,)], (1, 0): [(1,)], (2, 0): [(5,)]},
        {(2, 1): [(3,)], (1, 0): [(3,)], (2, 0): [(-7,)]},
        {(2, 1): [(9,)], (1, 0): [(5,)], (2, 0): [(-7,)]},
    ):
        assert isinstance(build_clifford(chain(2), [z4] * 3, homs), CliffordSemigroup)
    report = build_clifford(chain(2), [z4] * 3, {(2, 1): [(5,)], (1, 0): [(1,)], (2, 0): [(2,)]})
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("hom_transitive", (2, 1, 0))]


def test_acceptance_never_walks_the_full_associativity_scan(monkeypatch):
    # the scan only names a witness; no accepted table may reach it
    def refuse(rows):
        raise AssertionError("full associativity scan on an accepted table")

    monkeypatch.setattr(semilattice_mod, "_first_nonassociative", refuse)
    report = gap_search()
    assert report.ok and report.instance_count == 332
    assert isinstance(validate(power_set(6).table), Semilattice)


def test_trivial_groups_reproduce_the_skeleton():
    six = make_six()
    cs = build_clifford(six, [FiniteAbelianGroup([1])] * 6, {})
    assert cs.n == 6
    assert cs.table == six.table
    d = diagonal_solve(cs)
    assert d == diagonal_recursive(six)


def test_two_chain_with_sign_group_golden():
    skel = chain(1)
    cs = build_clifford(skel, [FiniteAbelianGroup([1]), FiniteAbelianGroup([2])], {})
    assert cs.table == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    d = diagonal_solve(cs)
    assert d == DiagonalTensor(cs, ((4, -1, -1), (-1, 1, 0), (-1, 0, 1)), den=2)
    assert d.am() == 5


def test_single_group_block_diagonal():
    # one idempotent: the plain group algebra; d(g,h) = 1/n when gh = e
    for n in [2, 3, 5]:
        cs = build_clifford(chain(0), [FiniteAbelianGroup([n])], {})
        d = diagonal_solve(cs)
        expect = [[int(cs.table[g][h] == 0) for h in range(n)] for g in range(n)]
        assert d == DiagonalTensor(cs, expect, den=n)
        assert d.am() == 1


def test_seven_element_golden():
    cs = make_g(2)
    assert cs.n == 7
    assert cs.labels == ("o", "s1", "s2", "e[s3]", "s3[1]", "s4", "1")
    d = diagonal_solve(cs)
    assert d == DiagonalTensor(cs, G2_MATRIX)
    assert d.am() == 43
    u = unit_solve(cs)
    assert u == (0, 0, 0, 0, 0, 0, 1)
    assert cs.unit == u


def test_collapse_recovers_skeleton_diagonal():
    skel_d = diagonal_recursive(make_six())
    for n in range(2, 5):
        d = diagonal_solve(make_g(n))
        assert collapse(d) == skel_d


def test_collapse_rejects_plain_semilattices():
    with pytest.raises(TypeError):
        collapse(diagonal_recursive(make_six()))


def test_am_family_closed_form():
    for n in range(2, 7):
        assert diagonal_solve(make_g(n)).am() == 41 + Fraction(4 * (n - 1), n)


def test_unit_acts_as_identity():
    cs = make_g(3)
    u = unit_solve(cs)
    for x in range(cs.n):
        conv = [Fraction(0)] * cs.n
        for s, c in enumerate(u):
            if c:
                conv[cs.table[s][x]] += c
        expect = [Fraction(0)] * cs.n
        expect[x] = Fraction(1)
        assert conv == expect


def test_nontrivial_hom_changes_products():
    # chain o < t, Z_2 at both, identity connecting hom: top products land
    # on shifted bottom elements
    z2 = FiniteAbelianGroup([2])
    cs = build_clifford(chain(1), [z2, z2], {(1, 0): [(1,)]})
    assert isinstance(cs, CliffordSemigroup)
    # ids: 0 = e[o], 1 = o[1], 2 = e[t], 3 = t[1]
    assert cs.table[3][0] == 1
    assert cs.table[3][1] == 0
    assert cs.table[3][3] == 2
    d = diagonal_solve(cs)
    ok, witness = verify_diagonal(d, unit_solve(cs))
    assert ok, witness
    assert d.am() == 5


def test_seeded_instances_verify_and_dominate_skeleton():
    rng = random.Random(91)
    z_choices = [[1], [2], [3], [2, 2]]
    skeletons = [chain(1), chain(2), from_hasse(3, [(0, 1), (0, 2)])]
    for _ in range(12):
        skel = rng.choice(skeletons)
        groups = [FiniteAbelianGroup(rng.choice(z_choices)) for _ in range(skel.n)]
        cs = build_clifford(skel, groups, {})
        assert isinstance(cs, CliffordSemigroup)
        t = cs.table
        for x in range(cs.n):
            for y in range(cs.n):
                assert t[x][y] == t[y][x]
                for z in range(cs.n):
                    assert t[t[x][y]][z] == t[x][t[y][z]]
        d = diagonal_solve(cs)
        ok, witness = verify_diagonal(d, unit_solve(cs))
        assert ok, witness
        skel_d = diagonal_recursive(skel)
        assert collapse(d) == skel_d
        assert d.am() >= skel_d.am()


class StubSemigroup:
    """Duck-typed stand-in for feeding raw tables to the solvers."""

    def __init__(self, table):
        self.table = tuple(tuple(r) for r in table)
        self.n = len(table)
        self.canonical_perm = tuple(range(self.n))

    def mul(self, a, b):
        return self.table[a][b]


def test_unit_solve_failure_is_loud():
    # everything collapses to one point: no unit can exist
    with pytest.raises(NotUnitalError):
        unit_solve(StubSemigroup([[0, 0], [0, 0]]))


def test_diagonal_solve_failure_is_loud():
    # unital commutative monoid where the non-identity element squares to
    # the zero element: no inverses, so no diagonal exists
    table = ((0, 0, 0), (0, 1, 2), (0, 2, 0))
    stub = StubSemigroup(table)
    assert unit_solve(stub) == (0, 1, 0)
    with pytest.raises(DiagonalSolveError):
        diagonal_solve(stub)


def test_from_json_dict_roundtrip():
    payload = {
        "skeleton": {"table": [list(r) for r in make_six().table]},
        "groups": [{"cyclic": [1]}, {"cyclic": [1]}, {"cyclic": [1]},
                   {"cyclic": [2]}, {"cyclic": [1]}, {"cyclic": [1]}],
        "homs": [],
    }
    cs = from_json_dict(payload)
    assert isinstance(cs, CliffordSemigroup)
    assert cs.n == 7
    assert diagonal_solve(cs).am() == 43


def test_from_json_dict_reports_errors():
    bad = from_json_dict({"skeleton": {"table": [[0]]}, "groups": []})
    assert not isinstance(bad, CliffordSemigroup)
    assert bad.violations[0].axiom == "groups"
    bad = from_json_dict(
        {"skeleton": {"table": [[0]]}, "groups": [{"cyclic": [0]}]}
    )
    assert bad.violations[0].axiom == "group"
    bad = from_json_dict(
        {
            "skeleton": {"table": [[0, 0], [0, 1]]},
            "groups": [{"cyclic": [2]}, {"cyclic": [2]}],
            "homs": [{"from": "x", "to": 0, "gen_images": [[0]]}],
        }
    )
    assert bad.violations[0].axiom == "hom_entry"
    bad = from_json_dict({"groups": []})
    assert bad.violations[0].axiom == "input"


def test_labels_and_blocks():
    cs = make_g(2)
    assert cs.block_of[4] == 3
    assert cs.member_of[4] == 1
    assert [x for x in range(cs.n) if cs.block_of[x] == 3] == [3, 4]
    assert cs.offset[3] == 3
    assert cs.offset[4] == 5


TABLE_ORDERS = [(2,), (6,), (2, 2), (2, 4), (3, 3)]


@pytest.mark.parametrize("orders", TABLE_ORDERS, ids=str)
def test_group_tables_are_digitwise_modular_arithmetic(orders):
    group = FiniteAbelianGroup(orders)
    sums, inverses = group.sum_table(0), group.inverses
    assert group.order == len(sums) == len(inverses)
    for x in range(group.order):
        a = group.element(x)
        assert digits_index(group, a) == x
        assert group.element(inverses[x]) == tuple(
            -d % k for d, k in zip(a, orders))
        assert len(sums[x]) == group.order
        for y in range(group.order):
            b = group.element(y)
            assert group.element(sums[x][y]) == tuple(
                (d + e) % k for d, e, k in zip(a, b, orders))


def test_hom_images_follow_the_digit_formula():
    # x = sum of d_i g_i maps to sum of d_i * gen_images[i], digit-wise
    rng = random.Random(5)
    groups = [FiniteAbelianGroup(orders) for orders in TABLE_ORDERS]
    for source in groups:
        for target in groups:
            choices = hom_choices(source, target)
            for imgs in rng.sample(choices, min(4, len(choices))):
                assert hom_violation(source, target, imgs) is None
                expected = []
                for x in range(source.order):
                    out = [0] * len(target.cyclic_orders)
                    for d, img in zip(source.element(x), imgs):
                        out = [o + d * v for o, v in zip(out, img)]
                    expected.append(digits_index(target, out))
                assert hom_images(source, target, imgs) == tuple(expected)


# Z1 and order-1 factors included: the generator of Z1 has index 0
ROUND_TRIP_ORDERS = [(1,), (2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (1, 2), (2, 1, 3)]


def test_generator_images_reads_back_every_listed_hom():
    # gap-search prints generator images only for a violation, which the
    # default family never has: no output pin covers generator_images
    groups = [FiniteAbelianGroup(orders) for orders in ROUND_TRIP_ORDERS]
    checked = 0
    for source in groups:
        for target in groups:
            for imgs in hom_choices(source, target):
                images = hom_images(source, target, imgs)
                assert generator_images(source, target, images) == imgs
                checked += 1
    assert checked == 380


def reference_intransitive(skeleton, groups, homs):
    """Every (r, s, t) with phi_{r,t} != phi_{s,t} phi_{r,s}, one triple at
    a time, composing the image tuples element by element."""
    full = {}
    for s in range(skeleton.n):
        for t in skeleton.strictly_below[s]:
            zeros = [[0] * len(groups[t].cyclic_orders)] * len(groups[s].cyclic_orders)
            full[(s, t)] = hom_images(groups[s], groups[t], homs.get((s, t)) or zeros)
    return [(r, s, t)
            for r in range(skeleton.n)
            for s in skeleton.strictly_below[r]
            for t in skeleton.strictly_below[s]
            if tuple(full[(s, t)][y] for y in full[(r, s)]) != full[(r, t)]]


def test_transitivity_violations_match_the_full_walk():
    rng = random.Random(12)
    skeletons = [chain(3), flat_with_top(2), from_hasse(4, [(0, 1), (0, 2), (1, 3)])]
    rejected = 0
    for _ in range(60):
        skel = rng.choice(skeletons)
        groups = [FiniteAbelianGroup(rng.choice([[2], [4], [2, 2]])) for _ in range(skel.n)]
        homs = {}
        for s in range(skel.n):
            for t in skel.strictly_below[s]:
                if rng.random() < 0.6:
                    homs[(s, t)] = rng.choice(hom_choices(groups[s], groups[t]))
        expected = reference_intransitive(skel, groups, homs)
        built = build_clifford(skel, groups, homs)
        if expected:
            rejected += 1
            assert not isinstance(built, CliffordSemigroup)
            assert [(v.axiom, v.witness) for v in built.violations] == [
                ("hom_transitive", w) for w in expected]
        else:
            assert isinstance(built, CliffordSemigroup)
    assert 10 < rejected < 60


def test_hom_systems_are_exactly_the_assignments_build_clifford_accepts():
    # every hom_choices tuple on every strict pair, over every skeleton of
    # size 2 to 4 with seeded blocks: hom_systems must list each accepted
    # assignment once, and nothing else
    rng = random.Random(1)
    blocks = [[1], [2], [3], [4], [2, 2]]
    configurations = assignments = rejected = 0
    for size in range(2, 5):
        for skeleton in enumerate_semilattices(size):
            for _ in range(6):
                groups = [FiniteAbelianGroup(rng.choice(blocks)) for _ in range(size)]
                pairs = [(s, t) for s in range(size) for t in skeleton.strictly_below[s]]
                choices = [hom_choices(groups[s], groups[t]) for s, t in pairs]
                total = prod(map(len, choices))
                if total > 4000:
                    continue
                accepted = {combo for combo in product(*choices) if isinstance(
                    build_clifford(skeleton, groups, dict(zip(pairs, combo))),
                    CliffordSemigroup)}
                listed = [tuple(generator_images(groups[s], groups[t], homs[(s, t)])
                                for s, t in pairs)
                          for homs in hom_systems(skeleton, groups)]
                assert len(set(listed)) == len(listed)
                assert set(listed) == accepted
                configurations += 1
                assignments += total
                rejected += total - len(accepted)
    assert (configurations, assignments, rejected) == (45, 2722, 2216)


class GroupBuilt(Exception):
    pass


def forbid_group_construction(monkeypatch):
    def refuse(self, cyclic_orders):
        raise GroupBuilt(cyclic_orders)

    monkeypatch.setattr(clifford_mod.FiniteAbelianGroup, "__init__", refuse)


def test_size_bound_rejects_before_any_group_is_built(monkeypatch):
    forbid_group_construction(monkeypatch)
    report = from_json_dict(
        {"skeleton": {"table": [[0]]}, "groups": [{"cyclic": [10 ** 9]}]})
    assert not isinstance(report, CliffordSemigroup)
    assert [(v.axiom, v.witness) for v in report.violations] == [("size", (0,))]
    # the count sums over blocks; the witness is the block that passes the
    # bound, and counting stops there
    two = {"n": 2, "hasse": [[0, 1]]}
    half = MAX_ELEMENTS // 2
    report = from_json_dict(
        {"skeleton": two, "groups": [{"cyclic": [half]}, {"cyclic": [half + 1]}]})
    assert report.violations[0].witness == (1,)
    report = from_json_dict({"skeleton": two, "groups": [[1], [2] * 100000]})
    assert report.violations[0].witness == (1,)
    # a factor of 4300 digits after another block: the witness still prints
    report = from_json_dict(
        {"skeleton": two, "groups": [[2], [int("9" * 4300)]]})
    assert json.dumps(report.to_json_dict()) == (
        '{"ok": false, "violations": [{"axiom": "size", "witness": [1]}]}')
    # exactly at the bound the input goes on to build its groups
    with pytest.raises(GroupBuilt):
        from_json_dict({"skeleton": two, "groups": [[half], [MAX_ELEMENTS - half]]})


def test_building_a_clifford_semigroup_leaves_its_skeleton_as_it_was():
    # the skeleton keeps its own Moebius table and unit; units, blocks and
    # homs belong to the semigroups built over it
    skeleton = make_six()
    before = dict(vars(skeleton))
    groups = [FiniteAbelianGroup([k]) for k in (2, 1, 3, 2, 1, 4)]
    g = build_clifford(skeleton, groups)
    clifford_mod.unit_and_diagonal(g)
    assert skeleton._mobius is not None and skeleton._unit is not None
    after = dict(vars(skeleton))
    for cached in ("_mobius", "_unit"):
        del before[cached], after[cached]
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
