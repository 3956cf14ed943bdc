import random

import pytest

from conftest import SIX_COVERS, SIX_LABELS, make_broom, make_six, make_tree
from oracles import are_isomorphic, relabel
from semiam.enumeration import enumerate_semilattices
from semiam.semilattice import (
    MAX_HASSE,
    MAX_PRODUCT,
    Semilattice,
    ValidationReport,
    _first_nonassociative,
    _invariant,
    _meets_down_sets,
    chain,
    check_table,
    flat,
    flat_with_top,
    from_hasse,
    from_json_dict,
    power_set,
    product,
    validate,
)

# frozen from the cover relation: meets computed by hand on the diagram
SIX_TABLE = (
    (0, 0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 2, 2, 0, 2),
    (0, 1, 2, 3, 0, 3),
    (0, 0, 0, 0, 4, 4),
    (0, 1, 2, 3, 4, 5),
)


def test_validate_accepts_chain_table():
    s = validate([[0, 0], [0, 1]])
    assert isinstance(s, Semilattice)
    assert s.minimum == 0


def test_validate_idempotency_witness():
    report = validate([[1, 0], [0, 1]])
    assert isinstance(report, ValidationReport)
    assert not report.ok
    assert report.violations[0].axiom == "idempotent"
    assert report.violations[0].witness == (0,)


def test_validate_commutativity_witness():
    report = validate([[0, 0, 0], [1, 1, 1], [0, 1, 2]])
    assert isinstance(report, ValidationReport)
    assert any(
        v.axiom == "commutative" and v.witness == (0, 1) for v in report.violations
    )


def test_validate_associativity_witness():
    # idempotent and commutative, but (0*0)*2 = 1 while 0*(0*2) = 0
    report = validate([[0, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert isinstance(report, ValidationReport)
    assert report.violations[0].axiom == "associative"
    assert report.violations[0].witness == (0, 0, 2)


def test_validate_range_and_shape():
    report = validate([[0, 3], [3, 1]])
    assert not report.ok and report.violations[0].axiom == "range"
    report = validate([[0, 0], [0]])
    assert not report.ok and report.violations[0].axiom == "shape"
    report = validate([])
    assert not report.ok


def test_check_table_matches_validate():
    assert check_table([[0, 0], [0, 1]]).ok
    assert not check_table([[1, 0], [0, 1]]).ok


def reference_first_nonassociative(table):
    """The reference: the cell-by-cell scan check_table used to run."""
    n = len(table)
    for s in range(n):
        for t in range(n):
            st = table[s][t]
            for r in range(n):
                if table[st][r] != table[s][table[t][r]]:
                    return (s, t, r)
    return None


def reference_check_table(table):
    """check_table as it was before the scans compared whole rows, with
    violations as (axiom, witness) pairs."""
    n = len(table)
    if n == 0:
        return False, [("shape", ())]
    violations = [("shape", (i,)) for i, row in enumerate(table) if len(row) != n]
    if violations:
        return False, violations
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                violations.append(("range", (i, j)))
    if violations:
        return False, violations
    for s in range(n):
        if table[s][s] != s:
            violations.append(("idempotent", (s,)))
    for s in range(n):
        for t in range(s + 1, n):
            if table[s][t] != table[t][s]:
                violations.append(("commutative", (s, t)))
    if violations:
        return False, violations
    witness = reference_first_nonassociative(table)
    if witness is not None:
        violations.append(("associative", witness))
    return not violations, violations


def random_family_table(rng, n):
    """Meet table of a random intersection-closed family of n bitmasks."""
    ground = max(2, n.bit_length() + 1)
    family = {0}
    while len(family) < n:
        mask = rng.getrandbits(ground)
        grown = family | {mask} | {mask & m for m in family}
        if len(grown) <= n:
            family = grown
    masks = sorted(family)
    index = {m: i for i, m in enumerate(masks)}
    return [[index[a & b] for b in masks] for a in masks]


def test_check_table_matches_the_cell_by_cell_reference():
    rng = random.Random(2024)
    rejects = 0
    for _ in range(3000):
        n = rng.randint(1, 12)
        table = random_family_table(rng, n)
        for _ in range(rng.randint(1, 2) if n > 1 else 0):
            s, t = rng.sample(range(n), 2)
            table[s][t] = table[t][s] = rng.randrange(n)
        expected = reference_check_table(table)
        report = check_table(table)
        assert (report.ok, [(v.axiom, v.witness) for v in report.violations]) == expected
        rejects += any(axiom == "associative" for axiom, _ in expected[1])
    assert rejects > 1000


def test_down_set_acceptance_agrees_with_the_associativity_scan():
    # check_table accepts on down-set bitmasks and walks
    # _first_nonassociative only to name a witness, so the two must agree
    # on every commutative idempotent magma
    rng = random.Random(11)
    accepted = 0
    for _ in range(20000):
        n = rng.randint(1, 5)
        table = [[0] * n for _ in range(n)]
        for s in range(n):
            table[s][s] = s
            for t in range(s + 1, n):
                table[s][t] = table[t][s] = rng.randrange(n)
        witness = _first_nonassociative(table)
        assert _meets_down_sets(table) == (witness is None)
        report = check_table(table)
        assert report.ok == (witness is None)
        if witness is not None:
            assert [(v.axiom, v.witness) for v in report.violations] == [
                ("associative", witness)]
        accepted += report.ok
    assert 5000 < accepted < 15000


def test_first_nonassociative_names_the_first_witness():
    # one element: the scalar that itemgetter gives for one index
    assert _first_nonassociative([[0]]) is None
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1
    two = [[1, 0], [0, 0]]
    assert _first_nonassociative(two) == reference_first_nonassociative(two) == (0, 0, 1)
    # x*y = 1 - x: (x*y)*z = x but x*(y*z) = 1 - x, for every triple
    assert _first_nonassociative([[1, 1], [0, 0]]) == (0, 0, 0)
    # left zero, x*y = x: associative without being commutative
    assert _first_nonassociative([[s] * 12 for s in range(12)]) is None
    twelve = [list(row) for row in chain(11).table]
    assert _first_nonassociative(twelve) is None
    rng = random.Random(12)
    found = 0
    for _ in range(200):
        table = [list(row) for row in twelve]
        table[rng.randrange(12)][rng.randrange(12)] = rng.randrange(12)
        witness = reference_first_nonassociative(table)
        assert _first_nonassociative(table) == witness
        assert _first_nonassociative(tuple(map(tuple, table))) == witness
        found += witness is not None
    assert found > 100


def test_chain_structure():
    s = chain(3)
    assert s.n == 4
    assert s.minimum == 0
    assert s.top() == 3
    assert s.level == (0, 1, 2, 3)
    assert s.hasse == ((0, 1), (1, 2), (2, 3))
    assert s.canonical_perm == (0, 1, 2, 3)
    assert s.ideal_chain == (
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2}),
        frozenset({0, 1}),
        frozenset({0}),
    )


def test_flat_structure():
    s = flat(3)
    assert s.n == 4
    assert s.minimum == 0
    assert s.top() is None
    assert s.level == (0, 1, 1, 1)
    assert [x for x in range(s.n) if not s.strictly_above[x]] == [1, 2, 3]


def test_flat_with_top_structure():
    s = flat_with_top(2)
    assert s.n == 4
    assert s.top() == 3
    assert s.level == (0, 1, 1, 2)
    assert s.table == ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))


def test_power_set_structure():
    s = power_set(3)
    assert s.n == 8
    assert s.minimum == 0
    assert s.top() == 7
    assert s.level == (0, 1, 1, 2, 1, 2, 2, 3)
    # meets really are intersections
    assert s.table[0b011][0b110] == 0b010


def test_six_element_lattice(six):
    assert six.table == SIX_TABLE
    assert six.level == (0, 1, 1, 2, 2, 3)
    assert six.canonical_perm == (0, 1, 2, 3, 4, 5)
    assert six.minimum == 0
    assert six.top() == 5
    assert six.ideal_chain == (
        frozenset(range(6)),
        frozenset({0, 1, 2, 3, 4}),
        frozenset({0, 1, 2}),
        frozenset({0}),
    )
    assert six.hasse == tuple(sorted(SIX_COVERS))
    # the load-bearing fact: s3 and s4 meet at the bottom
    assert six.table[3][4] == 0


def test_from_hasse_rejects_double_bottom_diamond():
    # 0,1 < 2 and 0,1 < 3: the two bottoms have no common lower bound, and
    # the pair (2,3) has two maximal ones; the scan hits (0,1) first
    report = from_hasse(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert isinstance(report, ValidationReport)
    assert report.violations[0].axiom == "meet"
    assert report.violations[0].witness == (0, 1)
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("meet", (0, 1)), ("meet", (2, 3))
    ]
    # adjoin a bottom: now only (2,3) stays meetless
    report = from_hasse(
        5, [(4, 0), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    )
    assert isinstance(report, ValidationReport)
    assert report.violations[0].axiom == "meet"
    assert report.violations[0].witness == (2, 3)


def test_from_hasse_names_one_partner_per_element():
    # every pair of an antichain lacks a meet, and every pair of a cycle
    # lies on it: each element names only its first failing partner, so
    # the report grows with n, not n^2
    antichain = from_hasse(200, [])
    cycle = from_hasse(300, [(i, (i + 1) % 300) for i in range(300)])
    for report, axiom, n in ((antichain, "meet", 200), (cycle, "cycle", 300)):
        assert isinstance(report, ValidationReport)
        assert [(v.axiom, v.witness) for v in report.violations] == [
            (axiom, (s, s + 1)) for s in range(n - 1)]


def test_from_hasse_size_bound():
    # at the bound an antichain is judged as any other input: every element
    # names its first meetless partner
    report = from_hasse(MAX_HASSE, [])
    assert MAX_HASSE == 4096
    assert isinstance(report, ValidationReport)
    assert len(report.violations) == 4095
    assert report.violations[-1] == ("meet", (4094, 4095))
    # one element past it is refused before any mask is built, edges unread
    for n in (MAX_HASSE + 1, 10 ** 9):
        report = from_hasse(n, [(0, n + 5)])
        assert [(v.axiom, v.witness) for v in report.violations] == [("size", (n,))]
    report = from_json_dict({"n": 4097, "hasse": [[0, 1]]})
    assert [(v.axiom, v.witness) for v in report.violations] == [("size", (4097,))]


def test_from_hasse_builds_a_long_chain():
    s = from_hasse(150, [(i, i + 1) for i in range(149)])
    assert isinstance(s, Semilattice)
    assert s.table == chain(149).table


def reference_order_meets(n, covers):
    """The meet table of the order that the covers generate, by brute force,
    or None when the order has a cycle or some pair has no greatest lower
    bound."""
    below = [[s == t for t in range(n)] for s in range(n)]
    for s, t in covers:
        below[s][t] = True
    for k in range(n):
        for s in range(n):
            for t in range(n):
                below[s][t] = below[s][t] or (below[s][k] and below[k][t])
    if any(below[s][t] and below[t][s] for s in range(n) for t in range(s)):
        return None
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if below[c][a] and below[c][b]]
            greatest = [c for c in lower if all(below[d][c] for d in lower)]
            if len(greatest) != 1:
                return None
            table[a][b] = greatest[0]
    return table


def test_from_hasse_matches_check_table_on_random_families():
    # from_hasse builds its table without running check_table; check_table
    # judges every table it accepts
    rng = random.Random(808)
    accepted = rejected = 0
    for _ in range(300):
        n = rng.randint(1, 16)
        table = random_family_table(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        shuffled = [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
        covers = [(s, t) for s in range(n) for t in range(n)
                  if s != t and shuffled[s][t] == s and not any(
                      r not in (s, t) and shuffled[s][r] == s and shuffled[r][t] == r
                      for r in range(n))]
        rng.shuffle(covers)
        s = from_hasse(n, covers)
        assert isinstance(s, Semilattice)
        assert check_table(s.table).ok
        assert s == validate(shuffled)
        if n < 2:
            continue
        # drop a cover or add an edge: the order may lose a meet or close a
        # cycle, and from_hasse must reject exactly those
        mutated = list(covers)
        if mutated and rng.random() < 0.5:
            mutated.pop(rng.randrange(len(mutated)))
        else:
            mutated.append(tuple(rng.sample(range(n), 2)))
        expected = reference_order_meets(n, mutated)
        result = from_hasse(n, mutated)
        if expected is None:
            assert isinstance(result, ValidationReport) and not result.ok
            rejected += 1
        else:
            assert isinstance(result, Semilattice)
            assert check_table(result.table).ok
            assert result.table == tuple(map(tuple, expected))
            accepted += 1
    assert accepted > 50 and rejected > 50


def test_from_hasse_rejects_antichain_and_cycle():
    report = from_hasse(2, [])
    assert not report.ok and report.violations[0].axiom == "meet"
    report = from_hasse(2, [(0, 1), (1, 0)])
    assert not report.ok and report.violations[0].axiom == "cycle"
    report = from_hasse(2, [(0, 5)])
    assert not report.ok and report.violations[0].axiom == "edge"


def test_canonical_prefixes_are_down_closed():
    rng = random.Random(3)
    six = make_six()
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        s = relabel(six, perm)
        levels = [s.level[x] for x in s.canonical_perm]
        assert levels == sorted(levels)
        for k in range(1, s.n + 1):
            prefix = set(s.canonical_perm[:k])
            for x in prefix:
                assert all(y in prefix for y in s.strictly_below[x])


def reference_order_data(table) -> dict:
    """The order data of a meet table, read off its definitions: s <= t iff
    st = s, so down[x] and up[s] are the bitmasks of the r with rx = r and
    of the t with st = s; t covers s iff s < t with nothing strictly between; the depth of
    s is the length of the longest chain from s up to a maximal element, so
    stripping the maximal elements k times leaves the s of depth >= k, and
    the level of s is the height minus its depth."""
    n = len(table)
    above = [tuple(t for t in range(n) if t != s and table[s][t] == s) for s in range(n)]
    below = [tuple(t for t in range(n) if t != s and table[s][t] == t) for s in range(n)]
    depth = {}

    def depth_of(s):
        if s not in depth:
            depth[s] = max((1 + depth_of(t) for t in above[s]), default=0)
        return depth[s]

    height = max(map(depth_of, range(n)))
    level = tuple(height - depth_of(s) for s in range(n))
    return {
        "down": tuple(sum(1 << r for r in range(n) if table[r][x] == r) for x in range(n)),
        "up": tuple(sum(1 << t for t in range(n) if table[s][t] == s) for s in range(n)),
        "strictly_above": tuple(above),
        "strictly_below": tuple(below),
        "hasse": tuple((s, t) for s in range(n) for t in above[s]
                       if not any(r in above[s] for r in below[t])),
        "level": level,
        "ideal_chain": tuple(frozenset(s for s in range(n) if depth_of(s) >= k)
                             for k in range(height + 1)),
        "canonical_perm": tuple(sorted(range(n), key=lambda s: (level[s], s))),
        "minimum": next(m for m in range(n) if all(table[m][t] == m for t in range(n))),
        "top": next((t for t in range(n) if all(table[t][s] == s for s in range(n))), None),
    }


def test_order_data_matches_its_definitions():
    # every class up to n = 6 under seeded relabelings, and seeded
    # intersection-closed families up to N = 64
    rng = random.Random(31)
    cases = []
    for size in range(1, 7):
        for s in enumerate_semilattices(size):
            for _ in range(3):
                perm = list(range(size))
                rng.shuffle(perm)
                cases.append(relabel(s, perm))
    assert len(cases) == 3 * 77
    for n in range(7, 65):
        cases.append(Semilattice(random_family_table(rng, n)))
    for s in cases:
        expected = reference_order_data(s.table)
        top = expected.pop("top")
        assert {key: getattr(s, key) for key in expected} == expected
        assert s.top() == top
        assert s.height == len(s.ideal_chain) - 1
        # the invariant that fixes the canonical form: level, down-set and
        # up-set sizes, lower and upper cover counts, levels of the down-set
        level, covers, n = expected["level"], expected["hasse"], s.n
        assert [_invariant(s, x) for x in range(n)] == [
            (level[x], sum(s.table[r][x] == r for r in range(n)),
             sum(s.table[x][t] == x for t in range(n)),
             sum(b == x for _, b in covers), sum(a == x for a, _ in covers),
             tuple(sorted(level[r] for r in range(n) if s.table[r][x] == r)))
            for x in range(n)]


def test_order_data_at_scale_matches_closed_forms():
    # a 301-element chain given as 300 covers, and power_set(8): t covers s
    # iff t = s + 1, or iff t is s with one more bit; the level of s is s,
    # or its popcount; above s lie 300 - s elements, or 2^(8 - |s|) - 1
    chain_covers = tuple((x, x + 1) for x in range(300))
    cube_covers = tuple(sorted((x, x | 1 << k) for x in range(256) for k in range(8)
                               if not x >> k & 1))
    popcount = tuple(bin(x).count("1") for x in range(256))
    for s, covers, level, above in (
        (from_hasse(301, chain_covers), chain_covers, tuple(range(301)),
         tuple(300 - x for x in range(301))),
        (power_set(8), cube_covers, popcount,
         tuple(2 ** (8 - k) - 1 for k in popcount)),
    ):
        height = max(level)
        assert s.hasse == covers
        assert s.level == level
        assert s.ideal_chain == tuple(
            frozenset(x for x in range(s.n) if level[x] <= height - k)
            for k in range(height + 1))
        assert tuple(map(len, s.strictly_above)) == above


def maximal(s, subset) -> frozenset:
    """The elements of subset with nothing of subset strictly above."""
    subset = frozenset(subset)
    return frozenset(x for x in subset if subset.isdisjoint(s.strictly_above[x]))


def test_maximal_elements_of_subsets(six):
    assert maximal(six, range(six.n)) == frozenset({5})
    assert maximal(six, {0, 1, 2, 3, 4}) == frozenset({3, 4})
    assert maximal(six, {0, 1, 2}) == frozenset({1, 2})
    assert maximal(six, {0}) == frozenset({0})


def test_product_of_chains():
    p = product(chain(1), chain(2))
    assert p.n == 6
    # level of (i, j) is i + j; pairs in row-major order
    assert p.level == (0, 1, 2, 1, 2, 3)
    assert p.minimum == 0
    assert p.table[1 * 3 + 2][1 * 3 + 1] == 1 * 3 + 1
    assert check_table([list(r) for r in p.table]).ok


def test_product_size_bound():
    # (i, j) sits at i*32 + j, whose bits are i's above j's: power_set(10)
    p = product(power_set(5), power_set(5))
    assert p.n == MAX_PRODUCT == 1024
    assert p.table == power_set(10).table
    # one element past the bound, refused before any table is built
    report = product(chain(4), chain(204))
    assert isinstance(report, ValidationReport)
    assert [(v.axiom, v.witness) for v in report.violations] == [("size", (5, 205))]


def test_product_of_two_chains_is_diamond():
    p = product(chain(1), chain(1))
    iso, perm = are_isomorphic(p, power_set(2))
    assert iso
    assert perm is not None


def test_down_sets_six(six):
    down = six.down
    assert down == (0b1, 0b11, 0b101, 0b1111, 0b10001, 0b111111)
    # intersections of images are images of meets
    assert down[3] & down[4] == down[0]


def test_down_sets_injective_and_meet_compatible():
    for s in [chain(3), flat(3), flat_with_top(3), power_set(3), make_six()]:
        down = s.down
        assert len(set(down)) == s.n
        for a in range(s.n):
            for b in range(s.n):
                assert down[a] & down[b] == down[s.table[a][b]]


def test_are_isomorphic_relabelings(six):
    rng = random.Random(5)
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        other = relabel(six, perm)
        iso, found = are_isomorphic(six, other)
        assert iso
        for a in range(6):
            for b in range(6):
                assert found[six.table[a][b]] == other.table[found[a]][found[b]]


def test_are_isomorphic_distinguishes():
    assert are_isomorphic(chain(2), flat(2)) == (False, None)
    assert are_isomorphic(make_tree(), make_broom()) == (False, None)
    assert are_isomorphic(chain(1), chain(2)) == (False, None)


def test_relabel_roundtrip(six):
    perm = [5, 4, 3, 2, 1, 0]
    back = [perm.index(i) for i in range(6)]
    assert relabel(relabel(six, perm), back).table == six.table


def test_labels_must_be_distinct():
    with pytest.raises(ValueError):
        Semilattice([[0, 0], [0, 1]], labels=["x", "x"])
    # distinct as given, but both print as "1"
    with pytest.raises(ValueError):
        Semilattice([[0, 0], [0, 1]], labels=[1, "1"])
    with pytest.raises(ValueError):
        from_hasse(2, [(0, 1)], labels=[1, "1"])


def test_from_json_dict_table_and_hasse():
    s = from_json_dict({"table": [[0, 0], [0, 1]], "labels": ["bot", "top"]})
    assert isinstance(s, Semilattice)
    assert s.labels == ("bot", "top")
    s = from_json_dict({"n": 6, "hasse": [list(e) for e in SIX_COVERS], "labels": SIX_LABELS})
    assert isinstance(s, Semilattice)
    assert s.table == SIX_TABLE


def test_from_json_dict_errors():
    assert not from_json_dict({}).ok
    assert not from_json_dict({"table": "nope"}).ok
    assert not from_json_dict({"n": 2, "hasse": [[0, "x"]]}).ok
    assert not from_json_dict({"table": [[0, 0], [0, 1]], "labels": ["a"]}).ok
    assert not from_json_dict({"table": [[0, 0], [0, 1]], "n": 3}).ok
