"""The closed-form Clifford diagonal and the integer verifier, checked
against the linear solver and the full equation walk."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conftest import images_of, make_g, make_six
from semiam import cli
from semiam import diagonal as diagonal_mod
from semiam import clifford
from semiam.clifford import (
    CliffordSemigroup,
    DiagonalSolveError,
    FiniteAbelianGroup,
    build_clifford,
    diagonal_closed_form,
    diagonal_solve,
    hom_systems,
    unit_and_diagonal,
    unit_solve,
)
from semiam.diagonal import (
    DiagonalTensor,
    diagonal_recursive,
    unit,
    verify_diagonal,
)
from semiam.enumeration import GapInstance, enumerate_semilattices, gap_instances, gap_search
from semiam.moebius import diagonal_via_mobius
from semiam.semilattice import (
    Semilattice,
    _first_nonassociative,
    chain,
    flat,
    flat_with_top,
    power_set,
)

from oracles import digits_index, first_failing_equation
from test_cli import D_SIX_ROWS, G2_JSON
from test_clifford import G2_MATRIX


def build_instance(inst) -> CliffordSemigroup:
    g = build_clifford(inst.skeleton, inst.groups, images_of(inst.groups, inst.homs))
    assert isinstance(g, CliffordSemigroup)
    return g


def trusted_build(skeleton, groups, homs) -> CliffordSemigroup:
    """The build certified_ams runs: the semigroup over the image tuples
    that hom_systems lists, with none of build_clifford's checks."""
    return CliffordSemigroup(skeleton, groups, homs)


def per_cell_table(g: CliffordSemigroup, gen_images: dict) -> tuple:
    """The reference: offset[r] + phi_{s,r}(x) + phi_{t,r}(y) for x in
    block s, y in block t and r = s meet t, one cell at a time in digits,
    with phi mapping each digit d_i of x to d_i * gen_images[(s, r)][i],
    the generator digits g was built from, and to zero digits where
    gen_images omits the pair.  It reads no image tuple of g."""
    def push(s, r, x):
        digits = g.groups[s].element(x)
        if s == r:
            return digits
        out = [0] * len(g.groups[r].cyclic_orders)
        for d, img in zip(digits, gen_images.get((s, r), ())):
            out = [o + d * v for o, v in zip(out, img)]
        return out

    table = []
    for x in range(g.n):
        s, gx = g.block_of[x], g.member_of[x]
        row = []
        for y in range(g.n):
            t, gy = g.block_of[y], g.member_of[y]
            r = g.skeleton.table[s][t]
            total = [a + b for a, b in zip(push(s, r, gx), push(t, r, gy))]
            row.append(g.offset[r] + digits_index(g.groups[r], total))
        table.append(tuple(row))
    return tuple(table)


def assert_table_is_the_clifford_semigroup(g: CliffordSemigroup, gen_images: dict):
    """g.table is the per-cell definition on the generator digits g was
    built from, and a commutative, associative table whose idempotents are
    exactly the block identities, multiplying as the skeleton does: what
    build_clifford leaves to the construction."""
    table = g.table
    assert table == per_cell_table(g, gen_images)
    assert tuple(zip(*table)) == table
    assert _first_nonassociative(table) is None
    assert [x for x in range(g.n) if table[x][x] == x] == sorted(g.offset)
    for s, meets in enumerate(g.skeleton.table):
        for t, r in enumerate(meets):
            assert table[g.offset[s]][g.offset[t]] == g.offset[r]


def assert_engines_agree(g: CliffordSemigroup):
    d = diagonal_closed_form(g)
    assert d == diagonal_solve(g)
    assert g.unit == unit_solve(g)
    ok, witness = verify_diagonal(d, unit_solve(g))
    assert ok, witness


def test_closed_form_matches_solver_on_the_size_two_family():
    instances = gap_instances(2, 4)
    assert len(instances) == 28
    for inst in instances:
        assert_engines_agree(build_instance(inst))


def test_closed_form_matches_solver_on_a_sample_of_the_gap_family():
    instances = random.Random(20).sample(gap_instances(3, 4), 40)
    for inst in instances:
        assert_engines_agree(build_instance(inst))


@pytest.mark.parametrize("block", [[2, 2], [2, 4], [6]], ids=["Z2xZ2", "Z2xZ4", "Z6"])
@pytest.mark.parametrize(
    "skeleton",
    [chain(1), chain(2), flat(2), flat_with_top(2), flat_with_top(3)],
    ids=["chain1", "chain2", "flat2", "flat_with_top2", "flat_with_top3"],
)
def test_closed_form_matches_solver_on_non_cyclic_blocks(skeleton, block):
    rng = random.Random(7)
    patterns = [
        [block if i == pos else [2] for i in range(skeleton.n)]
        for pos in range(skeleton.n)
    ]
    if skeleton.n <= 3:
        patterns.append([block] * skeleton.n)
    # flat_with_top(3), whose mu(0, top) = 2, has five patterns of up to 16
    # elements: two systems each keep the solver's share small
    per_pattern = 3 if skeleton.n <= 4 else 2
    for orders in patterns:
        groups = [FiniteAbelianGroup(k) for k in orders]
        systems = list(hom_systems(skeleton, groups))
        for homs in rng.sample(systems, min(per_pattern, len(systems))):
            gen_images = images_of(groups, homs)
            g = build_clifford(skeleton, groups, gen_images)
            assert isinstance(g, CliffordSemigroup)
            assert_table_is_the_clifford_semigroup(g, gen_images)
            assert_engines_agree(g)


def test_table_matches_the_per_cell_definition_on_the_gap_family():
    instances = gap_instances()
    assert len(instances) == 332
    for inst in instances:
        assert_table_is_the_clifford_semigroup(
            build_instance(inst), images_of(inst.groups, inst.homs))


def test_table_matches_the_per_cell_definition_where_pairs_are_omitted():
    # an omitted pair is the zero map: make_g gives no hom at all, and the
    # Z2 chains give some pairs and leave the others out
    z2 = FiniteAbelianGroup([2])
    partial = [(chain(2), {(2, 1): [(1,)]}),
               (chain(3), {(3, 2): [(1,)], (2, 1): [(1,)], (3, 1): [(1,)]})]
    builds = [(make_g(2), {}), (make_g(3), {})] + [
        (build_clifford(skeleton, [z2] * skeleton.n, homs), homs) for skeleton, homs in partial]
    for g, gen_images in builds:
        assert isinstance(g, CliffordSemigroup)
        assert len(g.homs) < sum(map(len, g.skeleton.strictly_below))
        assert_table_is_the_clifford_semigroup(g, gen_images)
        assert_engines_agree(g)


def test_units_are_int_tuples_and_the_clifford_units_solve():
    for size in range(1, 7):
        for s in enumerate_semilattices(size):
            u = unit(s)
            assert type(u) is tuple and len(u) == s.n
            assert all(type(c) is int for c in u)
    instances = gap_instances()
    assert len(instances) == 332
    for inst in instances:
        g = build_instance(inst)
        u = g.unit
        assert type(u) is tuple and len(u) == g.n
        assert all(type(c) is int for c in u)
        assert u == unit_solve(g)


def test_trivial_blocks_give_the_moebius_diagonal():
    for size in range(1, 6):
        for s in enumerate_semilattices(size):
            g = build_clifford(s, [FiniteAbelianGroup([1])] * s.n, {})
            assert diagonal_closed_form(g) == diagonal_via_mobius(s)


def test_seven_element_golden():
    g = make_g(2)
    u, d = unit_and_diagonal(g)
    assert d == DiagonalTensor(g, G2_MATRIX)
    assert u == (0, 0, 0, 0, 0, 0, 1)
    assert d.am() == 43


def test_am_family_closed_form():
    for n in range(2, 9):
        assert unit_and_diagonal(make_g(n))[1].am() == 41 + Fraction(4 * (n - 1), n)


def _perturbed(d: DiagonalTensor, changes) -> DiagonalTensor:
    rows = [[Fraction(v, d.den) for v in row] for row in d.rows]
    for (a, b), delta in changes.items():
        rows[a][b] += delta
    return DiagonalTensor(d.base, rows)


def _moment_keeping_pairs(base):
    """((a, b), (c, d)) with ab = cd, so moving mass between them keeps m(D)."""
    by_product = {}
    for a in range(base.n):
        for b in range(base.n):
            by_product.setdefault(base.table[a][b], []).append((a, b))
    for cells in by_product.values():
        for first, second in zip(cells, cells[1:]):
            yield first, second


def _single_block(orders) -> CliffordSemigroup:
    # one block: its identity is the unit and commutes with every tensor,
    # so the cyclic generators alone must catch a perturbation
    g = build_clifford(chain(0), [FiniteAbelianGroup(orders)], {})
    assert isinstance(g, CliffordSemigroup)
    return g


@pytest.mark.parametrize("base", ["g2", "g3", "six", "z4", "z2xz2"])
def test_moment_keeping_perturbations_are_rejected_with_the_full_witness(base):
    if base == "six":
        s = make_six()
        d, u = diagonal_recursive(s), unit(s)
    elif base == "z4":
        u, d = unit_and_diagonal(_single_block([4]))
    elif base == "z2xz2":
        u, d = unit_and_diagonal(_single_block([2, 2]))
    else:
        u, d = unit_and_diagonal(make_g(int(base[1])))
    pairs = list(_moment_keeping_pairs(d.base))
    assert pairs
    for first, second in pairs:
        bad = _perturbed(d, {first: Fraction(1, 3), second: Fraction(-1, 3)})
        result = verify_diagonal(bad, u)
        assert result[0] is False
        assert result[1]["kind"] == "centrality"
        assert result == first_failing_equation(bad, u)


def test_every_single_entry_perturbation_gives_the_full_witness():
    u, d = unit_and_diagonal(make_g(2))
    for a in range(d.n):
        for b in range(d.n):
            bad = _perturbed(d, {(a, b): Fraction(1, 2)})
            result = verify_diagonal(bad, u)
            assert result[0] is False
            assert result == first_failing_equation(bad, u)


def test_a_wrong_unit_is_rejected():
    g = make_g(3)
    u, d = unit_and_diagonal(g)
    for x in range(g.n):
        wrong = tuple(c + (i == x) for i, c in enumerate(u))
        ok, witness = verify_diagonal(d, wrong)
        assert not ok
        assert witness == {"kind": "moment", "element": x,
                           "lhs": u[x], "rhs": wrong[x]}


def test_verifier_accepts_exactly_the_diagonal_on_semilattices():
    for size in range(1, 6):
        for s in enumerate_semilattices(size):
            d, u = diagonal_via_mobius(s), unit(s)
            assert verify_diagonal(d, u) == (True, None)
            assert first_failing_equation(d, u) == (True, None)


def test_am_sums_over_the_common_denominator():
    g = make_g(6)
    d = diagonal_closed_form(g)
    assert d.den == 6
    assert d == diagonal_solve(g)
    assert d.am() == Fraction(sum(abs(v) for row in d.rows for v in row), 6)
    assert d.am() == sum((abs(Fraction(v, 6)) for row in d.rows for v in row), Fraction(0))


def test_closed_form_failure_is_loud(monkeypatch):
    import semiam.clifford as clifford_mod

    g = make_g(2)
    real = clifford_mod.diagonal_closed_form
    monkeypatch.setattr(
        clifford_mod,
        "diagonal_closed_form",
        lambda g: _perturbed(real(g), {(0, 0): Fraction(1)}),
    )
    with pytest.raises(DiagonalSolveError):
        unit_and_diagonal(g)


def test_a_tensor_central_for_every_block_identity_is_still_rejected():
    # chain o < m < t with Z2 x Z2 at m; ids o = 0, m = 1..4 in digit
    # order (0,0), (0,1), (1,0), (1,1), t = 5.  The block identities 0, 1
    # and 5 all commute with P = u (x) v for u = (-1)^a and v = (-1)^(a+b)
    # on m, and so does the generator (1,0); the generator (0,1) does not.
    # u * v = 0 and the row and column sums of P vanish, so D + P keeps
    # the moment.
    g = build_clifford(chain(2), [FiniteAbelianGroup(k) for k in ([1], [2, 2], [1])], {})
    assert isinstance(g, CliffordSemigroup)
    u, d = unit_and_diagonal(g)
    left = {1: 1, 2: 1, 3: -1, 4: -1}
    right = {1: 1, 2: -1, 3: -1, 4: 1}
    bad = _perturbed(d, {(a, b): Fraction(x * y, 4)
                         for a, x in left.items() for b, y in right.items()})
    result = verify_diagonal(bad, u)
    assert result == first_failing_equation(bad, u)
    assert result[1]["kind"] == "centrality"
    assert result[1]["q"] == 2


def _symmetry_breaking_cases(d: DiagonalTensor):
    """(kind, changes, symmetric) perturbations of d, symmetric telling
    whether den*D stays symmetric.  "symmetric" moves the same mass
    between two cells with one product and between their transposes,
    which keeps the moment; "transposed" moves mass from a cell to its
    transpose, which keeps the moment only; "single" adds to one cell,
    which breaks the moment."""
    third = Fraction(1, 3)
    for (a, b), (c, e) in _moment_keeping_pairs(d.base):
        if {a, b} != {c, e}:
            changes = {}
            for cell, delta in (((a, b), third), ((b, a), third),
                                ((c, e), -third), ((e, c), -third)):
                changes[cell] = changes.get(cell, 0) + delta
            yield "symmetric", changes, True
        if a != b:
            yield "transposed", {(a, b): third, (b, a): -third}, False
        yield "single", {(a, b): third}, a == b


def _symmetry_bases():
    instances = random.Random(11).sample(gap_instances(), 12)
    yield from (unit_and_diagonal(build_instance(inst)) for inst in instances)
    yield unit_and_diagonal(make_g(3))
    yield unit_and_diagonal(_single_block([2, 2]))
    s = make_six()
    yield unit(s), diagonal_via_mobius(s)


def test_symmetric_and_asymmetric_perturbations_give_the_full_witness():
    seen = Counter()
    for u, d in _symmetry_bases():
        assert d.rows == tuple(zip(*d.rows))
        for kind, changes, symmetric in _symmetry_breaking_cases(d):
            bad = _perturbed(d, changes)
            assert (bad.rows == tuple(zip(*bad.rows))) == symmetric
            result = verify_diagonal(bad, u)
            assert result[0] is False
            assert result == first_failing_equation(bad, u)
            assert result[1]["kind"] == ("moment" if kind == "single" else "centrality")
            seen[kind] += 1
    assert min(seen.values()) > 100, seen


def test_symmetric_acceptance_never_walks_both_sides(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an accepted diagonal walked _noncentral_pair")

    monkeypatch.setattr(diagonal_mod, "_noncentral_pair", refuse)
    report = gap_search()
    assert report.ok and report.instance_count == 332
    bases = [({"table": [list(r) for r in make_six().table]}, D_SIX_ROWS),
             (json.loads(G2_JSON), [[str(v) for v in row] for row in G2_MATRIX])]
    for base, rows in bases:
        code = cli.main(["verify", json.dumps({"base": base, "diagonal": rows})])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}


def test_shared_build_data_matches_a_fresh_build_on_every_gap_instance():
    # each instance is built over the family's own skeleton and groups,
    # whose Moebius tables and units earlier instances have filled, and
    # over fresh copies of both, which share nothing; certified_ams, which
    # shares groups and homs along the family, gives the fresh AMs
    instances = gap_instances()
    assert len(instances) == 332
    fresh_ams = []
    for inst in instances:
        shared = build_instance(inst)
        skeleton = Semilattice(inst.skeleton.table)
        groups = tuple(FiniteAbelianGroup(g.cyclic_orders) for g in inst.groups)
        fresh = build_clifford(skeleton, groups, images_of(inst.groups, inst.homs))
        assert shared.table == fresh.table
        u, d = unit_and_diagonal(fresh)
        assert unit_and_diagonal(shared) == (u, d)
        fresh_ams.append(d.am())
    assert list(clifford.certified_ams(instances)) == fresh_ams


def test_certified_ams_solves_each_instance_over_its_own_skeleton():
    # two skeletons over one groups tuple object: data shared on the
    # groups alone would solve the second over the first's skeleton
    groups = (FiniteAbelianGroup([2]),) + (FiniteAbelianGroup([1]),) * 3
    instances = [GapInstance(skeleton, groups, homs)
                 for skeleton in (chain(3), flat_with_top(2))
                 for homs in hom_systems(skeleton, groups)]
    expected = [unit_and_diagonal(build_instance(inst))[1].am() for inst in instances]
    assert expected == [13, 25]
    assert list(clifford.certified_ams(instances)) == expected


def test_the_trusted_build_matches_the_checked_one():
    # gap_search skips build_clifford's checks because hom_systems lists
    # only valid transitive systems: both builds must give one table
    instances = gap_instances()
    assert len(instances) == 332
    larger = gap_instances(4, 4)
    assert len(larger) == 5524
    for inst in instances + random.Random(9).sample(larger, 500):
        trusted = trusted_build(inst.skeleton, inst.groups, inst.homs)
        assert build_instance(inst).table == trusted.table


@pytest.mark.parametrize("call", [0, 165, 331])
def test_gap_search_verifies_every_trusted_diagonal(monkeypatch, call):
    # one wrong entry in the closed form of any one instance must stop the
    # search: the trusted build leaves verify_diagonal as the check
    real = clifford.diagonal_closed_form
    calls = Counter()

    def perturbed(g):
        d = real(g)
        if calls["closed_form"] == call:
            rows = [list(row) for row in d.rows]
            rows[-1][-1] += 1
            d = DiagonalTensor(g, rows, d.den)
        calls["closed_form"] += 1
        return d

    monkeypatch.setattr(clifford, "diagonal_closed_form", perturbed)
    with pytest.raises(DiagonalSolveError):
        gap_search()
    assert calls["closed_form"] == call + 1


# Z1, Z2, Z3, Z4, Z6, Z8, Z12, Z2xZ2, Z2xZ4, Z3xZ3 and Z2xZ6
TWO_BLOCK_GROUPS = [[1], [2], [3], [4], [6], [8], [12], [2, 2], [2, 4], [3, 3], [2, 6]]


def test_a_two_element_skeleton_gives_am_5_for_every_group_pair_and_hom():
    # |Y| = 2: the closed form gives absolute block sums 1 on G1 x G1,
    # G1 x G0 and G0 x G1 and 2 on G0 x G0, whatever the groups and the hom
    skeleton = chain(1)
    systems = 0
    for bottom, top in product(TWO_BLOCK_GROUPS, repeat=2):
        groups = (FiniteAbelianGroup(bottom), FiniteAbelianGroup(top))
        for homs in hom_systems(skeleton, groups):
            g = trusted_build(skeleton, groups, homs)
            d = unit_and_diagonal(g)[1]
            assert d.am() == 5
            sums = Counter()
            for x, row in enumerate(d.rows):
                for y, v in enumerate(row):
                    sums[g.block_of[x], g.block_of[y]] += abs(v)
            assert {blocks: Fraction(v, d.den) for blocks, v in sums.items()} == {
                (1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 2}
            systems += 1
    assert systems == 675


def _certificate_cases(d: DiagonalTensor, rng: random.Random):
    """d itself, the zero tensor, and seeded single-entry, symmetric-pair
    and moment-keeping perturbations of d, the last keeping it symmetric
    too when the two cells allow it."""
    yield d
    yield DiagonalTensor(d.base, [[0] * d.n for _ in range(d.n)])
    cells = [(a, b) for a in range(d.n) for b in range(d.n)]
    for _ in range(2):
        delta = Fraction(1, rng.choice([1, 2, 3]))
        a, b = rng.choice(cells)
        yield _perturbed(d, {(a, b): delta})
        if a != b:
            yield _perturbed(d, {(a, b): delta, (b, a): delta})
    pairs = list(_moment_keeping_pairs(d.base))
    for (a, b), (c, e) in rng.sample(pairs, min(2, len(pairs))):
        third = Fraction(1, 3)
        changes = {}
        for cell, delta in (((a, b), third), ((b, a), third),
                            ((c, e), -third), ((e, c), -third)):
            changes[cell] = changes.get(cell, 0) + delta
        if any(changes.values()):
            yield _perturbed(d, changes)
        yield _perturbed(d, {(a, b): third, (c, e): -third})


def test_verify_diagonal_accepts_exactly_what_the_reference_accepts():
    # verify_diagonal accepts by the transform alone: on every perturbed
    # tensor it must give the verdict and the witness of the defining
    # equations, walked on the table
    rng = random.Random(19)
    cases = []
    for inst in gap_instances() + random.Random(9).sample(gap_instances(4, 4), 500):
        g = trusted_build(inst.skeleton, inst.groups, inst.homs)
        cases.append((g.unit, unit_solve(g), diagonal_closed_form(g)))
    for size in range(1, 7):
        for s in enumerate_semilattices(size):
            cases.append((unit(s), unit_solve(s), diagonal_via_mobius(s)))
    seen = Counter()
    for u, solved, diagonal in cases:
        assert u == solved
        for d in _certificate_cases(diagonal, rng):
            result = verify_diagonal(d, u)
            assert result == first_failing_equation(d, u)
            seen[result[0]] += 1
    assert seen[True] == len(cases) == 832 + 77
    assert seen[False] > 8 * len(cases)


def test_a_unit_that_is_not_one_is_rejected():
    # the zero tensor is central with moment zero, and half the diagonal
    # has half the unit as its moment: only Phi(u) tells that neither u is
    # the unit; the witness names the first element where Phi(u) is wrong
    s = chain(2)
    zero = DiagonalTensor(s, [[0] * 3 for _ in range(3)])
    assert verify_diagonal(zero, (0, 0, 0)) == (False, {
        "kind": "unit", "element": 0, "lhs": 0, "rhs": 1})
    d, u = diagonal_recursive(s), unit(s)
    half = DiagonalTensor(s, d.rows, 2 * d.den)
    assert verify_diagonal(half, tuple(Fraction(c, 2) for c in u)) == (False, {
        "kind": "unit", "element": 0, "lhs": Fraction(1, 2), "rhs": 1})
    g = make_g(2)
    u, d = unit_and_diagonal(g)
    half = DiagonalTensor(g, d.rows, 2 * d.den)
    result = verify_diagonal(half, tuple(Fraction(c, 2) for c in u))
    assert result[1]["kind"] == "unit"


def test_a_denominator_that_no_block_order_divides_is_rejected():
    # den * T is not integral when a block order does not divide den: over
    # Z2 blocks, neither the zero tensor, whose den is 1, may pass as
    # (Phi (x) Phi)(0) = floor(1/2) T, nor two thirds of the diagonal, whose
    # den is 3, as 3 * (2/3) T = 1 = floor(3/2) at every (x, -x)
    g = build_clifford(chain(1), [FiniteAbelianGroup([2])] * 2, {})
    assert isinstance(g, CliffordSemigroup)
    u, d = g.unit, diagonal_closed_form(g)
    zero = DiagonalTensor(g, [[0] * g.n for _ in range(g.n)])
    two_thirds = DiagonalTensor(g, [[2 * v for v in row] for row in d.rows], 3 * d.den)
    assert (zero.den, two_thirds.den) == (1, 3)
    for tensor in (zero, two_thirds):
        result = verify_diagonal(tensor, u)
        assert result == first_failing_equation(tensor, u)
        assert result[1]["kind"] == "moment"


def test_a_corrupted_unit_is_caught_on_the_transform_path(monkeypatch):
    # a unit that Phi does not take to the sum of the block identities
    # stops the instance, and no AM is counted
    real = clifford.unit

    def corrupted(s):
        u = list(real(s))
        u[s.minimum] += 1
        return tuple(u)

    monkeypatch.setattr(clifford, "unit", corrupted)
    inst = gap_instances()[-1]
    g = trusted_build(inst.skeleton, inst.groups, inst.homs)
    with pytest.raises(DiagonalSolveError, match="'kind': 'moment'"):
        unit_and_diagonal(g)
    with pytest.raises(DiagonalSolveError):
        gap_search()


def test_a_transform_reject_is_never_accepted_silently(monkeypatch):
    # should the transform ever reject what the table checks accept, the
    # two certificates disagree, and no AM is counted
    g = make_g(3)
    monkeypatch.setattr(diagonal_mod, "_transform_accepts", lambda d: False)
    with pytest.raises(RuntimeError, match="certificates disagree"):
        unit_and_diagonal(g)


def clifford_doc(skeleton, groups, homs) -> str:
    """The JSON input of the clifford command for this construction."""
    return json.dumps({
        "skeleton": {"table": [list(r) for r in skeleton.table]},
        "groups": [list(g.cyclic_orders) for g in groups],
        "homs": [{"from": s, "to": t, "gen_images": [list(i) for i in images]}
                 for (s, t), images in sorted(homs.items())]})


def test_the_gap_path_builds_no_table(monkeypatch, capsys):
    def refuse(self, offset):
        raise AssertionError("a block addition table was built")

    monkeypatch.setattr(FiniteAbelianGroup, "sum_table", refuse)
    report = gap_search()
    assert report.ok and report.instance_count == 332
    # user input is checked on its homs alone, so neither build_clifford
    # nor the clifford command builds a table either
    inst = gap_instances()[-1]
    images = images_of(inst.groups, inst.homs)
    assert any(any(any(img) for img in imgs) for imgs in images.values())
    assert isinstance(build_clifford(inst.skeleton, inst.groups, images),
                      CliffordSemigroup)
    doc = clifford_doc(inst.skeleton, inst.groups, images)
    assert cli.main(["clifford", doc]) == 0
    capsys.readouterr()
    # verify accepts a Clifford diagonal by the transform, with no table,
    # and reads the table only on a reject, to name the witness
    rows = [[str(v) for v in row] for row in G2_MATRIX]
    doc = json.dumps({"base": json.loads(G2_JSON), "diagonal": rows})
    assert cli.main(["verify", doc]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True}
    rows[0][0] = "0"
    doc = json.dumps({"base": json.loads(G2_JSON), "diagonal": rows})
    with pytest.raises(AssertionError, match="addition table"):
        cli.main(["verify", doc])


# the digests of the clifford output when verify_diagonal certified on the
# table, on a generating set, and build_clifford checked the table: the
# transform, which now certifies alone, must print the same; the blocks
# are listed by skeleton element, bottom first, with the last of the hom
# systems when last_system is set and trivial homs otherwise
@pytest.mark.parametrize("skeleton, orders, last_system, digest", [
    (flat_with_top(30), [[2]] * 32, False,
     "5deab02083cf2e523d008308727ec00d4267868193d05c9e62e66855284e218e"),
    (power_set(4), [[1]] * 16, False,
     "acb4f42f7f15316447b97a513f7c5efc3b1c51fe1962eeae7c7dcae8d6776620"),
    (chain(2), [[2, 2], [4], [2, 4]], True,
     "2450e7fbcc74b37b1d9d583993be7cce436a50286ecd30a40971e92f3b521586"),
    (flat_with_top(2), [[2, 2]] * 4, True,
     "6caf1faf5b2a9e7d96707b21c8165505da1cd22ff3c1c2b626125fadb7ee5495"),
], ids=["flat_with_top(30) Z2", "power_set(4) trivial",
        "chain(2) Z2xZ2 Z4 Z2xZ4 last system", "flat_with_top(2) Z2xZ2 last system"])
def test_clifford_output_is_pinned(capsys, skeleton, orders, last_system, digest):
    groups = [FiniteAbelianGroup(k) for k in orders]
    homs = {}
    if last_system:
        *_, last = hom_systems(skeleton, groups)
        homs = images_of(groups, last)
    assert cli.main(["clifford", clifford_doc(skeleton, groups, homs)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
