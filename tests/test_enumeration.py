import gc
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import images_of
from oracles import are_isomorphic, enumerate_brute, enumerate_by_families, relabel
from semiam import clifford, enumeration
from semiam.clifford import MAX_ELEMENTS, FiniteAbelianGroup, hom_choices, hom_systems
from semiam.enumeration import (
    InstanceLimitError,
    InstanceSizeError,
    canonical_table,
    enumerate_by_extension,
    enumerate_semilattices,
    gap_instances,
    gap_search,
    spectrum,
)
from semiam.semilattice import Semilattice, chain

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 53}


def test_counts_by_extension():
    for n, count in CLASS_COUNTS.items():
        assert len(enumerate_by_extension(n)) == count


def test_strategies_agree():
    for n in range(1, 7):
        assert enumerate_by_extension(n) == enumerate_by_families(n)


def test_brute_force_oracle_small():
    for n in range(1, 5):
        assert enumerate_brute(n) == enumerate_by_extension(n)


def test_representatives_are_canonical_and_distinct():
    for n in range(1, 6):
        reps = enumerate_semilattices(n)
        tables = [s.table for s in reps]
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)
        for s in reps:
            assert canonical_table(s) == s.table


def test_representatives_pairwise_nonisomorphic():
    for n in range(1, 6):
        reps = enumerate_semilattices(n)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                iso, _ = are_isomorphic(reps[i], reps[j])
                assert not iso


def test_canonical_table_is_relabeling_invariant():
    rng = random.Random(37)
    for s in enumerate_semilattices(5):
        canon = canonical_table(s)
        for _ in range(5):
            perm = list(range(s.n))
            rng.shuffle(perm)
            assert canonical_table(relabel(s, perm)) == canon


def test_canonical_table_is_idempotent():
    for s in enumerate_semilattices(4):
        canon = Semilattice(canonical_table(s))
        assert canonical_table(canon) == canon.table


def test_spectrum_golden_multisets():
    report = spectrum(4)
    assert report.counts == (1, 1, 2, 5)
    by_size = {}
    for row in report.rows:
        by_size.setdefault(row.size, []).append(row.am)
    assert sorted(by_size[1]) == [1]
    assert sorted(by_size[2]) == [5]
    assert sorted(by_size[3]) == [9, 9]
    assert sorted(by_size[4]) == [13, 13, 13, 13, 25]


def test_spectrum_flags():
    report = spectrum(5)
    for row in report.rows:
        assert row.am_mod4 == 1
        assert row.lower_bound_ok
        assert row.am >= 2 * row.size - 1
        assert row.d_min >= 1
        if row.unital:
            assert row.off_top_diagonal_even
    # chains are unital, the flat semilattices of size >= 3 are not
    assert any(row.unital for row in report.rows)
    assert any(not row.unital for row in report.rows if row.size >= 3)


def test_spectrum_json_shape():
    payload = spectrum(3).to_json_dict()
    assert payload["counts"] == [1, 1, 2]
    assert len(payload["classes"]) == 4
    first = payload["classes"][0]
    assert first["size"] == 1
    assert first["am"] == "1"
    assert first["table"] == [[0]]


def test_hom_system_counts_on_a_chain():
    groups = [FiniteAbelianGroup([4])] * 3
    systems = list(hom_systems(chain(2), groups))
    # two free cover maps, four choices each; composite pairs are derived
    assert len(systems) == 16
    for homs in systems:
        assert set(homs) == {(1, 0), (2, 1), (2, 0)}


def test_gap_instance_count_default_family():
    instances = gap_instances()
    assert len(instances) == 332
    keys = [(inst.skeleton.table, tuple(g.order for g in inst.groups),
             tuple(sorted(inst.homs.items())))
            for inst in instances]
    assert len(set(keys)) == 332


def test_gap_instances_limit_guard():
    with pytest.raises(ValueError):
        gap_instances(3, 4, instance_limit=10)


def test_gap_search_builds_groups_only_as_instances_need_them(monkeypatch):
    # Z_1..Z_6 give the six one-block instances that pass the limit of 5:
    # no larger group may be built first
    real = FiniteAbelianGroup.__init__

    def bounded(self, cyclic_orders):
        assert max(cyclic_orders) <= 6, f"Z_{max(cyclic_orders)} built ahead of the limit"
        real(self, cyclic_orders)

    monkeypatch.setattr(FiniteAbelianGroup, "__init__", bounded)
    with pytest.raises(InstanceLimitError):
        gap_search(1, 10 ** 5, instance_limit=5)


def test_a_huge_max_cyclic_order_reaches_the_instance_limit():
    # the order tuples are listed lazily: 10^12 cyclic orders are never
    # stored, and Z_6 gives the instance past the limit
    with pytest.raises(InstanceLimitError) as caught:
        gap_search(1, 10 ** 12, instance_limit=5)
    assert caught.value.limit == 5


# SHA-256 of the JSON listing of two search families: gap-search prints
# only the AM counts, so a changed family could pass its output pins
GAP_LISTING_SHA256 = [
    ((3, 4), 332, "d6bcd7405b86dc475b4ed7af56f8aac77a4b0f6bb3957b5aadbfa3ef6c5ec1f6"),
    ((4, 3), 1213, "bf1f8bbcafdc0329cf6219b4d1292399dbb086141cce2601a1ea1aff7e6e4b13"),
]


@pytest.mark.parametrize("args, count, digest", GAP_LISTING_SHA256,
                         ids=[str(a) for a, _, _ in GAP_LISTING_SHA256])
def test_gap_instance_listing_is_pinned(args, count, digest):
    instances = gap_instances(*args)
    assert len(instances) == count
    listing = json.dumps([inst.to_json_dict() for inst in instances], sort_keys=True)
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


class Refused:
    """A class attribute that raises when it is read, called or not."""

    def __init__(self, what):
        self.what = what

    def __get__(self, obj, owner=None):
        raise AssertionError(f"{self.what} during enumeration")


def test_gap_instances_build_no_group_tables(monkeypatch):
    # inverses is a cached attribute: a plain function patched in its
    # place would raise only when called, and reading it calls nothing
    monkeypatch.setattr(FiniteAbelianGroup, "sum_table", Refused("a group table was built"))
    monkeypatch.setattr(FiniteAbelianGroup, "inverses", Refused("a group's inverses were read"))
    assert len(gap_instances()) == 332


def test_gap_search_computes_each_groups_inverses_once(monkeypatch):
    # the listing shares one group object per cyclic order across the
    # family, Z_1 to Z_4 by default, and each computes its inverses once
    # however many instances and blocks read them
    computed = Counter()
    cached = vars(FiniteAbelianGroup)["inverses"]
    real = cached.func

    def inverses(self):
        computed[self] += 1
        return real(self)

    monkeypatch.setattr(cached, "func", inverses)
    assert gap_search().instance_count == 332
    assert sorted(g.order for g in computed) == [1, 2, 3, 4]
    assert set(computed.values()) == {1}


def test_gap_search_solves_a_family_at_the_size_bound(monkeypatch):
    # Z_1 to Z_512 over the one-element skeleton: the last instance has
    # exactly MAX_ELEMENTS elements, so the search goes on to solve them
    # all, here by a stub, since the real solver takes seconds at this size
    solved = []

    def stub(instances):
        for inst in instances:
            solved.append(sum(g.order for g in inst.groups))
            yield Fraction(1)

    monkeypatch.setattr(enumeration, "certified_ams", stub)
    report = gap_search(1, MAX_ELEMENTS)
    assert report.instance_count == MAX_ELEMENTS
    assert solved == list(range(1, MAX_ELEMENTS + 1))


def test_gap_search_refuses_an_instance_past_the_size_bound(monkeypatch):
    # one element more, and the search stops after listing the family,
    # before any instance is solved, naming the first oversized instance
    def refuse(instances):
        raise AssertionError("an instance was solved")

    monkeypatch.setattr(enumeration, "certified_ams", refuse)
    with pytest.raises(InstanceSizeError) as caught:
        gap_search(1, 2 * MAX_ELEMENTS)
    assert (caught.value.index, caught.value.size) == (MAX_ELEMENTS, MAX_ELEMENTS + 1)


def test_gap_search_solves_on_the_homs_its_listing_built(monkeypatch):
    # hom_systems computes one image tuple per hom_choices tuple of each
    # group pair of the family, and the instances carry those very tuples:
    # once gap_instances returns, no image tuple is computed
    computed = Counter()
    phase = ["listing"]
    real_images = clifford.hom_images

    def images(source, target, gen_images):
        computed[phase[0], source, target] += 1
        return real_images(source, target, gen_images)

    monkeypatch.setattr(clifford, "hom_images", images)
    listings = []
    real_listing = enumeration.gap_instances

    def listing(*args):
        phase[0] = "listing"
        listings.append(real_listing(*args))
        phase[0] = "solving"
        return listings[-1]

    monkeypatch.setattr(enumeration, "gap_instances", listing)
    assert gap_search().instance_count == 332
    maps, runs = {}, set()
    for inst in listings[0]:
        runs.add((id(inst.skeleton), id(inst.groups)))
        for (s, t), hom in inst.homs.items():
            key = (inst.groups[s], inst.groups[t], hom)
            assert maps.setdefault(key, hom) is hom
    assert len(runs) == 148
    assert len(maps) == 24
    pairs = {(source, target) for source, target, _ in maps}
    assert computed == Counter({("listing", source, target): len(hom_choices(source, target))
                                for source, target in pairs})


def test_a_search_holds_one_hom_per_map_of_its_family(monkeypatch):
    # over a two-element chain each groups tuple (Z_a, Z_b) has its own
    # gcd(a, b) maps, one instance each: the search computes one image
    # tuple per map, the instances it solves carry those very tuples and
    # no copy, and none is held once the search returns
    made = []
    real_images = clifford.hom_images

    def images(*args):
        made.append(real_images(*args))
        return made[-1]

    real_solve = clifford.unit_and_diagonal
    groups_seen = []

    def solve(g):
        made_ids = set(map(id, made))
        assert all(id(hom) in made_ids for hom in g.homs.values())
        if not groups_seen or g.groups is not groups_seen[-1]:
            groups_seen.append(g.groups)
        return real_solve(g)

    monkeypatch.setattr(clifford, "hom_images", images)
    monkeypatch.setattr(clifford, "unit_and_diagonal", solve)
    gap_search(2, 8)
    assert len(groups_seen) == 8 + 8 * 8  # the order tuples of sizes 1 and 2
    assert len(made) == sum(gcd(a, b) for a in range(1, 9) for b in range(1, 9))
    # each tuple is referred to by this list alone, as a tuple made here is
    made.append(tuple(list(made[0])))
    gc.collect()
    assert len({sys.getrefcount(hom) for hom in made}) == 1
    # nor do the groups the instances share keep map data of their own:
    # each keeps its factor orders and its inverses
    assert {frozenset(vars(g)) for groups in groups_seen for g in groups} == {
        frozenset({"cyclic_orders", "order", "inverses"})}


def test_gap_search_am_counts_on_the_four_element_family():
    report = gap_search(4, 4)
    assert report.instance_count == 5524
    assert report.am_counts == [
        (Fraction(1), 4), (Fraction(5), 24), (Fraction(9), 304),
        (Fraction(13), 3960), (Fraction(25), 1232)]
    assert report.ok


def test_groups_shared_by_a_search_keep_no_map_data():
    # image tuples live on the homs, not on the groups: a search over large
    # groups with no map used twice would otherwise keep every image tuple
    # it built until it ends
    instances = gap_instances()
    for inst in instances:
        built = clifford.build_clifford(inst.skeleton, inst.groups, images_of(inst.groups, inst.homs))
        clifford.unit_and_diagonal(built)
    groups = {g for inst in instances for g in inst.groups}
    assert {frozenset(vars(g)) for g in groups} == {
        frozenset({"cyclic_orders", "order", "inverses"})}


def test_gap_search_instance_limit_names_the_limit():
    with pytest.raises(InstanceLimitError) as caught:
        gap_search(2, 2, instance_limit=6)
    assert caught.value.limit == 6
    assert gap_search(2, 2, instance_limit=7).instance_count == 7


def test_gap_search_small_family_golden():
    report = gap_search(skeleton_max_size=2, max_cyclic_order=2)
    assert report.instance_count == 7
    assert report.ok
    assert [(v, c) for v, c in report.am_counts] == [
        (Fraction(1), 2),
        (Fraction(5), 5),
    ]
    assert report.min_am_beyond() is None
    payload = report.to_json_dict()
    assert payload["instances"] == 7
    assert payload["ok"] is True
    assert payload["am_counts"] == [["1", 2], ["5", 5]]
    assert payload["min_am_above_5"] is None


def test_gap_instance_json_shape():
    inst = gap_instances(2, 2)[-1]
    payload = inst.to_json_dict()
    assert payload["orders"] == [g.order for g in inst.groups]
    assert payload["size"] == sum(payload["orders"])
    assert payload["am"] is None


def test_gap_search_sizes_cover_the_family():
    instances = gap_instances(2, 3)
    sizes = Counter(sum(g.order for g in inst.groups) for inst in instances)
    # point skeleton: one instance per order.  chain skeleton: gcd(k1, k0)
    # hom systems per order pair, summing to 12.
    assert sum(sizes.values()) == 3 + 12
    assert min(sizes) == 1
    assert max(sizes) == 6
