"""Catalogues of small semilattices, their amenability spectrum, and the
gap search over small Clifford semigroup instances.

Classes are enumerated by recursive extension with a new maximal element.
The tests check it against two independent strategies kept in
tests/oracles.py: intersection-closed set families, and a brute-force
table filter at the smallest sizes.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import permutations, product as iproduct

from .clifford import (MAX_ELEMENTS, FiniteAbelianGroup, certified_ams, generator_images,
                       hom_systems)
from .diagonal import diagonal_recursive
from .exactlinalg import rat_str
from .moebius import diagonal_via_mobius
from .semilattice import Semilattice, _bits, _invariant


def canonical_table(s: Semilattice) -> tuple:
    """Least relabeled table over invariant-respecting permutations.

    Isomorphisms preserve the per-element invariant, so minimizing over the
    permutations that keep invariant classes aligned is a true canonical
    form, at a tiny fraction of the n! cost.
    """
    n = s.n
    invariants = [_invariant(s, x) for x in range(n)]
    classes: dict = {}
    for x in range(n):
        classes.setdefault(invariants[x], []).append(x)
    ordered = [classes[key] for key in sorted(classes)]
    best = None
    for arrangement in iproduct(*[permutations(cls) for cls in ordered]):
        order = [x for cls in arrangement for x in cls]
        pos = [0] * n
        for k, x in enumerate(order):
            pos[x] = k
        table = tuple(
            tuple(pos[s.table[order[i]][order[j]]] for j in range(n))
            for i in range(n)
        )
        if best is None or table < best:
            best = table
    return best


def _down_closed_masks(s: Semilattice):
    """Nonempty down-closed subsets of s, as bitmasks."""
    n, down = s.n, s.down
    for mask in range(1, 1 << n):
        if all(
            not (mask >> x & 1) or (down[x] & mask) == down[x]
            for x in range(n)
        ):
            yield mask


def enumerate_by_extension(n: int) -> list:
    """Strategy A: grow by one new maximal element over a down-closed set.

    Removing any maximal element of a semilattice leaves a down-closed
    subsemilattice, so every isomorphism class of size k+1 appears as some
    size-k class extended by one element whose strict down-set is a
    down-closed D such that D meet down(y) has a maximum for every y: the
    member m whose down-set mask holds all of D meet down(y), which is
    then the meet of the new element with y.  Returns sorted canonical
    tables.
    """
    if n < 1:
        return []
    current = [((0,),)]
    for size in range(1, n):
        grown = set()
        for table in current:
            s = Semilattice(table)
            down = [frozenset(_bits(m)) for m in s.down]
            for mask in _down_closed_masks(s):
                d = frozenset(x for x in range(size) if mask >> x & 1)
                meets = []
                ok = True
                for y in range(size):
                    cands = d & down[y]
                    top = None
                    for m in cands:
                        if all(s.down[m] >> r & 1 for r in cands):
                            top = m
                            break
                    if top is None:
                        ok = False
                        break
                    meets.append(top)
                if not ok:
                    continue
                new = [list(row) + [meets[i]] for i, row in enumerate(table)]
                new.append([meets[j] for j in range(size)] + [size])
                grown.add(canonical_table(Semilattice(new)))
        current = sorted(grown)
    return list(current)


def enumerate_semilattices(n: int) -> list:
    """All isomorphism classes of size n, as Semilattices in canonical form,
    sorted by table."""
    return [Semilattice(t) for t in enumerate_by_extension(n)]


class SpectrumRow(namedtuple(
    "SpectrumRow",
    "size index table am am_mod4 unital d_min lower_bound_ok off_top_diagonal_even",
)):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "size": self.size,
            "index": self.index,
            "table": [list(r) for r in self.table],
            "am": rat_str(self.am),
            "am_mod4": self.am_mod4,
            "unital": self.unital,
            "d_min": rat_str(self.d_min),
            "lower_bound_ok": self.lower_bound_ok,
            "off_top_diagonal_even": self.off_top_diagonal_even,
        }


class SpectrumReport(namedtuple("SpectrumReport", "max_size counts rows")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "max_size": self.max_size,
            "counts": list(self.counts),
            "classes": [r.to_json_dict() for r in self.rows],
        }


def spectrum(max_size: int) -> SpectrumReport:
    """Catalogue every class up to max_size with its amenability data.

    The diagonal is computed by both the recursion and Moebius inversion;
    a mismatch would be a bug, not data, so it raises.
    """
    rows = []
    counts = []
    for size in range(1, max_size + 1):
        tables = enumerate_by_extension(size)
        counts.append(len(tables))
        # one class object alive at a time: each keeps the Moebius table
        # and unit derived from it
        for idx, table in enumerate(tables):
            s = Semilattice(table)
            d1 = diagonal_recursive(s)
            d2 = diagonal_via_mobius(s)
            if d1 != d2:
                raise RuntimeError(
                    f"diagonal engines disagree on size {size} class {idx}"
                )
            am = d1.am()
            top = s.top()
            unital = top is not None
            even = True
            if unital:
                for p in range(s.n):
                    if p != top and d1.rows[p][p] % 2:
                        even = False
            rows.append(
                SpectrumRow(
                    size=size,
                    index=idx,
                    table=s.table,
                    am=am,
                    am_mod4=int(am) % 4 if am.denominator == 1 else -1,
                    unital=unital,
                    d_min=Fraction(d1.rows[s.minimum][s.minimum], d1.den),
                    lower_bound_ok=am >= 2 * s.n - 1,
                    off_top_diagonal_even=even,
                )
            )
    return SpectrumReport(max_size, tuple(counts), rows)


class GapInstance:
    """One search instance: a skeleton, one cyclic group per element, and
    homs[(s, t)], the image tuple of the hom for every strict pair t < s,
    as hom_systems lists and shares them.  The JSON form gives each hom by
    its generator images.  gap_search sets am once it is solved."""

    __slots__ = ("skeleton", "groups", "homs", "am")

    def __init__(self, skeleton: Semilattice, groups: tuple, homs: dict):
        self.skeleton = skeleton
        self.groups = groups
        self.homs = homs
        self.am = None

    def to_json_dict(self):
        return {
            "skeleton_table": [list(r) for r in self.skeleton.table],
            "orders": [g.order for g in self.groups],
            "homs": [
                {"from": s, "to": t, "gen_images": [
                    list(i) for i in generator_images(self.groups[s], self.groups[t], images)]}
                for (s, t), images in sorted(self.homs.items())
            ],
            "size": sum(g.order for g in self.groups),
            "am": None if self.am is None else rat_str(self.am),
        }


class GapReport:
    def __init__(self, skeleton_max_size: int, max_cyclic_order: int,
                 instance_count: int, am_counts: list, violations: list):
        self.skeleton_max_size = skeleton_max_size
        self.max_cyclic_order = max_cyclic_order
        self.instance_count = instance_count
        self.am_counts = am_counts  # [(Fraction, count)] sorted by value
        self.violations = violations  # GapInstances with 5 < am < 9
        self.ok = not violations

    def min_am_beyond(self) -> Fraction | None:
        """The least AM above 5 in the family, or None."""
        beyond = [v for v, _ in self.am_counts if v > 5]
        return min(beyond) if beyond else None

    def to_json_dict(self):
        least = self.min_am_beyond()
        return {
            "skeleton_max_size": self.skeleton_max_size,
            "max_cyclic_order": self.max_cyclic_order,
            "instances": self.instance_count,
            "am_counts": [[rat_str(v), c] for v, c in self.am_counts],
            "violations": [v.to_json_dict() for v in self.violations],
            "min_am_above_5": None if least is None else rat_str(least),
            "ok": self.ok,
        }


class InstanceLimitError(ValueError):
    """The gap search family is larger than the caller allowed."""

    def __init__(self, limit: int):
        super().__init__(f"gap search family exceeds {limit} instances")
        self.limit = limit


class InstanceSizeError(ValueError):
    """A listed gap search instance has more elements than the
    MAX_ELEMENTS that Clifford input may have."""

    def __init__(self, index: int, size: int):
        super().__init__(f"gap search instance {index} has {size} elements, "
                         f"more than {MAX_ELEMENTS}")
        self.index = index
        self.size = size


def _order_tuples(max_order: int, size: int):
    """iproduct(range(1, max_order + 1), repeat=size), without first
    storing the range as a tuple, which a huge max_order cannot afford."""
    if size == 0:
        yield ()
        return
    for k in range(1, max_order + 1):
        for rest in _order_tuples(max_order, size - 1):
            yield (k,) + rest


def gap_instances(skeleton_max_size: int = 3, max_cyclic_order: int = 4,
                  instance_limit: int = 20000) -> list:
    """Every Clifford instance in the search family, in deterministic order.

    Z_k is built once, when the first order tuple holding k comes up, and
    every instance over the same order tuple shares one groups tuple.  The
    instances share one image tuple per distinct map of the family.
    """
    cyclic = {}
    maps = {}
    instances = []
    for size in range(1, skeleton_max_size + 1):
        for skel in enumerate_semilattices(size):
            for orders in _order_tuples(max_cyclic_order, size):
                for k in orders:
                    if k not in cyclic:
                        cyclic[k] = FiniteAbelianGroup([k])
                groups = tuple(map(cyclic.__getitem__, orders))
                for homs in hom_systems(skel, groups, maps):
                    instances.append(GapInstance(skel, groups, homs))
                    if len(instances) > instance_limit:
                        raise InstanceLimitError(instance_limit)
    return instances


def gap_search(skeleton_max_size: int = 3, max_cyclic_order: int = 4,
               instance_limit: int = 20000) -> GapReport:
    """Solve every instance in the family and report the AM multiset.

    The point: no commutative Clifford semigroup algebra in this family has
    an amenability constant strictly between 5 and 9.  hom_systems lists
    only valid transitive systems, so certified_ams solves the instances
    on the listed homs, without the checks of build_clifford, and
    certifies each unit and diagonal before its constant is counted.  The
    gap is tested once per distinct constant, and the instances are
    walked for violations only when some constant falls in it.

    The family is listed in full before anything is solved, so a family
    past instance_limit raises InstanceLimitError, and then one holding an
    instance of more than MAX_ELEMENTS elements raises InstanceSizeError
    at the first such instance.
    """
    instances = gap_instances(skeleton_max_size, max_cyclic_order, instance_limit)
    for i, inst in enumerate(instances):
        size = sum(g.order for g in inst.groups)
        if size > MAX_ELEMENTS:
            raise InstanceSizeError(i, size)
    counts: dict = {}
    for inst, am in zip(instances, certified_ams(instances)):
        inst.am = am
        counts[am] = counts.get(am, 0) + 1
    violations = []
    if any(5 < am < 9 for am in counts):
        violations = [inst for inst in instances if 5 < inst.am < 9]
    return GapReport(
        skeleton_max_size=skeleton_max_size,
        max_cyclic_order=max_cyclic_order,
        instance_count=len(instances),
        am_counts=sorted(counts.items()),
        violations=violations,
    )
