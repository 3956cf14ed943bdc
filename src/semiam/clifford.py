"""Commutative Clifford semigroups: abelian group blocks glued over a
semilattice skeleton by connecting homomorphisms, and the diagonal of their
convolution algebras, in closed form and, as an independent oracle, by an
exact linear solve.

An element is a pair (block, group element); the product pushes both
factors down to the meet of their blocks and multiplies there.  With all
blocks trivial this is the skeleton itself, so everything proved for
semilattices is the special case.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .diagonal import DiagonalTensor, first_unit_failure, unit, verify_diagonal
from .exactlinalg import SparseEliminator
from .moebius import mobius_table, outer_product_sum
from .semilattice import (
    Semilattice,
    ValidationReport,
    Violation,
    _first_nonassociative,
    _is_int,
)


class NotUnitalError(RuntimeError):
    pass


class DiagonalSolveError(RuntimeError):
    pass


class FiniteAbelianGroup:
    """Direct product of cyclic groups, written additively.

    Elements are indexed 0..order-1 in lexicographic digit order, so the
    identity (all zeros) is index 0.
    """

    def __init__(self, cyclic_orders):
        orders = tuple(int(k) for k in cyclic_orders)
        if any(k < 1 for k in orders):
            raise ValueError("cyclic factor orders must be positive")
        self.cyclic_orders = orders
        self.order = 1
        for k in orders:
            self.order *= k
        self._tuples = []
        digits = [0] * len(orders)
        for _ in range(self.order):
            self._tuples.append(tuple(digits))
            for pos in reversed(range(len(orders))):
                digits[pos] += 1
                if digits[pos] < orders[pos]:
                    break
                digits[pos] = 0
        self._index = {t: i for i, t in enumerate(self._tuples)}

    def element(self, i: int) -> tuple:
        return self._tuples[i]

    def index(self, digits) -> int:
        return self._index[tuple(d % k for d, k in zip(digits, self.cyclic_orders))]

    def add(self, i: int, j: int) -> int:
        a, b = self._tuples[i], self._tuples[j]
        return self.index([x + y for x, y in zip(a, b)])

    def inverse(self, i: int) -> int:
        return self.index([-x for x in self._tuples[i]])

    def generators(self) -> tuple:
        """One generator index per nontrivial cyclic factor."""
        gens = []
        for pos, k in enumerate(self.cyclic_orders):
            if k > 1:
                digits = [0] * len(self.cyclic_orders)
                digits[pos] = 1
                gens.append(self._index[tuple(digits)])
        return tuple(gens)

    def __repr__(self):
        return f"FiniteAbelianGroup{self.cyclic_orders}"


class ConnectingHom:
    """Homomorphism between two finite abelian groups, by generator images.

    gen_images[i] is the digit tuple in the target that the i-th cyclic
    generator of the source maps to.
    """

    def __init__(self, source: FiniteAbelianGroup, target: FiniteAbelianGroup, gen_images):
        self.source = source
        self.target = target
        self.gen_images = tuple(tuple(int(d) for d in img) for img in gen_images)

    @classmethod
    def trivial(cls, source, target):
        img = tuple([0] * len(target.cyclic_orders) for _ in source.cyclic_orders)
        return cls(source, target, img)

    def check(self):
        """None when well defined, else a short reason string.

        The only constraint: the image of a generator of order a must have
        order dividing a, i.e. a * image = 0 in the target.
        """
        for img in self.gen_images:
            if len(img) != len(self.target.cyclic_orders):
                return "image tuple length"
        if len(self.gen_images) != len(self.source.cyclic_orders):
            return "one image per source generator"
        for i, a in enumerate(self.source.cyclic_orders):
            for d, k in zip(self.gen_images[i], self.target.cyclic_orders):
                if (a * d) % k != 0:
                    return f"generator {i} image order"
        return None

    def apply(self, x: int) -> int:
        digits = self.source.element(x)
        out = [0] * len(self.target.cyclic_orders)
        for d, img in zip(digits, self.gen_images):
            if d:
                for pos, v in enumerate(img):
                    out[pos] += d * v
        return self.target.index(out)

    @classmethod
    def compose(cls, first: "ConnectingHom", second: "ConnectingHom") -> "ConnectingHom":
        """second after first (first.target must be second.source)."""
        images = [
            second.target.element(second.apply(first.target.index(img)))
            for img in first.gen_images
        ]
        return cls(first.source, second.target, images)

    def same_map(self, other: "ConnectingHom") -> bool:
        return all(
            self.apply(x) == other.apply(x) for x in range(self.source.order)
        )


class CliffordSemigroup:
    """Flattened semigroup of a validated Clifford construction.

    Element ids follow the skeleton's canonical order block by block, group
    elements in digit order inside each block, so the id order is already
    the canonical order for diagonal matrices.
    """

    def __init__(self, skeleton: Semilattice, groups, homs):
        self.skeleton = skeleton
        self.groups = tuple(groups)
        self.homs = dict(homs)  # (s, t) with t < s strictly -> ConnectingHom
        offset = {}
        block_of = []
        member_of = []
        labels = []
        n = 0
        for s in skeleton.canonical_perm:
            offset[s] = n
            g = self.groups[s]
            for i in range(g.order):
                block_of.append(s)
                member_of.append(i)
                lbl = skeleton.labels[s]
                if g.order == 1:
                    labels.append(lbl)
                elif i == 0:
                    labels.append(f"e[{lbl}]")
                else:
                    digits = ".".join(str(d) for d in g.element(i))
                    labels.append(f"{lbl}[{digits}]")
            n += g.order
        self.n = n
        self.offset = offset
        self.block_of = tuple(block_of)
        self.member_of = tuple(member_of)
        self.labels = tuple(labels)
        self.canonical_perm = tuple(range(n))
        # _images[(s, r)][x] = phi_{s,r}(x), the identity map for s = r
        self._images = {(s, r): [hom.apply(x) for x in range(self.groups[s].order)]
                        for (s, r), hom in self.homs.items()}
        self._images.update(((s, s), range(g.order)) for s, g in enumerate(self.groups))
        # sums[r][a][b] = id of a + b in block r
        sums = [[[offset[r] + g.add(a, b) for b in range(g.order)]
                 for a in range(g.order)] for r, g in enumerate(self.groups)]
        blocks = skeleton.canonical_perm
        table = []
        for x in range(n):
            sx, gx = self.block_of[x], self.member_of[x]
            meets = skeleton.table[sx]
            row = []
            for sy in blocks:
                r = meets[sy]
                row_sum = sums[r][self._images[(sx, r)][gx]]
                row += map(row_sum.__getitem__, self._images[(sy, r)])
            table.append(tuple(row))
        self.table = tuple(table)

    def _push(self, s: int, r: int, g: int) -> int:
        return self._images[(s, r)][g]

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def generating_set(self) -> tuple:
        """Block identities plus cyclic generators: generates the semigroup."""
        gens = []
        for s in self.skeleton.canonical_perm:
            gens.append(self.offset[s])
            for g in self.groups[s].generators():
                gens.append(self.offset[s] + g)
        return tuple(gens)

    def __repr__(self):
        return f"CliffordSemigroup(n={self.n}, skeleton_n={self.skeleton.n})"


def build_clifford(skeleton: Semilattice, groups, homs=None):
    """Assemble and fully validate a Clifford semigroup.

    groups: one FiniteAbelianGroup (or cyclic order list) per skeleton
    element.  homs: mapping (s, t) -> gen_images for strict pairs t < s;
    omitted pairs get the trivial homomorphism.  Returns the semigroup or a
    ValidationReport naming the first offending axiom.
    """
    violations = []
    if len(groups) != skeleton.n:
        return ValidationReport(False, [Violation("groups", (len(groups),))])
    gs = []
    for i, g in enumerate(groups):
        if isinstance(g, FiniteAbelianGroup):
            gs.append(g)
        else:
            try:
                gs.append(FiniteAbelianGroup(g))
            except (ValueError, TypeError):
                violations.append(Violation("group", (i,)))
    if violations:
        return ValidationReport(False, violations)
    homs = dict(homs or {})
    full = {}
    for (s, t), spec in homs.items():
        if not (0 <= s < skeleton.n and 0 <= t < skeleton.n) or not skeleton.lt(t, s):
            violations.append(Violation("hom_pair", (s, t)))
            continue
        hom = spec if isinstance(spec, ConnectingHom) else ConnectingHom(gs[s], gs[t], spec)
        reason = hom.check()
        if reason is not None:
            violations.append(Violation("hom_invalid", (s, t, reason)))
            continue
        full[(s, t)] = hom
    if violations:
        return ValidationReport(False, violations)
    for s in range(skeleton.n):
        for t in range(skeleton.n):
            if skeleton.lt(t, s) and (s, t) not in full:
                full[(s, t)] = ConnectingHom.trivial(gs[s], gs[t])
    for r in range(skeleton.n):
        for s in skeleton.strictly_below[r]:
            for t in skeleton.strictly_below[s]:
                via = ConnectingHom.compose(full[(r, s)], full[(s, t)])
                if not via.same_map(full[(r, t)]):
                    violations.append(Violation("hom_transitive", (r, s, t)))
    if violations:
        return ValidationReport(False, violations)
    semigroup = CliffordSemigroup(skeleton, gs, full)
    n = semigroup.n
    table = semigroup.table
    # the first row that differs from its column differs only to the right
    # of the diagonal: a mismatch to the left shows in an earlier row
    for x, column in enumerate(zip(*table)):
        if table[x] != column:
            y = next(y for y in range(x + 1, n) if table[x][y] != column[y])
            violations.append(Violation("commutative", (x, y)))
            break
    if not violations:
        witness = _first_nonassociative(table)
        if witness is not None:
            violations.append(Violation("associative", witness))
    if not violations:
        idem = sorted(semigroup.offset.values())
        actual = [x for x in range(n) if table[x][x] == x]
        if idem != actual:
            violations.append(Violation("idempotents", tuple(actual)))
        else:
            for s in range(skeleton.n):
                for t in range(skeleton.n):
                    es, et = semigroup.offset[s], semigroup.offset[t]
                    if table[es][et] != semigroup.offset[skeleton.table[s][t]]:
                        violations.append(Violation("idempotent_product", (s, t)))
    if violations:
        return ValidationReport(False, violations)
    return semigroup


def unit_solve(g: CliffordSemigroup) -> tuple:
    """Solve u * delta_x = delta_x for all x; the unit of the algebra, as
    the eliminator's exact values by element id."""
    n = g.n
    elim = SparseEliminator(n)
    for x in range(n):
        if elim.full_rank():
            break
        rows = [{} for _ in range(n)]
        for h in range(n):
            rows[g.table[h][x]][h] = 1
        for r in range(n):
            elim.add_row(rows[r], 1 if r == x else 0, tag=(x, r))
            if elim.full_rank():
                break
    sol = elim.solve()
    if sol.status != "unique":
        raise NotUnitalError(f"algebra is not unital ({sol.status})")
    q = first_unit_failure(g, sol.vector, range(n))
    if q is not None:
        raise NotUnitalError(f"algebra is not unital (fails at element {q})")
    return sol.vector


def clifford_unit_from_skeleton(g: CliffordSemigroup) -> tuple:
    """The unit lifted from the skeleton: skeleton unit mass on block
    identities, as ints by element id.

    Checked against g.generating_set(): u * delta_q = delta_q for every
    generator q gives it for their products too.
    """
    coeffs = [0] * g.n
    for s, c in enumerate(unit(g.skeleton)):
        coeffs[g.offset[s]] = c
    q = first_unit_failure(g, coeffs, g.generating_set())
    if q is not None:
        raise NotUnitalError(f"algebra is not unital (fails at element {q})")
    return tuple(coeffs)


def diagonal_closed_form(g: CliffordSemigroup) -> DiagonalTensor:
    """The diagonal from the Hewitt-Zuckerman decomposition of the algebra
    into the direct sum of the group algebras of the blocks.

    The copy of x in block G_e is x' = sum over f <= e of
    mu(f, e) delta_{phi_{e,f}(x)}, with mu the skeleton's Moebius function,
    and D = sum over e of |G_e|^-1 sum over x in G_e of x' (x) (x^-1)'.
    L*D is accumulated in ints, L = lcm |G_e|, by the outer-product sum
    that diagonal_via_mobius runs with trivial blocks.
    """
    columns = mobius_table(g.skeleton).columns
    den = lcm(*(group.order for group in g.groups))
    terms = []
    for e, group in enumerate(g.groups):
        # lifted[x]: the support of x' as (element id, coefficient) pairs
        support = [(f, m) for f, m in columns[e].items() if m]
        lifted = [[(g.offset[f] + g._push(e, f, x), m) for f, m in support]
                  for x in range(group.order)]
        terms += [(den // group.order, lifted[x], lifted[group.inverse(x)])
                  for x in range(group.order)]
    return DiagonalTensor(g, outer_product_sum(g.n, terms), den)


def unit_and_diagonal(g: CliffordSemigroup) -> tuple:
    """The unit and the closed-form diagonal, once verify_diagonal accepts
    them: the production path, with unit_solve and diagonal_solve kept as
    the independent linear-algebra oracle."""
    u = clifford_unit_from_skeleton(g)
    d = diagonal_closed_form(g)
    ok, witness = verify_diagonal(d, u)
    if not ok:
        raise DiagonalSolveError(f"closed-form tensor fails verification: {witness}")
    return u, d


def diagonal_solve(g: CliffordSemigroup) -> DiagonalTensor:
    """Exact linear solve for the diagonal of the Clifford algebra.

    The system is the moment condition m(D) = u plus centrality against
    every basis element.  Centrality rows are fed for a generating set
    first (commuting with generators forces commuting with their products),
    with the remaining elements as a fallback, and the finished tensor is
    re-verified against the complete condition set.
    """
    n = g.n
    u = unit_solve(g)
    unknowns = n * n
    elim = SparseEliminator(unknowns)
    moment_rows = [{} for _ in range(n)]
    for x in range(n):
        row = g.table[x]
        for y in range(n):
            key = x * n + y
            moment_rows[row[y]][key] = moment_rows[row[y]].get(key, 0) + 1
    for r in range(n):
        elim.add_row(moment_rows[r], u[r], tag=("moment", r))
    gens = list(g.generating_set())
    rest = [q for q in range(n) if q not in set(gens)]
    for q in gens + rest:
        if elim.full_rank():
            break
        pre = [[] for _ in range(n)]
        for x in range(n):
            pre[g.table[q][x]].append(x)
        for a in range(n):
            if elim.full_rank():
                break
            for b in range(n):
                coeffs = {}
                for s in pre[a]:
                    key = s * n + b
                    coeffs[key] = coeffs.get(key, 0) + 1
                for t in pre[b]:
                    key = a * n + t
                    coeffs[key] = coeffs.get(key, 0) - 1
                if coeffs:
                    elim.add_row(coeffs, 0, tag=("central", q, a, b))
                if elim.full_rank():
                    break
    sol = elim.solve()
    if sol.status == "none":
        raise DiagonalSolveError(f"no diagonal: equation {sol.inconsistent_row} fails")
    if sol.status == "many":
        pair = divmod(sol.free_column, n)
        raise DiagonalSolveError(f"diagonal underdetermined at entry {pair}")
    entries = [
        [sol.vector[a * n + b] for b in range(n)] for a in range(n)
    ]
    d = DiagonalTensor(g, entries)
    ok, witness = verify_diagonal(d, u)
    if not ok:
        raise DiagonalSolveError(f"solved tensor fails verification: {witness}")
    return d


def am_constant(g: CliffordSemigroup) -> Fraction:
    return unit_and_diagonal(g)[1].am()


def collapse(d: DiagonalTensor) -> DiagonalTensor:
    """Push a Clifford diagonal down to its skeleton by summing blocks."""
    g = d.base
    if not isinstance(g, CliffordSemigroup):
        raise TypeError("collapse expects a diagonal over a Clifford semigroup")
    skel = g.skeleton
    rows = [[0] * skel.n for _ in range(skel.n)]
    for x, row in enumerate(d.rows):
        target = rows[g.block_of[x]]
        for y, v in enumerate(row):
            target[g.block_of[y]] += v
    return DiagonalTensor(skel, rows, d.den)


def from_json_dict(obj):
    """Build from {"skeleton": ..., "groups": [...], "homs": [...]}.

    Returns CliffordSemigroup or ValidationReport.  Group entries look like
    {"cyclic": [2]} (or a bare order list); hom entries are
    {"from": s, "to": t, "gen_images": [[...], ...]}.
    """
    from .semilattice import from_json_dict as skel_from_json

    if not isinstance(obj, dict) or "skeleton" not in obj:
        return ValidationReport(False, [Violation("input", ("skeleton",))])
    skel = skel_from_json(obj["skeleton"])
    if isinstance(skel, ValidationReport):
        return skel
    raw_groups = obj.get("groups")
    if not isinstance(raw_groups, list) or len(raw_groups) != skel.n:
        return ValidationReport(False, [Violation("groups", (skel.n,))])
    groups = []
    for i, entry in enumerate(raw_groups):
        if isinstance(entry, dict):
            entry = entry.get("cyclic")
        if not isinstance(entry, list) or not all(
            _is_int(k) and k >= 1 for k in entry
        ):
            return ValidationReport(False, [Violation("group", (i,))])
        groups.append(FiniteAbelianGroup(entry))
    raw_homs = obj.get("homs") or []
    if not isinstance(raw_homs, list):
        return ValidationReport(False, [Violation("hom_entry", ())])
    homs = {}
    for entry in raw_homs:
        if (
            not isinstance(entry, dict)
            or not {"from", "to", "gen_images"} <= set(entry)
            or not _is_int(entry["from"])
            or not _is_int(entry["to"])
            or not isinstance(entry["gen_images"], list)
            or not all(
                isinstance(img, list) and all(_is_int(d) for d in img)
                for img in entry["gen_images"]
            )
        ):
            return ValidationReport(False, [Violation("hom_entry", ())])
        homs[(entry["from"], entry["to"])] = entry["gen_images"]
    return build_clifford(skel, groups, homs)
