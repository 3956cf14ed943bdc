"""Commutative Clifford semigroups: abelian group blocks glued over a
semilattice skeleton by connecting homomorphisms, and the diagonal of their
convolution algebras, in closed form and, as an independent oracle for
these and for plain semilattices, by an exact linear solve.

An element is a pair (block, group element); the product pushes both
factors down to the meet of their blocks and multiplies there.  With all
blocks trivial this is the skeleton itself, so everything proved for
semilattices is the special case.
"""

from functools import cached_property
from itertools import product

from .diagonal import DiagonalTensor, first_unit_failure, unit, verify_diagonal
from .exactlinalg import SparseEliminator
from .moebius import closed_form, mobius_table
from .semilattice import Semilattice, ValidationReport, Violation, _bits, _is_int


# The most elements, sum |G_e|, that from_json_dict accepts.  Diagonal and
# certificate work grow as n^2 to n^3.  At 510 elements `semiam clifford`
# takes 1.75-1.85 s on the slowest accepted shape found, a chain of trivial
# blocks (over a third in the certificate's zeta lift, a quarter in
# validate), 0.39-0.41 s on flat_with_top(510) and 0.11-0.16 s to reject a
# Z2 chain of 256 with one bad triple: 3 runs each, 2-CPU Xeon, Python 3.11.7.
MAX_ELEMENTS = 512


class NotUnitalError(RuntimeError):
    pass


class DiagonalSolveError(RuntimeError):
    pass


class FiniteAbelianGroup:
    """Direct product of cyclic groups, written additively.

    Elements are indexed 0..order-1 in lexicographic digit order, so the
    identity (all zeros) is index 0.  A group keeps its inverses once they
    are asked for, and nothing else per element: each Clifford semigroup
    builds its own block addition tables, and a hom is its own image tuple.
    """

    def __init__(self, cyclic_orders):
        orders = tuple(int(k) for k in cyclic_orders)
        if any(k < 1 for k in orders):
            raise ValueError("cyclic factor orders must be positive")
        self.cyclic_orders = orders
        self.order = 1
        for k in orders:
            self.order *= k

    def sum_table(self, offset: int) -> list:
        """sum_table(offset)[i][j] is offset + the index of element i +
        element j: the addition table, shifted to a block's element ids."""
        # index of (d, rest) is d * |rest| + index of rest: build from the
        # last factor outward
        sums = [[offset]]
        for k in reversed(self.cyclic_orders):
            m = len(sums)
            sums = [[(d + e) % k * m + h for e in range(k) for h in row]
                    for d in range(k) for row in sums]
        return sums

    @cached_property
    def inverses(self) -> tuple:
        """inverses[i] is the index of -element i, computed on first use
        and kept: the semigroups that share this group share it too."""
        negatives = [0]
        for k in reversed(self.cyclic_orders):
            m = len(negatives)
            negatives = [-d % k * m + h for d in range(k) for h in negatives]
        return tuple(negatives)

    def element(self, i: int) -> tuple:
        digits = []
        for k in reversed(self.cyclic_orders):
            i, d = divmod(i, k)
            digits.append(d)
        return tuple(reversed(digits))

    def __repr__(self):
        return f"FiniteAbelianGroup{self.cyclic_orders}"


def hom_images(source: FiniteAbelianGroup, target: FiniteAbelianGroup, gen_images) -> tuple:
    """images[x] is the target index of the image of source element x under
    the hom that sends the i-th cyclic generator of source to the target
    digits gen_images[i]; it means something once hom_violation passes."""
    # digit j of the image of source element (d, rest) is d times digit j
    # of the first generator's image plus digit j of rest's image, mod the
    # j-th target order: grow each digit column from the last source
    # factor, then add it in at its place value in the target index
    images = [0] * source.order
    place = 1
    for j, m in reversed(tuple(enumerate(target.cyclic_orders))):
        column = [0]
        for k, img in zip(reversed(source.cyclic_orders), reversed(gen_images)):
            v = img[j]
            column = [(d * v + w) % m for d in range(k) for w in column]
        images = [i + place * c for i, c in zip(images, column)]
        place *= m
    return tuple(images)


def hom_violation(source: FiniteAbelianGroup, target: FiniteAbelianGroup, gen_images):
    """None when gen_images defines a homomorphism source -> target, else a
    short reason string.  The only constraint: the image of a generator of
    order a must have order dividing a, i.e. a * image = 0 in the target."""
    for img in gen_images:
        if len(img) != len(target.cyclic_orders):
            return "image tuple length"
    if len(gen_images) != len(source.cyclic_orders):
        return "one image per source generator"
    for i, (a, img) in enumerate(zip(source.cyclic_orders, gen_images)):
        if not _kills(a, img, target):
            return f"generator {i} image order"
    return None


def generator_images(source: FiniteAbelianGroup, target: FiniteAbelianGroup, images) -> tuple:
    """The gen_images of the homomorphism with this image tuple: the target
    digits of the image of each cyclic generator of source.  The generator
    of a factor of order 1 is the identity, index 0."""
    gens = []
    place = source.order
    for k in source.cyclic_orders:
        place //= k
        gens.append(target.element(images[1 % k * place]))
    return tuple(gens)


def _kills(a: int, digits, group: FiniteAbelianGroup) -> bool:
    """Whether a times the element of group with these digits is 0."""
    return all(a * d % k == 0 for d, k in zip(digits, group.cyclic_orders))


class CliffordSemigroup:
    """Flattened semigroup of a validated Clifford construction.

    Element ids follow the skeleton's canonical order block by block, group
    elements in digit order inside each block, so the id order is already
    the canonical order for diagonal matrices; the block offsets are the
    ids of the block identities.  The constructor derives the offsets, the
    blocks and the lifted unit, which verify_diagonal reads, and nothing
    per element or per pair; the rest is derived on first use.  It checks
    nothing: homs, which the semigroup keeps as given, must map strict
    pairs t < s to the image tuples of valid homs of a transitive system,
    as build_clifford and hom_systems make sure.  Every map is read
    through push, where an omitted pair is the zero map.
    """

    def __init__(self, skeleton: Semilattice, groups, homs):
        self.skeleton = skeleton
        self.groups = groups = tuple(groups)
        self.homs = homs  # (s, t) with t < s strictly -> image tuple, if given
        self._zeros = tuple((0,) * g.order for g in groups)  # zero map out of each block
        offset = [0] * skeleton.n
        blocks = []
        n = 0
        for s in skeleton.canonical_perm:
            group = groups[s]
            offset[s] = n
            blocks.append((n, group.order, group.inverses))
            n += group.order
        self.n = n
        self.offset = tuple(offset)
        # (start id, order, inverses) for each block, in id order: what
        # verify_diagonal checks Phi of the unit and of the diagonal against
        self.blocks = tuple(blocks)
        # the skeleton's unit on the block identities, as ints by element
        # id; verify_diagonal certifies it by its image under Phi
        coeffs = [0] * n
        for start, c in zip(offset, unit(skeleton)):
            coeffs[start] = c
        self.unit = tuple(coeffs)
        self.canonical_perm = tuple(range(n))

    def push(self, e: int, f: int):
        """phi_{e,f} for f <= e, as its image tuple: push(e, f)[x] is the
        index in block f of the image of element x of block e.  The identity
        for e = f, the given map, else the shared zero map of block e."""
        if e == f:
            return range(self.groups[e].order)
        return self.homs.get((e, f), self._zeros[e])

    @cached_property
    def table(self) -> tuple:
        """The multiplication table by element id, built on first use:
        the solver oracle and a verify_diagonal reject read it, the
        transform does not."""
        skeleton = self.skeleton
        # sums[r][a][b] is the id of a + b in block r
        sums = [g.sum_table(self.offset[r]) for r, g in enumerate(self.groups)]
        blocks = skeleton.canonical_perm
        table = []
        for sx in blocks:
            meets = skeleton.table[sx]
            # per block sy: the sums of r = sx meet sy, and the maps into r
            plan = []
            for sy in blocks:
                r = meets[sy]
                plan.append((sums[r], self.push(sx, r), self.push(sy, r)))
            for gx in range(self.groups[sx].order):
                row = []
                for block_sums, push_x, push_y in plan:
                    row += map(block_sums[push_x[gx]].__getitem__, push_y)
                table.append(tuple(row))
        return tuple(table)

    @cached_property
    def block_of(self) -> tuple:
        """block_of[x] is the skeleton element whose block holds x."""
        return tuple(s for s in self.skeleton.canonical_perm
                     for _ in range(self.groups[s].order))

    @cached_property
    def member_of(self) -> tuple:
        """member_of[x] is the index of x in its block's group."""
        return tuple(i for s in self.skeleton.canonical_perm
                     for i in range(self.groups[s].order))

    @cached_property
    def labels(self) -> tuple:
        """The skeleton label for a trivial block; e[label] for a block
        identity and label[digits] for the other group elements."""
        labels = []
        for s, i in zip(self.block_of, self.member_of):
            lbl = self.skeleton.labels[s]
            if self.groups[s].order == 1:
                labels.append(lbl)
            elif i == 0:
                labels.append(f"e[{lbl}]")
            else:
                digits = ".".join(str(d) for d in self.groups[s].element(i))
                labels.append(f"{lbl}[{digits}]")
        return tuple(labels)

    @cached_property
    def preimages(self) -> list:
        """preimages[a] lists the x with a in pushes(x): for x in block e,
        pushes(x) holds phi_{e,f}(x) in every block f <= e, phi_{e,e} the
        identity, so Phi(delta_x) is the sum of delta_a over a in
        pushes(x), the transform verify_diagonal lifts by."""
        preimages = [[] for _ in range(self.n)]
        offset = self.offset
        for e, below in enumerate(self.skeleton.strictly_below):
            source = offset[e]
            for f in (e,) + below:
                target = offset[f]
                for x, y in enumerate(self.push(e, f)):
                    preimages[target + y].append(source + x)
        return preimages

    def __repr__(self):
        return f"CliffordSemigroup(n={self.n}, skeleton_n={self.skeleton.n})"


def hom_choices(source: FiniteAbelianGroup, target: FiniteAbelianGroup) -> list:
    """Every gen_images tuple of a homomorphism source -> target, in the
    lexicographic order of the target's digit tuples: each generator, of
    order a, takes any image that a kills, as hom_violation asks."""
    digits = [target.element(x) for x in range(target.order)]
    return list(product(*([img for img in digits if _kills(a, img, target)]
                          for a in source.cyclic_orders)))


def _triples(skeleton: Semilattice):
    """The cover triples (r, s, t), t < s < r with s a lower cover of r,
    that a transitivity check tries: transitivity through every lower
    cover gives it through every s < r, by induction on the interval [s, r].
    """
    below = skeleton.strictly_below
    return ((r, s, t) for s, r in skeleton.hasse for t in below[s])


def _touching(skeleton: Semilattice, given):
    """Every triple (r, s, t), t < s < r, in which (r, s), (s, t) or (r, t)
    is a given pair, in (r, s, t) order.

    The triples are read off bitmasks of the given pairs' targets, so the
    cost follows the pairs and the triples listed, not the n^3 triples.
    """
    n, down, up, below = skeleton.n, skeleton.down, skeleton.up, skeleton.strictly_below
    targets, sources = [0] * n, 0  # targets[s]: the t with (s, t) given
    for s, t in given:
        targets[s] |= 1 << t
        sources |= 1 << s
    for r in range(n):
        own, spans = targets[r], 0
        for t in _bits(own):
            spans |= up[t]
        # s touches through (r, s), through some (s, t), or lies above a
        # t with (r, t) given
        for s in _bits((own | sources | spans) & down[r] & ~(1 << r)):
            if own >> s & 1:
                ts = below[s]
            else:
                ts = _bits((targets[s] | own) & down[s] & ~(1 << s))
            for t in ts:
                yield r, s, t


def _intransitive(push, triples):
    """The triples (r, s, t) among these at which phi_{s,t} after phi_{r,s}
    is not phi_{r,t}, push(s, t) being the image tuple of phi_{s,t}."""
    return ((r, s, t) for r, s, t in triples
            if tuple(map(push(s, t).__getitem__, push(r, s))) != push(r, t))


def hom_systems(skeleton: Semilattice, groups, maps=None):
    """Every transitive hom system over the skeleton, as {(s, t): image
    tuple} for all strict pairs t < s.

    Each cover pair takes a free choice from hom_choices; each longer pair
    (s, t) is the composite through the first lower cover r of s above t.  A
    system is kept when it passes the transitivity check of build_clifford
    on every cover triple but these (s, r, t), which hold by construction.

    The systems share one image tuple per distinct map: maps[(source,
    target)] is the registry {images: images} that interns the image tuple
    of every hom source -> target, built once from hom_choices: two valid
    homs are one map iff their image tuples are equal.  Calls over the same
    group objects that pass one maps dict share their maps too, so a caller
    that keeps every system holds each map once.
    """
    maps = {} if maps is None else maps

    def registry(source, target):
        if (source, target) not in maps:
            maps[source, target] = {images: images for images in (
                hom_images(source, target, imgs) for imgs in hom_choices(source, target))}
        return maps[source, target]

    cover_pairs = [(b, a) for a, b in skeleton.hasse]  # hom source above
    choice_lists = [registry(groups[s], groups[t]) for s, t in cover_pairs]
    # composites in canonical order, lowest level first, so that (r, t) is
    # set before the composite (s, t) through the lower cover r needs it
    composites = []
    for s in skeleton.canonical_perm:
        covers = [a for a, b in skeleton.hasse if b == s]
        for t in skeleton.strictly_below[s]:
            if t not in covers:
                r = next(r for r in covers if skeleton.down[r] >> t & 1)
                composites.append((s, r, t))
    checks = [triple for triple in _triples(skeleton) if triple not in composites]
    for combo in product(*choice_lists):
        homs = dict(zip(cover_pairs, combo))
        for s, r, t in composites:
            # a composite of valid homs is a hom, so the registry holds it
            homs[(s, t)] = registry(groups[s], groups[t])[tuple(
                map(homs[(r, t)].__getitem__, homs[(s, r)]))]
        if not checks or next(_intransitive(
                lambda e, f: homs[(e, f)], checks), None) is None:
            yield homs


def build_clifford(skeleton: Semilattice, groups, homs=None):
    """Check the input of a Clifford semigroup and assemble it.

    groups: one FiniteAbelianGroup per skeleton element.  homs: mapping
    (s, t) -> gen_images for strict pairs t < s; an omitted pair is the
    zero map, every element to the identity.  Returns the semigroup, which
    holds the image tuple of each given hom and nothing for an omitted
    pair, or a ValidationReport naming the first offending axiom.

    Valid homs in a transitive system over a semilattice always make a
    commutative Clifford semigroup, a strong semilattice of groups whose
    idempotents are the block identities (Clifford, Ann. of Math. 42,
    1941; Howie, Fundamentals of Semigroup Theory, 1995, section 4.2).  So
    the homs are all that is checked, and no table is built.
    """
    violations = []
    if len(groups) != skeleton.n:
        return ValidationReport(False, [Violation("groups", (len(groups),))])
    given = {}
    for (s, t), gen_images in (homs or {}).items():
        if not (0 <= s < skeleton.n and 0 <= t < skeleton.n
                and t != s and skeleton.down[s] >> t & 1):
            violations.append(Violation("hom_pair", (s, t)))
            continue
        reason = hom_violation(groups[s], groups[t], gen_images)
        if reason is not None:
            violations.append(Violation("hom_invalid", (s, t, reason)))
            continue
        given[(s, t)] = hom_images(groups[s], groups[t], gen_images)
    if violations:
        return ValidationReport(False, violations)
    g = CliffordSemigroup(skeleton, groups, given)

    # zero maps compose to zero: only a triple touching a given pair can
    # fail.  Cover triples decide; only a failure lists every such triple
    covers = ((r, s, t) for r, s, t in _triples(skeleton)
              if (r, s) in given or (s, t) in given or (r, t) in given)
    if next(_intransitive(g.push, covers), None) is None:
        return g
    witnesses = _intransitive(g.push, _touching(skeleton, given))
    return ValidationReport(False, [Violation("hom_transitive", w) for w in witnesses])


def unit_solve(base) -> tuple:
    """Solve u * delta_x = delta_x for all x over base, a Semilattice or a
    CliffordSemigroup; the unit, as the eliminator's exact values by id."""
    n = base.n
    elim = SparseEliminator(n)
    for x in range(n):
        if elim.full_rank():
            break
        rows = [{} for _ in range(n)]
        for h in range(n):
            rows[base.table[h][x]][h] = 1
        for r in range(n):
            elim.add_row(rows[r], 1 if r == x else 0, tag=(x, r))
            if elim.full_rank():
                break
    sol = elim.solve()
    if sol.status != "unique":
        raise NotUnitalError(f"algebra is not unital ({sol.status})")
    q = first_unit_failure(base, sol.vector)
    if q is not None:
        raise NotUnitalError(f"algebra is not unital (fails at element {q})")
    return sol.vector


def diagonal_closed_form(g: CliffordSemigroup) -> DiagonalTensor:
    """The closed form over the Hewitt-Zuckerman decomposition of the
    algebra into the block group algebras: in each block, the copy of every
    x paired with the copy of -x."""
    columns = mobius_table(g.skeleton).columns
    terms = []
    for e, group in enumerate(g.groups):
        inverses = group.inverses
        # copies[x]: (id of phi_{e,f}(x), mu(f, e)) over the support of column e
        copies = [[] for _ in inverses]
        for f, m in columns[e].items():
            start = g.offset[f]
            for copy, y in zip(copies, g.push(e, f)):
                copy.append((start + y, m))
        terms += [(group.order, copy, copies[y]) for copy, y in zip(copies, inverses)]
    return closed_form(g, terms)


def unit_and_diagonal(g: CliffordSemigroup) -> tuple:
    """The unit and the closed-form diagonal, once verify_diagonal
    certifies both by the transform: the production path, with unit_solve
    and diagonal_solve kept as the independent linear-algebra oracle.  No
    table is built unless the pair is rejected, and then the
    DiagonalSolveError names the witness.
    """
    u = g.unit
    d = diagonal_closed_form(g)
    ok, witness = verify_diagonal(d, u)
    if not ok:
        raise DiagonalSolveError(f"closed-form tensor fails verification: {witness}")
    return u, d


def certified_ams(instances):
    """Yield the AM of each instance from unit_and_diagonal, checking
    nothing: an instance has a skeleton, groups and homs, {(s, t): image
    tuple} of a valid transitive system, as hom_systems lists them.  The
    homs are used as they come, so an image tuple the listing shares is
    computed once; so is the inverse tuple of a group object the instances
    share.
    """
    for inst in instances:
        g = CliffordSemigroup(inst.skeleton, inst.groups, inst.homs)
        yield unit_and_diagonal(g)[1].am()


def diagonal_solve(base) -> DiagonalTensor:
    """Exact linear solve for the diagonal of the algebra of base, read
    through n, table and canonical_perm.

    The system is the moment condition m(D) = u plus centrality against
    every basis element, fed top level first until the rows reach full
    rank, and the finished tensor is checked by verify_diagonal.
    """
    n = base.n
    u = unit_solve(base)
    unknowns = n * n
    elim = SparseEliminator(unknowns)
    moment_rows = [{} for _ in range(n)]
    for x in range(n):
        row = base.table[x]
        for y in range(n):
            key = x * n + y
            moment_rows[row[y]][key] = moment_rows[row[y]].get(key, 0) + 1
    for r in range(n):
        elim.add_row(moment_rows[r], u[r], tag=("moment", r))
    for q in reversed(base.canonical_perm):
        if elim.full_rank():
            break
        pre = [[] for _ in range(n)]
        for x in range(n):
            pre[base.table[q][x]].append(x)
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
    d = DiagonalTensor(base, entries)
    ok, witness = verify_diagonal(d, u)
    if not ok:
        raise DiagonalSolveError(f"solved tensor fails verification: {witness}")
    return d


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


def _oversized_block(orders):
    """The index of the block at which the element count sum |G_e| of the
    blocks with these cyclic orders first passes MAX_ELEMENTS, or None.

    Counting stops there, so a huge order list costs no big-number
    arithmetic, and the witness is always a small number.
    """
    count = 0
    for i, entry in enumerate(orders):
        order = 1
        for k in entry:
            order *= k
            if count + order > MAX_ELEMENTS:
                return i
        count += order
    return None


def from_json_dict(obj):
    """Build from {"skeleton": ..., "groups": [...], "homs": [...]}.

    Returns CliffordSemigroup or ValidationReport.  Group entries look like
    {"cyclic": [2]} (or a bare order list); hom entries are
    {"from": s, "to": t, "gen_images": [[...], ...]}, at most one per
    (s, t) pair: a repeated pair is a "hom_pair" violation.  More than
    MAX_ELEMENTS elements in all is a "size" violation at the block that
    passes the bound, found before any group is built.  Two elements
    labelled alike, such as a trivial block labelled "e[b]" and the
    identity of a block b, are a "labels" violation naming both ids.
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
    orders = []
    for i, entry in enumerate(raw_groups):
        if isinstance(entry, dict):
            entry = entry.get("cyclic")
        if not isinstance(entry, list) or not all(
            _is_int(k) and k >= 1 for k in entry
        ):
            return ValidationReport(False, [Violation("group", (i,))])
        orders.append(entry)
    block = _oversized_block(orders)
    if block is not None:
        return ValidationReport(False, [Violation("size", (block,))])
    groups = [FiniteAbelianGroup(entry) for entry in orders]
    raw_homs = [] if obj.get("homs") is None else obj["homs"]
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
        pair = (entry["from"], entry["to"])
        if pair in homs:  # given twice: neither entry may silently win
            return ValidationReport(False, [Violation("hom_pair", pair)])
        homs[pair] = entry["gen_images"]
    g = build_clifford(skel, groups, homs)
    if isinstance(g, CliffordSemigroup):
        first = {}
        for x, label in enumerate(g.labels):
            if first.setdefault(label, x) != x:
                return ValidationReport(False, [Violation("labels", (first[label], x))])
    return g
