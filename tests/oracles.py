"""Independent oracles that only the tests use.

Two enumeration strategies that back up enumerate_by_extension,
relabelling and an isomorphism search, the diagonal of a product built
from its factors, the push of a diagonal along a quotient map, the
down-set (Schutzenberger) transform with its Moebius inverse, the index
of a group element from its digits, and the reference verifier, which
walks the defining equations of a diagonal on the multiplication table.
Elements of the algebra are coefficient tuples indexed by element id, as
the unit is in the library.
"""

from fractions import Fraction
from itertools import combinations, product as iproduct

from semiam.diagonal import DiagonalTensor
from semiam.enumeration import canonical_table
from semiam.moebius import mobius_table
from semiam.semilattice import Semilattice, _invariant, check_table, product


def enumerate_by_families(n: int) -> list:
    """Strategy B: families {empty} + (n-1) distinct nonempty subsets of an
    (n-1)-point ground set, closed under pairwise intersection.

    Stripping the bottom from every down-set turns any size-n semilattice
    into exactly such a family, and any such family is a semilattice under
    intersection.  Returns sorted canonical tables.
    """
    if n < 1:
        return []
    if n == 1:
        return [((0,),)]
    ground = n - 1
    masks = list(range(1, 1 << ground))
    found = set()
    for chosen in combinations(masks, n - 1):
        family = frozenset(chosen) | {0}
        closed = True
        for a, b in combinations(chosen, 2):
            if a & b not in family:
                closed = False
                break
        if not closed:
            continue
        fam = sorted(family)
        index = {m: i for i, m in enumerate(fam)}
        table = [
            [index[a & b] for b in fam]
            for a in fam
        ]
        found.add(canonical_table(Semilattice(table)))
    return sorted(found)


def enumerate_brute(n: int) -> list:
    """Oracle for small n: filter all symmetric idempotent tables.

    Cost grows as n**(n(n-1)/2); intended for n <= 4.
    """
    if n < 1:
        return []
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = set()
    for values in iproduct(range(n), repeat=len(slots)):
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = i
        for (i, j), v in zip(slots, values):
            table[i][j] = table[j][i] = v
        if check_table(table).ok:
            found.add(canonical_table(Semilattice(table)))
    return sorted(found)


def relabel(s: Semilattice, perm) -> Semilattice:
    """Image of s under the bijection old index -> perm[old index]."""
    n = s.n
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    table = [[perm[s.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return Semilattice(table, [s.labels[inv[i]] for i in range(n)])


def are_isomorphic(a: Semilattice, b: Semilattice):
    """Return (True, perm) with perm[i in a] = image in b, or (False, None)."""
    if a.n != b.n:
        return False, None
    inv_a = [_invariant(a, x) for x in range(a.n)]
    inv_b = [_invariant(b, x) for x in range(b.n)]
    if sorted(inv_a) != sorted(inv_b):
        return False, None
    n = a.n
    order = a.canonical_perm
    candidates = {x: [y for y in range(n) if inv_b[y] == inv_a[x]] for x in order}
    perm = [None] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        x = order[k]
        for y in candidates[x]:
            if used[y]:
                continue
            ok = True
            # meets of x with placed elements are already placed: a meet is
            # strictly below x, so it comes earlier in canonical order
            for x2 in order[:k]:
                if perm[a.table[x][x2]] != b.table[y][perm[x2]]:
                    ok = False
                    break
            if not ok:
                continue
            perm[x] = y
            used[y] = True
            if extend(k + 1):
                return True
            perm[x] = None
            used[y] = False
        return False

    if extend(0):
        return True, tuple(perm)
    return False, None


def tensor_diagonal(da: DiagonalTensor, db: DiagonalTensor) -> DiagonalTensor:
    """Diagonal of the product semilattice from diagonals of the factors.

    Indexing matches semilattice.product: pair (i, j) at i*b.n + j, so the
    entry matrix is the Kronecker product of the factors' matrices.
    """
    if not isinstance(da.base, Semilattice) or not isinstance(db.base, Semilattice):
        raise TypeError("tensor_diagonal expects semilattice bases")
    base = product(da.base, db.base)
    nb = db.n
    n = base.n
    rows = [[0] * n for _ in range(n)]
    for g1, row1 in enumerate(da.rows):
        for h1, v1 in enumerate(row1):
            if not v1:
                continue
            for g2, row2 in enumerate(db.rows):
                target = rows[g1 * nb + g2]
                for h2, v2 in enumerate(row2):
                    if v2:
                        target[h1 * nb + h2] = v1 * v2
    return DiagonalTensor(base, rows, da.den * db.den)


def push(d: DiagonalTensor, theta, y: Semilattice) -> DiagonalTensor:
    """(theta (x) theta)(d) over y, for theta a map of d's base onto y given
    as theta[x], the id of x's image: entry (a, b) of d is added into entry
    (theta[a], theta[b])."""
    rows = [[0] * y.n for _ in range(y.n)]
    for a, row in enumerate(d.rows):
        target = rows[theta[a]]
        for b, v in enumerate(row):
            target[theta[b]] += v
    return DiagonalTensor(y, rows, d.den)


def digits_index(group, digits) -> int:
    """The index of the element of group with these digits, each reduced
    mod its cyclic order, found by search over group.element."""
    reduced = tuple(d % k for d, k in zip(digits, group.cyclic_orders))
    return next(i for i in range(group.order) if group.element(i) == reduced)


def point_mass(base, s: int) -> tuple:
    """delta_s as a coefficient tuple; delta_s * delta_t = delta_{st}."""
    return tuple(int(x == s) for x in range(base.n))


def schutzenberger(base: Semilattice, coeffs) -> tuple:
    """Map a point mass to its down-set indicator, extended linearly.

    Returns the pointwise function as a coefficient tuple: value at t is the
    sum of coeffs[s] over s >= t.  This is an algebra homomorphism into
    functions under pointwise multiplication.
    """
    return tuple(
        sum(c for s, c in enumerate(coeffs) if base.table[t][s] == t)
        for t in range(base.n)
    )


def schutzenberger_inverse(base: Semilattice, values) -> tuple:
    """Inverse of the down-set indicator map: x(t) = sum mu(t,s) f(s), s >= t."""
    if len(values) != base.n:
        raise ValueError("value count does not match the base")
    columns = mobius_table(base).columns
    return tuple(
        sum(columns[s].get(t, 0) * values[s]
            for s in range(base.n) if base.table[t][s] == t)
        for t in range(base.n)
    )


def mobius_by_definition(base: Semilattice) -> dict:
    """{(t, s): mu(t, s)} for every comparable pair t <= s, zeros included,
    straight from the definition on the meet table: mu(t, t) = 1, and
    mu(t, s) = -sum of mu(t, r) over the interval t <= r < s, summed from
    below, where MoebiusTable sums from above over its support."""
    mu = {}
    for t in range(base.n):
        # the up-set of t in canonical order: t first, every r < s before s
        above = [r for r in base.canonical_perm if base.table[t][r] == t]
        for i, s in enumerate(above):
            mu[t, s] = 1 if s == t else -sum(
                mu[t, r] for r in above[:i] if base.table[r][s] == r)
    return mu


def first_failing_equation(d: DiagonalTensor, u) -> tuple:
    """The reference verifier, straight from the definitions on the base's
    table: (True, None) when m(D) = u and delta_q . D = D . delta_q for
    every basis element q, else the first failing equation, in the order
    and the form in which verify_diagonal names it.

    The equations are compared on den*D in ints, entry by entry: (delta_q .
    D)[g][h] sums D[x][h] over the x with qx = g, and (D . delta_q)[g][h]
    sums D[g][y] over the y with qy = h.  u must be the unit: this checks
    the two conditions, not that u is one.
    """
    base = d.base
    n, table, rows = base.n, base.table, d.rows
    moment = [0] * n
    for g in range(n):
        for h in range(n):
            moment[table[g][h]] += rows[g][h]
    for r in range(n):
        lhs = Fraction(moment[r], d.den)
        if lhs != u[r]:
            return False, {"kind": "moment", "element": r, "lhs": lhs, "rhs": u[r]}
    for q in range(n):
        image = table[q]
        left = [[0] * n for _ in range(n)]
        right = [[0] * n for _ in range(n)]
        for x in range(n):
            for h in range(n):
                left[image[x]][h] += rows[x][h]
                right[x][image[h]] += rows[x][h]
        for g in range(n):
            for h in range(n):
                if left[g][h] != right[g][h]:
                    return False, {
                        "kind": "centrality",
                        "q": q,
                        "pair": (g, h),
                        "lhs": Fraction(left[g][h], d.den),
                        "rhs": Fraction(right[g][h], d.den),
                    }
    return True, None
