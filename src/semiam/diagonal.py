"""Diagonals of finite commutative semigroup convolution algebras.

The algebra has one point mass per semigroup element and convolution
delta_s * delta_t = delta_{st}; an element of it, such as the unit, is a
coefficient tuple indexed by element id.  A diagonal is an element D of the tensor
square with m(D) equal to the unit and x.D = D.x for every x; for the
commutative semigroups handled here it is unique, and its absolute entry
sum is the amenability constant of the algebra.
"""

from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, eq

from .exactlinalg import rat, rat_str
from .semilattice import Semilattice


def unit(s: Semilattice) -> tuple:
    """The identity of the semilattice algebra, as int coefficients by
    element id.

    u(p) = 1 - sum of u(t) over t strictly above p, working downward from
    the maximal elements; the result acts as an identity even when the
    semilattice has no maximum.  Computed on the first call and kept on s.
    """
    if s._unit is None:
        coeffs = [0] * s.n
        for p in reversed(s.canonical_perm):
            coeffs[p] = 1 - sum(coeffs[t] for t in s.strictly_above[p])
        s._unit = tuple(coeffs)
    return s._unit


def first_unit_failure(base, u):
    """The first element q with u * delta_q != delta_q, or None.

    u is a coefficient tuple by element id over a commutative base.
    """
    support = [(x, c) for x, c in enumerate(u) if c]
    for q in range(base.n):
        image = [0] * base.n
        for x, c in support:
            image[base.table[x][q]] += c
        delta_q = [0] * base.n
        delta_q[q] = 1
        if image != delta_q:
            return q
    return None


class DiagonalTensor:
    """A diagonal, stored as an int matrix over one positive denominator.

    Entry (g, h) is rows[g][h] / den, in lowest terms: den is the least
    common denominator of the entries.  The constructor takes ints or
    rationals, with an optional common denominator den for all of them.
    """

    def __init__(self, base, entries, den=1):
        rows = tuple(map(tuple, entries))
        if len(rows) != base.n or any(len(row) != base.n for row in rows):
            raise ValueError("entry matrix must be n x n over the base")
        if type(den) is not int or den < 1:
            raise ValueError("den must be a positive int")
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            values = [[rat(v) for v in row] for row in rows]
            scale = lcm(*(v.denominator for row in values for v in row))
            rows = tuple(tuple(v.numerator * (scale // v.denominator) for v in row)
                         for row in values)
            den *= scale
        common = den
        if den > 1:
            # row by row: most Clifford diagonals reach 1 on their first row
            for row in rows:
                common = gcd(common, *row)
                if common == 1:
                    break
        if common > 1:
            rows = tuple(tuple(v // common for v in row) for row in rows)
            den //= common
        self.base = base
        self.den = den
        self.rows = rows

    @property
    def n(self) -> int:
        return self.base.n

    def am(self) -> Fraction:
        """Amenability constant: the absolute sum of all entries."""
        return Fraction(sum(map(abs, chain.from_iterable(self.rows))), self.den)

    def __eq__(self, other):
        return isinstance(other, DiagonalTensor) and (self.den, self.rows) == (
            other.den, other.rows)

    def __repr__(self):
        return f"DiagonalTensor(n={self.n}, am={rat_str(self.am())})"


def diagonal_recursive(s: Semilattice) -> DiagonalTensor:
    """Compute the diagonal by the corner-growing recursion.

    Work backward through canonical order (levels ascending), so every
    element strictly above p is done before p.  Each p first fills its row
    and column against the elements q after it, from entries already known:

      - p < q:   d(p,q) = -sum of d(s,q) over s > p, and symmetrically;
      - p, q incomparable:  d(p,q) = -sum of d(p,t) over t > q;

    and adds them to the moment m(D) at pq.  Then d(p,p) = u(p) - m(D)(p):
    s*t = p forces s, t >= p, so every other entry of the moment at p is
    written by then.  A maximal p has no such entry and gets d(p,p) = 1.
    """
    n, table, above = s.n, s.table, s.strictly_above
    u = unit(s)
    d = [[0] * n for _ in range(n)]
    moment = [0] * n
    perm = s.canonical_perm
    for c in range(n - 1, -1, -1):
        p = perm[c]
        row_p, meets = d[p], table[p]
        for q in reversed(perm[c + 1:]):
            row_q, meet = d[q], meets[q]
            if meet == p:  # p < q
                pq = -sum(d[t][q] for t in above[p])
                qp = -sum(map(row_q.__getitem__, above[p]))
            else:
                # q is never below p here: lower level comes first
                pq = -sum(map(row_p.__getitem__, above[q]))
                qp = -sum(d[t][p] for t in above[q])
            row_p[q], row_q[p] = pq, qp
            moment[meet] += pq + qp
        row_p[p] = u[p] - moment[p]
    return DiagonalTensor(s, d)


def verify_diagonal(d: DiagonalTensor, u):
    """Check that D is the diagonal and u the unit; return (True, None) or
    a witness.

    Acceptance reads no table.  The Hewitt-Zuckerman map Phi, Phi(delta_x)
    the sum of delta_a over the a whose preimage lists hold x, is an
    algebra isomorphism of l1(S) onto a direct sum of group algebras, one
    per block, trivial on a semilattice, where Phi is the zeta transform.
    So u is the unit exactly when Phi(u) is the sum of the block
    identities, and D is the diagonal exactly when (Phi (x) Phi)(D) = T,
    the diagonal of that sum (see _transform_accepts).  The base supplies
    preimages and blocks, each block as (start id, order, the inverse
    index of each member) in id order, and table for a reject.

    A reject walks the table to name the first failing equation: m(D) = u,
    then delta_q . D = D . delta_q for every basis element q, compared in
    ints on den*D, with u given as ints or Fractions.  A central D whose
    moment is u fails only when u is not the unit: the witness then names
    the first a at which Phi(u) is wrong.
    """
    base = d.base
    lifted_u = lift_vector(u, base.preimages)
    if all(map(eq, lifted_u, _identities(base.blocks))) and _transform_accepts(d):
        return True, None
    moment = [0] * base.n
    for row, products in zip(d.rows, base.table):
        for p, v in zip(compress(products, row), filter(None, row)):
            moment[p] += v
    for r, c in enumerate(u):
        if moment[r] * c.denominator != c.numerator * d.den:
            return False, {
                "kind": "moment",
                "element": r,
                "lhs": Fraction(moment[r], d.den),
                "rhs": Fraction(c),
            }
    columns = tuple(zip(*d.rows))
    for q in range(base.n):
        found = _noncentral_pair(d, columns, q)
        if found:
            g, h, lhs, rhs = found
            return False, {"kind": "centrality", "q": q, "pair": (g, h),
                           "lhs": lhs, "rhs": rhs}
    for a, (lhs, rhs) in enumerate(zip(lifted_u, _identities(base.blocks))):
        if lhs != rhs:
            return False, {"kind": "unit", "element": a,
                           "lhs": Fraction(lhs), "rhs": Fraction(rhs)}
    # a central D whose moment is the unit is the diagonal, which the
    # transform accepts: never accept what only the table passes
    raise RuntimeError("the two certificates disagree: the transform "
                       "rejects a central tensor whose moment is the unit")


def lift_vector(u, preimages) -> tuple:
    """Phi(u): entry a is the sum of u[x] over x in preimages[a]."""
    return tuple([sum(map(u.__getitem__, xs)) for xs in preimages])


def _lift(vectors, preimages) -> list:
    """Entry a is the sum of vectors[x] over x in preimages[a]: the rows
    of Z^T V for V with these rows, Z[x][a] = [x in preimages[a]]."""
    return [vectors[xs[0]] if len(xs) == 1
            else tuple(map(sum, zip(*map(vectors.__getitem__, xs))))
            for xs in preimages]


def _identities(blocks):
    """Phi of the unit, the sum of the block identities, entry by entry in
    id order: 1 at each block's start and 0 at its other members."""
    for _, order, _ in blocks:
        yield 1
        yield from repeat(0, order - 1)


def _transform_accepts(d: DiagonalTensor) -> bool:
    """Whether (Phi (x) Phi)(D) = T, checked as Z^T (den D) Z = den T in
    ints: the rows of den*D are lifted, then the columns of the result.
    T = sum over blocks f of |G_f|^-1 sum over x in G_f of delta_x (x)
    delta_-x, so row a of den*T, for a in a block of order k, holds den/k
    at -a and 0 elsewhere; it is integral only when every k divides den.

    On a semilattice, Z[x][a] = [a <= x] and T is the identity: the
    characters of l1(S) are x -> [a <= x], and the Gelfand transform takes
    the diagonal to the diagonal of C^n.  Z is invertible, so this holds
    for the diagonal and for no other tensor.
    """
    den, blocks, preimages = d.den, d.base.blocks, d.base.preimages
    if any(den % order for _, order, _ in blocks):
        return False  # den * T is not integral, den * (Phi (x) Phi)(D) is
    rows = _lift(d.rows, preimages)
    # the lifted columns are the rows of the transpose of Z^T (den D) Z,
    # and den * T is symmetric
    rows = _lift(tuple(zip(*rows)), preimages)
    # weight >= 1, so a row with weight at -a has n - 1 zeros exactly when
    # it is 0 everywhere else
    zeros = d.n - 1
    for start, order, inverses in blocks:
        weight = den // order
        for a, y in enumerate(inverses, start):
            row = rows[a]
            if row[start + y] != weight or row.count(0) != zeros:
                return False
    return True


def _noncentral_pair(d: DiagonalTensor, columns, q: int):
    """The first (g, h, lhs, rhs), g then h ascending, where entry (g, h) of
    delta_q . D (lhs) differs from that of D . delta_q (rhs); else None.

    columns are the columns of den*D.  Row a of the left side sums the rows
    x of D with qx = a; column b of the right side sums the columns y with
    qy = b."""
    image = d.base.table[q]
    left = _sums_by_image(d.rows, image)
    right = _sums_by_image(columns, image)
    for g, (lhs, rhs) in enumerate(zip(left, zip(*right))):
        if lhs != rhs:
            h = next(h for h in range(d.n) if lhs[h] != rhs[h])
            return g, h, Fraction(lhs[h], d.den), Fraction(rhs[h], d.den)
    return None


def _sums_by_image(vectors, image) -> list:
    """Entry a is the sum of vectors[x] over the x with image[x] = a, or
    a zero vector when there is no such x."""
    zero = (0,) * len(vectors)
    sums = [zero] * len(vectors)
    for vector, a in zip(vectors, image):
        known = sums[a]
        sums[a] = vector if known is zero else tuple(map(add, known, vector))
    return sums
