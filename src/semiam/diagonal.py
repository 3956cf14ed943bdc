"""Diagonals of finite commutative semigroup convolution algebras.

The algebra has one point mass per semigroup element and convolution
delta_s * delta_t = delta_{st}; an element of it, such as the unit, is a
coefficient tuple indexed by element id.  A diagonal is an element D of the tensor
square with m(D) equal to the unit and x.D = D.x for every x; for the
commutative semigroups handled here it is unique, and its absolute entry
sum is the amenability constant of the algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import add

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
        common = gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
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

    Work in canonical order (levels ascending): the block of the maximal
    elements is the identity, and each earlier element p fills its row and
    column from already-known entries:

      - p < q:   d(p,q) = -sum of d(s,q) over s > p, and symmetrically;
      - p, q incomparable:  d(p,q) = -sum of d(p,t) over t > q;
      - finally d(p,p) = u(p) - sum of d(s,t) over pairs above (p,p)
        with s*t = p.
    """
    n = s.n
    perm = s.canonical_perm
    pos = s.position
    u = unit(s)
    top_level = s.height
    n_max = sum(1 for x in range(n) if s.level[x] == top_level)
    d = [[0] * n for _ in range(n)]
    for k in range(n - n_max, n):
        d[k][k] = 1
    above_pos = [
        tuple(pos[t] for t in s.strictly_above[x]) for x in range(n)
    ]
    for c in range(n - n_max - 1, -1, -1):
        p = perm[c]
        for j in range(n - 1, c, -1):
            q = perm[j]
            if s.leq[p][q]:
                d[c][j] = -sum(d[k][j] for k in above_pos[p])
                d[j][c] = -sum(d[j][k] for k in above_pos[p])
            else:
                # q is never below p here: lower level comes first
                d[c][j] = -sum(d[c][k] for k in above_pos[q])
                d[j][c] = -sum(d[k][c] for k in above_pos[q])
        # s*t = p forces s >= p and t >= p, so positions from c onward
        # cover every contributing pair
        acc = u[p]
        for i in range(c, n):
            row = d[i]
            meets = s.table[perm[i]]
            for j in range(c, n):
                if (i != c or j != c) and meets[perm[j]] == p:
                    acc -= row[j]
        d[c][c] = acc
    raw = [[d[pos[g]][pos[h]] for h in range(n)] for g in range(n)]
    return DiagonalTensor(s, raw)


def verify_diagonal(d: DiagonalTensor, u):
    """Check the two diagonal conditions; return (True, None) or a witness.

    Conditions: m(D) = u, and delta_q . D = D . delta_q for every basis
    element q.  The witness names the first failing equation.  Everything
    runs on the int matrix den*D; m(den*D) = den*u is compared by
    cross-multiplying, with u given as ints or Fractions.

    Acceptance checks centrality on the base's generating set alone: if q
    and r commute with D, so does qr.  Only a symmetric D can be central,
    and it is checked on one side (see _central_when_symmetric).  Any
    other tensor, and one that fails there, walks every q, which names the
    witness.
    """
    base = d.base
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
    # l1 of a semilattice or Clifford semigroup is commutative and
    # semisimple, so a D central for it is a sum of c_i e_i (x) e_i over its
    # minimal idempotents e_i, hence symmetric: an asymmetric D fails below
    columns = tuple(zip(*d.rows))
    if columns == d.rows and all(
            _central_when_symmetric(d, q) for q in base.generating_set()):
        return True, None
    q, (g, h, lhs, rhs) = next(
        (q, found) for q in range(base.n)
        if (found := _noncentral_pair(d, columns, q))
    )
    return False, {"kind": "centrality", "q": q, "pair": (g, h),
                   "lhs": lhs, "rhs": rhs}


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


def _central_when_symmetric(d: DiagonalTensor, q: int) -> bool:
    """Whether delta_q . D = D . delta_q, for a D equal to its transpose.

    With L the left side, L[a][b] = sum of D[x][b] over qx = a, symmetry
    makes the right side (D . delta_q)[a][b] = sum of D[a][y] over qy = b
    equal to L[b][a]: q commutes with D iff L is symmetric."""
    left = _sums_by_image(d.rows, d.base.table[q])
    return left == list(zip(*left))


def _sums_by_image(vectors, image) -> list:
    """Entry a is the sum of vectors[x] over the x with image[x] = a, or
    a zero vector when there is no such x."""
    zero = (0,) * len(vectors)
    sums = [zero] * len(vectors)
    for vector, a in zip(vectors, image):
        known = sums[a]
        sums[a] = vector if known is zero else tuple(map(add, known, vector))
    return sums
