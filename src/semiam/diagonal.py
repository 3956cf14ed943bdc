"""Diagonals of finite commutative semigroup convolution algebras.

The algebra has one point mass per semigroup element and convolution
delta_s * delta_t = delta_{st}.  A diagonal is an element D of the tensor
square with m(D) equal to the unit and x.D = D.x for every x; for the
commutative semigroups handled here it is unique, and its absolute entry
sum is the amenability constant of the algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactlinalg import rat, rat_str
from .semilattice import Semilattice, product


class L1Vector:
    """Element of the convolution algebra over a fixed base semigroup.

    The base only needs .n and .mul(i, j); both Semilattice and
    CliffordSemigroup qualify.
    """

    def __init__(self, base, coeffs):
        coeffs = tuple(rat(c) for c in coeffs)
        if len(coeffs) != base.n:
            raise ValueError("coefficient count does not match the base")
        self.base = base
        self.coeffs = coeffs

    @classmethod
    def point_mass(cls, base, s: int) -> "L1Vector":
        return cls(base, [1 if i == s else 0 for i in range(base.n)])

    def __eq__(self, other):
        return (
            isinstance(other, L1Vector)
            and self.base.n == other.base.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "L1Vector") -> "L1Vector":
        self._check_base(other)
        return L1Vector(self.base, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def _check_base(self, other):
        if self.base.n != other.base.n:
            raise ValueError("mixed bases")

    def __repr__(self):
        parts = [
            f"{rat_str(c)}*d[{i}]" for i, c in enumerate(self.coeffs) if c
        ]
        return "L1Vector(" + (" + ".join(parts) if parts else "0") + ")"


def convolve(x: L1Vector, y: L1Vector) -> L1Vector:
    x._check_base(y)
    base = x.base
    out = [Fraction(0)] * base.n
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if b:
                out[base.mul(i, j)] += a * b
    return L1Vector(base, out)


def unit(s: Semilattice) -> L1Vector:
    """The identity of the semilattice algebra.

    u(p) = 1 - sum of u(t) over t strictly above p, working downward from
    the maximal elements; the result convolves as an identity even when the
    semilattice has no maximum.
    """
    coeffs = [None] * s.n
    for k in reversed(range(s.n)):
        p = s.canonical_perm[k]
        acc = Fraction(1)
        for t in s.strictly_above[p]:
            acc -= coeffs[t]
        coeffs[p] = acc
    return L1Vector(s, coeffs)


class DiagonalTensor:
    """A diagonal, stored as a matrix over base-element indices."""

    def __init__(self, base, entries):
        self.base = base
        self.entries = tuple(tuple(rat(v) for v in row) for row in entries)
        if len(self.entries) != base.n or any(
            len(row) != base.n for row in self.entries
        ):
            raise ValueError("entry matrix must be n x n over the base")

    @property
    def n(self) -> int:
        return self.base.n

    def scaled(self) -> tuple:
        """(L, rows) with L the least common denominator of the entries and
        rows the entries times L, as ints."""
        den = lcm(*(v.denominator for row in self.entries for v in row))
        rows = tuple(
            tuple(v.numerator * (den // v.denominator) for v in row)
            for row in self.entries
        )
        return den, rows

    def am(self) -> Fraction:
        """Amenability constant: the absolute sum of all entries."""
        den, rows = self.scaled()
        return Fraction(sum(abs(v) for row in rows for v in row), den)

    def is_symmetric(self) -> bool:
        return all(
            self.entries[g][h] == self.entries[h][g]
            for g in range(self.n)
            for h in range(g + 1, self.n)
        )

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.entries for v in row)

    def row_sums(self) -> tuple:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    def __eq__(self, other):
        return isinstance(other, DiagonalTensor) and self.entries == other.entries

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
    u = unit(s).coeffs
    top_level = s.height
    n_max = sum(1 for x in range(n) if s.level[x] == top_level)
    d = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n - n_max, n):
        d[k][k] = Fraction(1)
    above_pos = [
        tuple(pos[t] for t in s.strictly_above[x]) for x in range(n)
    ]
    for c in range(n - n_max - 1, -1, -1):
        p = perm[c]
        for j in range(n - 1, c, -1):
            q = perm[j]
            if s.leq[p][q]:
                d[c][j] = -sum((d[k][j] for k in above_pos[p]), Fraction(0))
                d[j][c] = -sum((d[j][k] for k in above_pos[p]), Fraction(0))
            else:
                # q is never below p here: lower level comes first
                d[c][j] = -sum((d[c][k] for k in above_pos[q]), Fraction(0))
                d[j][c] = -sum((d[k][c] for k in above_pos[q]), Fraction(0))
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


def verify_diagonal(d: DiagonalTensor, u: L1Vector):
    """Check the two diagonal conditions; return (True, None) or a witness.

    Conditions: m(D) = u, and delta_q . D = D . delta_q for every basis
    element q.  The witness names the first failing equation.

    Acceptance is decided in integers on the base's generating set alone:
    if q and r commute with D, so does qr.  Only a tensor that fails there
    takes the full equation walk, which names the witness.
    """
    if _holds_on_generators(d, u):
        return True, None
    return _first_failing_equation(d, u)


def _holds_on_generators(d: DiagonalTensor, u: L1Vector) -> bool:
    """Both conditions on the integer matrix L*D, centrality only against
    base.generating_set(); m(L*D) = L*u is compared by cross-multiplying."""
    base = d.base
    n = base.n
    den, rows = d.scaled()
    moment = [0] * n
    for g in range(n):
        row = rows[g]
        for h in range(n):
            moment[base.mul(g, h)] += row[h]
    if any(
        m * c.denominator != c.numerator * den
        for m, c in zip(moment, u.coeffs)
    ):
        return False
    for q in base.generating_set():
        image = [base.mul(q, x) for x in range(n)]
        left = [[0] * n for _ in range(n)]
        for x in range(n):
            target = left[image[x]]
            for h, v in enumerate(rows[x]):
                target[h] += v
        for g in range(n):
            right = [0] * n
            for y, v in enumerate(rows[g]):
                right[image[y]] += v
            if right != left[g]:
                return False
    return True


def _first_failing_equation(d: DiagonalTensor, u: L1Vector):
    base = d.base
    n = base.n
    moment = [Fraction(0)] * n
    for g in range(n):
        row = d.entries[g]
        for h in range(n):
            moment[base.mul(g, h)] += row[h]
    for r in range(n):
        if moment[r] != u.coeffs[r]:
            return False, {
                "kind": "moment",
                "element": r,
                "lhs": moment[r],
                "rhs": u.coeffs[r],
            }
    pre = [[[] for _ in range(n)] for _ in range(n)]
    for q in range(n):
        for x in range(n):
            pre[q][base.mul(q, x)].append(x)
    for q in range(n):
        pq = pre[q]
        for g in range(n):
            for h in range(n):
                lhs = sum((d.entries[x][h] for x in pq[g]), Fraction(0))
                rhs = sum((d.entries[g][x] for x in pq[h]), Fraction(0))
                if lhs != rhs:
                    return False, {
                        "kind": "centrality",
                        "q": q,
                        "pair": (g, h),
                        "lhs": lhs,
                        "rhs": rhs,
                    }
    return True, None


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
    entries = [[Fraction(0)] * n for _ in range(n)]
    for g1 in range(da.n):
        for h1 in range(da.n):
            v1 = da.entries[g1][h1]
            if not v1:
                continue
            for g2 in range(nb):
                for h2 in range(nb):
                    v2 = db.entries[g2][h2]
                    if v2:
                        entries[g1 * nb + g2][h1 * nb + h2] = v1 * v2
    return DiagonalTensor(base, entries)
