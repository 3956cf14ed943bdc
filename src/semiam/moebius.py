"""Moebius inversion on the semilattice order, and the one closed form
for a diagonal, over the orthogonal idempotent basis it gives.

The copy of x in block G_e is c_x = sum over f <= e of
mu(f, e) delta_{phi_{e,f}(x)}, and D = sum over e of |G_e|^-1 sum over
x in G_e of c_x (x) c_{-x} (Hewitt and Zuckerman, Trans. AMS 83, 1956).
On a semilattice every block is trivial.
"""

from math import lcm

from .diagonal import DiagonalTensor
from .semilattice import Semilattice, _bits


class MoebiusTable:
    """mu(t, s) of one semilattice on its support: columns[s] maps each
    t <= s with mu(t, s) != 0, and no other t, to the int mu(t, s), the
    orthogonal idempotent of s that the closed forms read.  pairs() adds
    the zeros."""

    def __init__(self, base: Semilattice):
        self.base = base
        level, up, below = base.level, base.up, base.strictly_below
        columns = []
        for s in range(base.n):
            # mu(t, s) = -sum of mu(r, s) over t < r <= s, over the support
            # found so far; levels descending reach every such r before t
            column, support = {s: 1}, 1 << s
            for t in sorted(below[s], key=level.__getitem__, reverse=True):
                m = -sum(map(column.__getitem__, _bits(support & up[t])))
                if m:
                    column[t] = m
                    support |= 1 << t
            columns.append(column)
        self.columns = tuple(columns)

    def pairs(self):
        """Every (t, s, mu(t, s)) with t <= s, zeros included, sorted."""
        return sorted((t, s, column.get(t, 0))
                      for s, column in enumerate(self.columns)
                      for t in _bits(self.base.down[s]))


def mobius_table(base: Semilattice) -> MoebiusTable:
    """base's MoebiusTable, built on the first call and kept on base:
    every caller shares it, and none modifies it."""
    if base._mobius is None:
        base._mobius = MoebiusTable(base)
    return base._mobius


def closed_form(base, terms) -> DiagonalTensor:
    """den * D in int rows, den = lcm of the k, from terms, a list of
    (k, c, c'): one per element x of a block of order k, with c and c' the
    copies of x and of -x as sparse (id, coefficient) lists over base."""
    den = lcm(*{k for k, _, _ in terms})
    rows = [[0] * base.n for _ in range(base.n)]
    for k, left, right in terms:
        weight = den // k
        for a, ca in left:
            row = rows[a]
            wa = weight * ca
            for b, cb in right:
                row[b] += wa * cb
    return DiagonalTensor(base, rows, den)


def diagonal_via_mobius(base: Semilattice) -> DiagonalTensor:
    """The closed form with one trivial block per element: one term
    (1, c, c) per Moebius column c."""
    return closed_form(base, [(1, c.items(), c.items())
                              for c in mobius_table(base).columns])
