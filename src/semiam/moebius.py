"""Moebius inversion on the semilattice order, and the diagonal through it.

The diagonal has the closed form d(s,t) = sum over r of mu~(s,r) mu~(t,r),
with mu~ the Moebius function of the order extended by zero to
incomparable pairs.
"""

from .diagonal import DiagonalTensor
from .semilattice import Semilattice


class MoebiusTable:
    """mu(t, s) for all comparable pairs t <= s of one semilattice.

    columns[s] maps every t <= s, zeros included, to the int mu(t, s).
    """

    def __init__(self, base: Semilattice):
        self.base = base
        columns = []
        for s in range(base.n):
            # mu(t, s) = -sum of mu(r, s) over t < r <= s; reversed
            # canonical order reaches every such r before t
            column = {s: 1}
            for t in reversed(base.canonical_perm):
                if t != s and base.leq[t][s]:
                    column[t] = -sum(column[r] for r in base.strictly_above[t]
                                     if r in column)
            columns.append(column)
        self.columns = tuple(columns)

    def pairs(self):
        """All (t, s, mu) triples, sorted."""
        return sorted((t, s, v) for s, column in enumerate(self.columns)
                      for t, v in column.items())


def mobius_table(base: Semilattice) -> MoebiusTable:
    """base's MoebiusTable, built on the first call and kept on base:
    every caller shares it, and none modifies it."""
    if base._mobius is None:
        base._mobius = MoebiusTable(base)
    return base._mobius


def diagonal_via_mobius(base: Semilattice) -> DiagonalTensor:
    """d(s,t) = sum over r of mu~(s,r) mu~(t,r): one outer product per
    Moebius column, summed into int rows."""
    rows = [[0] * base.n for _ in range(base.n)]
    for column in mobius_table(base).columns:
        support = [(t, m) for t, m in column.items() if m]
        for a, ca in support:
            row = rows[a]
            for b, cb in support:
                row[b] += ca * cb
    return DiagonalTensor(base, rows)
