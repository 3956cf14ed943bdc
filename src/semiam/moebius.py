"""Moebius inversion on the semilattice order, and the diagonal through it.

The order embeds into pointwise function algebras via down-set indicators;
inverting that embedding needs the Moebius function of the order, and the
diagonal has the closed form d(s,t) = sum over r of mu~(s,r) mu~(t,r) with
mu~ the Moebius function extended by zero to incomparable pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .diagonal import DiagonalTensor, L1Vector
from .exactlinalg import rat
from .semilattice import Semilattice


class MoebiusTable:
    """mu(t, s) for all comparable pairs t <= s of one semilattice."""

    def __init__(self, base: Semilattice):
        self.base = base
        mu = {}
        # fill intervals bottom-up in the canonical order so that every
        # mu(t, r) with r < s is ready when s is reached
        for t in range(base.n):
            mu[(t, t)] = 1
        for s in base.canonical_perm:
            for t in range(base.n):
                if t == s or not base.leq[t][s]:
                    continue
                acc = 0
                for r in range(base.n):
                    if base.leq[t][r] and base.leq[r][s] and r != s:
                        acc += mu[(t, r)]
                mu[(t, s)] = -acc
        self.mu = mu

    def value(self, t: int, s: int) -> int:
        """mu(t, s); raises KeyError when t is not below s."""
        return self.mu[(t, s)]

    def extended(self, t: int, s: int) -> int:
        """mu~(t, s): the Moebius value for t <= s and 0 otherwise."""
        return self.mu.get((t, s), 0)

    def pairs(self):
        """All (t, s, mu) triples, sorted."""
        return sorted((t, s, v) for (t, s), v in self.mu.items())


def mobius_table(base: Semilattice) -> MoebiusTable:
    return MoebiusTable(base)


def schutzenberger(x: L1Vector) -> tuple:
    """Map a point mass to its down-set indicator, extended linearly.

    Returns the pointwise function as a coefficient tuple: value at t is the
    sum of x(s) over s >= t.  This is an algebra homomorphism into functions
    under pointwise multiplication.
    """
    base = x.base
    return tuple(
        sum((x.coeffs[s] for s in range(base.n) if base.leq[t][s]), Fraction(0))
        for t in range(base.n)
    )


def schutzenberger_inverse(values, base: Semilattice) -> L1Vector:
    """Inverse of the down-set indicator map: x(t) = sum mu(t,s) f(s), s >= t."""
    values = [rat(v) for v in values]
    if len(values) != base.n:
        raise ValueError("value count does not match the base")
    table = mobius_table(base)
    coeffs = [
        sum(
            (table.value(t, s) * values[s] for s in range(base.n) if base.leq[t][s]),
            Fraction(0),
        )
        for t in range(base.n)
    ]
    return L1Vector(base, coeffs)


def diagonal_via_mobius(base: Semilattice) -> DiagonalTensor:
    """d(s,t) = sum over r of mu~(s,r) mu~(t,r)."""
    table = mobius_table(base)
    n = base.n
    rows = []
    for s in range(n):
        mu_s = [table.extended(s, r) for r in range(n)]
        rows.append(mu_s)
    entries = [
        [
            Fraction(sum(rows[s][r] * rows[t][r] for r in range(n)))
            for t in range(n)
        ]
        for s in range(n)
    ]
    return DiagonalTensor(base, entries)
