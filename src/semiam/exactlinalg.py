"""Exact rational scalars and sparse exact linear solving.

No floats appear anywhere.  The diagonal engines compute in ints; scalars
returned are stdlib Fractions (already reduced, positive denominator).  The
sparse eliminator behind the solver oracle takes int rows with a rational
right hand side, and reports unsolvable or underdetermined systems with a
witness instead of guessing.
"""

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd


# an optional sign, digits, and an optional /digits, read after str.strip()
# as Fraction() read them: it would also take exponents, and expands
# 1e9999999
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def rat(value) -> Fraction:
    """Coerce an int, a string like '-3/4' or '7', or a Fraction to a
    Fraction.

    Floats are rejected: a binary float is almost never the rational the
    caller had in mind.  So are strings of any other form, decimals and
    exponents among them, with a ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match is None:
            raise ValueError(f"not an integer or p/q string: {value!r}")
        numerator, denominator = match.groups()
        return Fraction(int(numerator), int(denominator or 1))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value) -> str:
    """Render as 'p/q', or plain 'p' when the denominator is 1."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_decimal(value, digits: int = 6) -> str:
    """Exact decimal expansion, truncated toward zero after `digits` places."""
    q = rat(value)
    sign = "-" if q < 0 else ""
    q = -q if q < 0 else q
    whole, rem = divmod(q.numerator, q.denominator)
    if digits <= 0:
        return f"{sign}{whole}"
    frac_digits = rem * 10**digits // q.denominator
    return f"{sign}{whole}.{str(frac_digits).zfill(digits)}"


class LinearSolution(namedtuple(
    "LinearSolution", "status vector inconsistent_row free_column",
    defaults=(None, None, None),
)):
    """Outcome of an exact linear solve.

    status is 'unique' (vector set), 'none' (inconsistent_row is the tag of
    an equation that reduced to 0 = nonzero), or 'many' (free_column is the
    least undetermined unknown).
    """

    __slots__ = ()


class SparseEliminator:
    """Incremental exact Gaussian elimination over the rationals.

    Rows come in as {column: int coefficient} plus a rational right hand
    side; each is scaled by that side's denominator to a primitive integer
    vector, reduced against the pivots seen so far, and kept only if it
    contributes a new pivot.  Feeding rows lazily and stopping at full rank
    is the cheap path the solver oracle relies on.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, tuple[dict, int]] = {}  # in insertion order
        self.inconsistent: object | None = None

    def full_rank(self) -> bool:
        return len(self.pivot_rows) == self.ncols

    @staticmethod
    def _normalize(row: dict, rhs: int) -> tuple[dict, int]:
        g = abs(rhs)
        for v in row.values():
            g = gcd(g, abs(v))
            if g == 1:
                return row, rhs
        if g > 1:
            row = {c: v // g for c, v in row.items()}
            rhs //= g
        return row, rhs

    def add_row(self, coeffs: dict, rhs, tag=None) -> str:
        """Reduce one equation, {column: int coefficient} = rhs, into the
        basis; rhs is anything rat() reads.

        Returns 'pivot', 'dependent', or 'inconsistent'.
        """
        rhs = rat(rhs)
        row = {c: v * rhs.denominator for c, v in coeffs.items() if v}
        row, irhs = self._normalize(row, rhs.numerator)
        while True:
            common = row.keys() & self.pivot_rows.keys()
            if not common:
                break
            c = min(common)
            brow, brhs = self.pivot_rows[c]
            a = row.pop(c)
            b = brow[c]
            if b != 1:
                row = {col: v * b for col, v in row.items()}
                irhs *= b
            for col, v in brow.items():
                if col == c:
                    continue
                nv = row.get(col, 0) - a * v
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
            irhs -= a * brhs
            row, irhs = self._normalize(row, irhs)
        if not row:
            if irhs:
                if self.inconsistent is None:
                    self.inconsistent = tag
                return "inconsistent"
            return "dependent"
        pivot = min(row)
        self.pivot_rows[pivot] = (row, irhs)
        return "pivot"

    def solve(self) -> LinearSolution:
        if self.inconsistent is not None:
            return LinearSolution("none", inconsistent_row=self.inconsistent)
        if not self.full_rank():
            free = next(c for c in range(self.ncols) if c not in self.pivot_rows)
            return LinearSolution("many", free_column=free)
        # A stored row only mentions columns that were not yet pivots at its
        # insertion time, so reverse insertion order is back-substitutable.
        x: list = [None] * self.ncols
        for pivot, (row, rhs) in reversed(self.pivot_rows.items()):
            acc = Fraction(rhs)
            for col, v in row.items():
                if col != pivot:
                    acc -= v * x[col]
            x[pivot] = acc / row[pivot]
        return LinearSolution("unique", vector=tuple(x))

