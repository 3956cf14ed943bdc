"""An independent engine for checking the program's answers.

It shares no code with the library: from a meet table it derives the
order, the Moebius function and the diagonal D = M M^T (M the Moebius
matrix extended by zero to incomparable pairs), all in Python integers.
The closed forms 4n+1, 4n^2+4n+1 and 5^n check it in the self-tests.
"""

from __future__ import annotations


def canonical_order(table) -> list:
    """Elements by level (strip maximal elements repeatedly), then by id.

    This is the order in which the command line writes matrices.
    """
    n = len(table)
    remaining = set(range(n))
    strips = []
    while remaining:
        strip = {
            s for s in remaining
            if not any(t != s and table[s][t] == s for t in remaining)
        }
        strips.append(strip)
        remaining -= strip
    level = {}
    for k, strip in enumerate(strips):
        for s in strip:
            level[s] = len(strips) - 1 - k
    return sorted(range(n), key=lambda s: (level[s], s))


def diagonal(table) -> list:
    """The diagonal as an integer matrix indexed by element ids."""
    n = len(table)
    # a linear extension of the order: fewer elements below comes first
    rank = {
        s: k for k, s in enumerate(
            sorted(range(n), key=lambda s: sum(table[r][s] == r for r in range(n)))
        )
    }
    columns = [dict() for _ in range(n)]  # columns[r][s] = mu(s, r)
    for s in range(n):
        above = sorted((r for r in range(n) if table[s][r] == s), key=rank.__getitem__)
        mu = {}
        for r in above:
            mu[r] = 1 if r == s else -sum(v for q, v in mu.items() if table[q][r] == q)
        for r, v in mu.items():
            if v:
                columns[r][s] = v
    d = [[0] * n for _ in range(n)]
    for column in columns:
        items = list(column.items())
        for s, a in items:
            row = d[s]
            for t, b in items:
                row[t] += a * b
    return d


def amenability(table) -> int:
    return sum(abs(v) for row in diagonal(table) for v in row)
