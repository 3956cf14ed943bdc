"""Finite meet semilattices presented by explicit meet tables.

A semilattice here is a finite commutative idempotent semigroup.  The table
is the ground truth; the partial order (s <= t iff s*t = s), the minimum,
the ideal chain obtained by repeatedly stripping maximal elements, the level
grading and a canonical element order are all derived from it.
"""

from collections import namedtuple
from functools import cached_property
from itertools import product as iproduct
from operator import itemgetter

Violation = namedtuple("Violation", "axiom witness")

# The most elements product() builds: power_set(10), the largest input
# measured.  Two 40-chains (1600 elements, about 1 KB of covers) would
# otherwise print a 29 MB table, and two 100-chains build 10^8 entries.
MAX_PRODUCT = 1024

# The most elements from_hasse accepts: it builds n n-bit masks first.
MAX_HASSE = 4096


class ValidationReport(namedtuple("ValidationReport", "ok violations")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)}
                for v in self.violations
            ],
        }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_table(table) -> ValidationReport:
    """Check shape, range, idempotency, commutativity, associativity.

    Witnesses are element indices: (s,) for idempotency, (s, t) for
    commutativity, (s, t, r) for associativity.  Associativity is accepted
    on down-set bitmasks; only a table that fails there walks
    _first_nonassociative to name the witness.
    """
    violations = []
    n = len(table)
    if n == 0:
        return ValidationReport(False, [Violation("shape", ())])
    for i, row in enumerate(table):
        if len(row) != n:
            violations.append(Violation("shape", (i,)))
    if violations:
        return ValidationReport(False, violations)
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not _is_int(v) or not 0 <= v < n:
                violations.append(Violation("range", (i, j)))
    if violations:
        return ValidationReport(False, violations)
    for s in range(n):
        if table[s][s] != s:
            violations.append(Violation("idempotent", (s,)))
    for s in range(n):
        for t in range(s + 1, n):
            if table[s][t] != table[t][s]:
                violations.append(Violation("commutative", (s, t)))
    if violations:
        return ValidationReport(False, violations)
    if _meets_down_sets(table):
        return ValidationReport(True, [])
    return ValidationReport(False, [
        Violation("associative", _first_nonassociative(table))])


def _order_masks(table) -> tuple:
    """(down, up) as tuples of int bitmasks, in one pass over the table:
    down[x] holds r iff rx = r, and up[s] holds t iff st = s.  On a meet
    table these are the down-set and the up-set of each element."""
    n = len(table)
    down = [0] * n
    up = [0] * n
    for r, row in enumerate(table):
        bit = 1 << r
        for x, v in enumerate(row):
            if v == r:
                down[x] |= bit
                up[r] |= 1 << x
    return tuple(down), tuple(up)


def _meets_down_sets(table) -> bool:
    """Whether down(st) = down(s) & down(t) for all s and t, with down(x)
    the bitmask of the r with rx = r.

    For a commutative idempotent table this holds iff the table is
    associative: then r <= x iff rx = r is a partial order, st is a lower
    bound of s and t (st lies in its own down-set), and every common lower
    bound of s and t lies below st, so st is their meet.  The converse is
    the meet's defining property.
    """
    down, _ = _order_masks(table)
    for ds, row in zip(down, table):
        if list(map(down.__getitem__, row)) != [ds & dt for dt in down]:
            return False
    return True


def _bits(mask) -> tuple:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _first_nonassociative(rows):
    """The first (s, t, r), in s-then-t-then-r order, with (st)r != s(tr),
    or None when the table is associative.

    rows is a square table with entries in range.  Row st is compared with
    row s read through row t as whole tuples; only a failing (s, t) walks r
    to name the witness.
    """
    n = len(rows)
    if n == 1:  # 0*0 = 0; itemgetter of one index would return a scalar
        return None
    rows = [tuple(row) for row in rows]
    through = [itemgetter(*row) for row in rows]
    for s, row_s in enumerate(rows):
        for t, st in enumerate(row_s):
            lhs, rhs = rows[st], through[t](row_s)
            if lhs != rhs:
                return s, t, next(r for r in range(n) if lhs[r] != rhs[r])
    return None


class Semilattice:
    """A validated meet table plus everything derived from it.

    Use validate()/from_hasse() to construct from untrusted input; the
    constructor itself assumes the table already passed check_table.
    """

    def __init__(self, table, labels=None):
        self.n = len(table)
        self.table = tuple(tuple(row) for row in table)
        if labels is None:
            labels = range(self.n)
        self.labels = tuple(str(x) for x in labels)
        # distinct as printed: 1 and "1" would both show as "1"
        if len(self.labels) != self.n or len(set(self.labels)) != self.n:
            raise ValueError("need one distinct label per element")
        self._derive()
        # set on first use by moebius.mobius_table and diagonal.unit
        self._mobius = self._unit = None

    def _derive(self):
        n = self.n
        self.down, self.up = down, up = _order_masks(self.table)
        # a finite meet semilattice has a minimum: it lies below everything
        self.minimum = up.index((1 << n) - 1)
        self.strictly_above = tuple(_bits(up[s] ^ 1 << s) for s in range(n))
        self.strictly_below = tuple(_bits(down[s] ^ 1 << s) for s in range(n))
        # ideal chain: strip the maximal elements until nothing is left;
        # s is maximal in remaining iff up[s] meets remaining in s alone
        chain = []
        depth = [0] * n
        remaining = (1 << n) - 1
        while remaining:
            members = _bits(remaining)
            chain.append(frozenset(members))
            strip = [s for s in members if up[s] & remaining == 1 << s]
            for s in strip:
                depth[s] = len(chain) - 1
                remaining ^= 1 << s
        self.ideal_chain = tuple(chain)
        self.height = len(chain) - 1
        self.level = level = tuple(self.height - d for d in depth)
        self.canonical_perm = tuple(
            sorted(range(n), key=lambda s: (level[s], s))
        )
        # Hasse diagram: t covers s iff s and t alone lie in [s, t]
        self.hasse = tuple(
            (s, t) for s in range(n) for t in self.strictly_above[s]
            if up[s] & down[t] == 1 << s | 1 << t
        )

    @cached_property
    def preimages(self) -> tuple:
        """preimages[a] is a followed by the elements strictly above it:
        the x with Z[x][a] = [a <= x] = 1 in the zeta transform that
        verify_diagonal lifts by.  Built on first use, so the many small
        semilattices of an enumeration never hold them."""
        return tuple((a,) + above for a, above in enumerate(self.strictly_above))

    @property
    def blocks(self) -> tuple:
        """One trivial block (a, 1, (0,)) per element a, in id order: the
        start id, the order and the inverse index of each member that
        verify_diagonal reads."""
        return tuple((a, 1, (0,)) for a in range(self.n))

    def top(self):
        """The maximum element, or None when there is none."""
        maximal = [s for s in range(self.n) if not self.strictly_above[s]]
        return maximal[0] if len(maximal) == 1 else None

    def __eq__(self, other):
        return isinstance(other, Semilattice) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"Semilattice(n={self.n}, labels={list(self.labels)})"


def validate(table, labels=None):
    """Build a Semilattice from a raw table, or report what is wrong."""
    report = check_table(table)
    if not report.ok:
        return report
    return Semilattice(table, labels)


def from_hasse(n: int, covers, labels=None):
    """Build from cover edges (s, t) meaning s < t.

    Fails with a report when the edges contain a cycle or when some pair has
    no greatest common lower bound: each element s names at most one of
    each, (s, t) for the first t > s that fails.  More than MAX_HASSE
    elements is a "size" violation (n,), found before anything is built.
    """
    if n > MAX_HASSE:
        return ValidationReport(False, [Violation("size", (n,))])
    violations = []
    edges = []
    for e in covers:
        s, t = e
        if not (0 <= s < n and 0 <= t < n) or s == t:
            violations.append(Violation("edge", (s, t)))
        else:
            edges.append((s, t))
    if violations:
        return ValidationReport(False, violations)
    # down-sets as bitmasks, closed transitively; watch for cycles
    down = [1 << i for i in range(n)]
    for s, t in edges:
        down[t] |= 1 << s
    for k in range(n):
        if down[k] == 1 << k:  # nothing below k: no down-set gains from it
            continue
        for i in range(n):
            if down[i] >> k & 1:
                down[i] |= down[k]
    for i in range(n):
        # only a j > i in down(i) can close a cycle (i, j): walk those bits
        above = down[i] >> (i + 1)
        while above:
            j = i + (above & -above).bit_length()
            if down[j] >> i & 1:
                violations.append(Violation("cycle", (i, j)))
                break
            above &= above - 1
    if violations:
        return ValidationReport(False, violations)
    # the meet of s and t is the element whose down-set is their overlap;
    # the table is built only once every pair has one
    by_down = {mask: m for m, mask in enumerate(down)}
    for s in range(n):
        ds = down[s]
        for t in range(s, n):
            if (ds & down[t]) not in by_down:
                violations.append(Violation("meet", (s, t)))
                break
    if violations:
        return ValidationReport(False, violations)
    table = [[by_down[ds & dt] for dt in down] for ds in down]
    # a greatest lower bound for every pair makes the table a meet:
    # idempotent, commutative and associative with no further check
    return Semilattice(table, labels)


def product(a: Semilattice, b: Semilattice):
    """Direct product; element (i, j) sits at index i*b.n + j, labelled
    "(label i,label j)".

    Returns a ValidationReport with a "size" violation (a.n, b.n) when the
    product would have more than MAX_PRODUCT elements, checked before
    anything is built, and with a "labels" violation naming the first
    label that two pairs share, as ("x,y", "z") and ("x", "y,z") do.
    """
    if a.n * b.n > MAX_PRODUCT:
        return ValidationReport(False, [Violation("size", (a.n, b.n))])
    labels = [f"({x},{y})" for x in a.labels for y in b.labels]
    seen = set()
    for label in labels:
        if label in seen:
            return ValidationReport(False, [Violation("labels", (label,))])
        seen.add(label)
    nb = b.n
    n = a.n * nb
    table = [[0] * n for _ in range(n)]
    for i1, j1 in iproduct(range(a.n), range(nb)):
        p = i1 * nb + j1
        for i2, j2 in iproduct(range(a.n), range(nb)):
            table[p][i2 * nb + j2] = a.table[i1][i2] * nb + b.table[j1][j2]
    return Semilattice(table, labels)


def _invariant(s: Semilattice, x: int) -> tuple:
    down = _bits(s.down[x])
    lower_covers = sum(1 for (a, b) in s.hasse if b == x)
    upper_covers = sum(1 for (a, b) in s.hasse if a == x)
    down_levels = tuple(sorted(s.level[y] for y in down))
    return (s.level[x], len(down), s.up[x].bit_count(), lower_covers,
            upper_covers, down_levels)


def from_json_dict(obj):
    """Build from {"table": [[...]]} or {"n": k, "hasse": [[s,t],...]}.

    Both forms take an optional "labels" list.  Returns Semilattice or
    ValidationReport.
    """
    if not isinstance(obj, dict):
        return ValidationReport(False, [Violation("input", ("object",))])
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        return ValidationReport(False, [Violation("labels", ())])
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            return ValidationReport(False, [Violation("shape", ())])
        if "n" in obj and (not _is_int(obj["n"]) or obj["n"] != len(table)):
            return ValidationReport(False, [Violation("shape", (obj["n"],))])
        if labels is not None and len(labels) != len(set(labels)):
            return ValidationReport(False, [Violation("labels", ())])
        if labels is not None and len(labels) != len(table):
            return ValidationReport(False, [Violation("labels", ())])
        return validate(table, labels)
    if "hasse" in obj:
        n = obj.get("n")
        if not _is_int(n) or n < 1:
            return ValidationReport(False, [Violation("shape", ("n",))])
        edges = obj["hasse"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e)
            for e in edges
        ):
            return ValidationReport(False, [Violation("edge", ())])
        if labels is not None and (len(labels) != n or len(set(labels)) != n):
            return ValidationReport(False, [Violation("labels", ())])
        return from_hasse(n, [tuple(e) for e in edges], labels)
    return ValidationReport(False, [Violation("input", ("table or hasse",))])


# specific families used throughout the tests and the command line docs

def chain(n: int) -> Semilattice:
    """Total order 0 < 1 < ... < n (n+1 elements)."""
    return Semilattice(
        [[min(i, j) for j in range(n + 1)] for i in range(n + 1)],
        labels=[str(i) for i in range(n + 1)],
    )


def flat(n: int) -> Semilattice:
    """A zero element below n pairwise incomparable atoms."""
    size = n + 1
    table = [
        [i if i == j else 0 for j in range(size)] for i in range(size)
    ]
    return Semilattice(table, labels=["o"] + [f"a{i}" for i in range(1, n + 1)])


def flat_with_top(n: int) -> Semilattice:
    """flat(n) with a maximum adjoined above everything."""
    size = n + 2
    top = n + 1
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                table[i][j] = i
            elif i == top:
                table[i][j] = j
            elif j == top:
                table[i][j] = i
            else:
                table[i][j] = 0
    labels = ["o"] + [f"a{i}" for i in range(1, n + 1)] + ["1"]
    return Semilattice(table, labels)


def power_set(n: int) -> Semilattice:
    """Subsets of {1..n} under intersection, indexed by bitmask."""
    size = 1 << n
    table = [[i & j for j in range(size)] for i in range(size)]
    labels = [
        "{" + ",".join(str(k + 1) for k in range(n) if i >> k & 1) + "}"
        for i in range(size)
    ]
    return Semilattice(table, labels)
