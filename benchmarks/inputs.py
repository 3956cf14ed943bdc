"""Seeded inputs for the benchmark.

Every input is a plain JSON document the command line reads; the same
seed gives byte-identical documents.  Random semilattices are
intersection-closed families of subsets of a ground set, the construction
behind ``enumerate_by_families``: the empty set is the bottom and the meet
is intersection.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle


def family_table(masks) -> list:
    """Meet table of an intersection-closed family of bitmasks."""
    masks = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    return [[index[a & b] for b in masks] for a in masks]


def random_family(rng: random.Random, n: int) -> list:
    """Meet table of a random intersection-closed family with n members.

    Random subsets are added one at a time with their intersections; an
    addition that would pass n members is skipped.  Families of this kind
    are shallow and wide, unlike the chains and power sets.
    """
    ground = max(2, n.bit_length() + 1)
    family = {0}
    while len(family) < n:
        mask = rng.getrandbits(ground)
        grown = family | {mask} | {mask & m for m in family}
        if len(grown) <= n:
            family = grown
    return family_table(family)


def chain_table(n: int) -> list:
    """0 < 1 < ... < n; AM = 4n + 1."""
    return [[min(i, j) for j in range(n + 1)] for i in range(n + 1)]


def flat_table(n: int) -> list:
    """A zero below n atoms; AM = 4n + 1."""
    return [[i if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]


def flat_with_top_table(n: int) -> list:
    """flat(n) below a maximum; AM = 4n^2 + 4n + 1."""
    # the top holds one extra point, so it differs from the atom when n = 1
    return family_table([0] + [1 << k for k in range(n)] + [(1 << (n + 1)) - 1])


def power_set_table(n: int) -> list:
    """Subsets of an n-set; AM = 5^n."""
    return family_table(range(1 << n))


CLOSED_FORMS = {
    "chain": (chain_table, lambda n: 4 * n + 1),
    "flat": (flat_table, lambda n: 4 * n + 1),
    "flat_with_top": (flat_with_top_table, lambda n: 4 * n * n + 4 * n + 1),
    "power_set": (power_set_table, lambda n: 5 ** n),
}


def random_clifford(rng: random.Random, skeleton_size: int, max_order: int) -> dict:
    """A commutative Clifford semigroup with cyclic blocks.

    The skeleton is a random family; each element gets a cyclic group of
    order 1..max_order.  Each strict pair s > t gets the homomorphism
    1 -> g of Z_a(s) into Z_a(t) (a(s) * g = 0 mod a(t)); homs for longer
    pairs are the composites of cover homs, and a draw whose composites
    disagree along two paths is redrawn (all-trivial always agrees).
    """
    table = random_family(rng, skeleton_size)
    n = len(table)
    orders = [rng.randint(1, max_order) for _ in range(n)]
    below = {
        s: [t for t in range(n) if t != s and table[t][s] == t] for s in range(n)
    }
    covers = [
        (s, t) for s in range(n) for t in below[s]
        if not any(table[t][r] == t for r in below[s] if r != t)
    ]
    for attempt in range(20):
        image = {}
        for s, t in covers:
            a, b = orders[s], orders[t]
            choices = [g for g in range(b) if (a * g) % b == 0]
            image[(s, t)] = rng.choice(choices) if attempt < 19 else 0
        homs = _compose(image, below, orders, table)
        if homs is not None:
            break
    return {
        "skeleton": {"table": table},
        "groups": [{"cyclic": [a]} for a in orders],
        "homs": [
            {"from": s, "to": t, "gen_images": [[g]]}
            for (s, t), g in sorted(homs.items())
        ],
    }


def _compose(image, below, orders, table):
    """Extend cover homs to every strict pair; None if two paths disagree."""
    homs = dict(image)
    # pairs by increasing size of the interval, so both halves are ready
    pairs = sorted(
        ((s, t) for s in below for t in below[s]),
        key=lambda p: sum(table[p[1]][r] == p[1] for r in below[p[0]]),
    )
    for s, t in pairs:
        if (s, t) in image:
            continue
        values = {
            homs[(s, r)] * homs[(r, t)] % orders[t]
            for r in below[s]
            if r != t and table[t][r] == t
        }
        if len(values) != 1:
            return None
        homs[(s, t)] = values.pop()
    return homs


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


# The queries workload: one slot per call, with fixed kinds and sizes so
# that every seed gives the same mix; the seed draws the structures.
# (kind, family, size): size is N for "family", the skeleton size for
# "clifford", and the range of n for a closed form.
QUERY_SLOTS = (
    ("am", "family", 24), ("am", "family", 48), ("am", "family", 72),
    ("am", "family", 100),
    ("am", "chain", (20, 40)), ("am", "flat", (10, 40)),
    ("am", "flat_with_top", (8, 30)), ("am", "power_set", (6, 6)),
    ("moebius", "family", 32), ("moebius", "family", 64),
    ("moebius", "family", 100), ("moebius", "power_set", (5, 5)),
    ("verify", "family", 12), ("verify", "family", 24), ("verify", "family", 32),
    ("reject_moment", "family", 16), ("reject_moment", "family", 32),
    ("reject_centrality", "family", 16), ("reject_centrality", "family", 32),
    ("am_all", "family", 6), ("am_all", "family", 9), ("am_all", "family", 12),
    ("clifford", "family", 2), ("clifford", "family", 3), ("clifford", "family", 3),
)


@dataclass
class Query:
    """One command line call and what its output must say."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def _canonical_diagonal(table) -> tuple:
    """(canonical order, diagonal in that order) from the oracle."""
    order = oracle.canonical_order(table)
    d = oracle.diagonal(table)
    return order, [[d[g][h] for h in order] for g in order]


def _semilattice_query(kind: str, table: list, am: int) -> Query:
    doc = dumps({"table": table})
    expect = {"n": len(table), "am": am}
    if kind == "am":
        return Query(kind, ["am", doc], expect)
    if kind == "am_all":
        return Query(kind, ["am", doc, "--method", "all"], expect)
    order, matrix = _canonical_diagonal(table)
    expect["perm"] = order
    expect["diagonal"] = [[str(v) for v in row] for row in matrix]
    return Query(kind, ["diagonal", doc, "--method", "moebius"], expect)


def _verify_query(rng: random.Random, kind: str, table: list) -> Query:
    """verify on the diagonal, or on one it no longer is.

    reject_moment changes one entry, which moves the moment m(D).
    reject_centrality moves one unit between two entries (g, h) and
    (g2, h2) with g h = g2 h2, so m(D) holds and only centrality fails.
    """
    order, matrix = _canonical_diagonal(table)
    n = len(table)
    if kind != "verify":
        i, j = rng.sample(range(n), 2)  # (j, i) has the same product
        matrix[i][j] += 1
        if kind == "reject_centrality":
            meet = table[order[i]][order[j]]
            partners = [
                (k, m) for k in range(n) for m in range(n)
                if (k, m) != (i, j) and table[order[k]][order[m]] == meet
            ]
            k, m = rng.choice(partners)
            matrix[k][m] -= 1
    doc = dumps({"base": {"table": table}, "diagonal": matrix})
    return Query(kind, ["verify", doc])


def _clifford_query(doc: dict) -> Query:
    skeleton = doc["skeleton"]["table"]
    expect = {
        "n": sum(g["cyclic"][0] for g in doc["groups"]),
        "skeleton_am": oracle.amenability(skeleton),
    }
    return Query("clifford", ["clifford", dumps(doc)], expect)


def query_pool(seed: int) -> list:
    """The calls of one round of the queries workload, in call order."""
    rng = random.Random(seed)
    pool = []
    for kind, family, size in QUERY_SLOTS:
        if kind == "clifford":
            pool.append(_clifford_query(random_clifford(rng, size, 4)))
            continue
        if family == "family":
            table = random_family(rng, size)
            am = oracle.amenability(table)
        else:
            make, closed_form = CLOSED_FORMS[family]
            n = rng.randint(*size)
            table, am = make(n), closed_form(n)
        if kind in ("verify", "reject_moment", "reject_centrality"):
            pool.append(_verify_query(rng, kind, table))
        else:
            pool.append(_semilattice_query(kind, table, am))
    rng.shuffle(pool)
    return pool
