"""Correctness checks on command line output.

Each check takes the exit code and the bytes written to stdout and
returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import oracle

SPECTRUM_COUNTS = [1, 1, 2, 5, 15, 53, 222, 1078]
GAP_GOLDEN = json.loads((Path(__file__).parent / "gap_golden.json").read_text())


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str):
    if not condition:
        raise CheckFailed(reason)


def _checked(check):
    """Turn a check that raises into one that returns None or a reason."""

    @functools.wraps(check)
    def run(*args):
        try:
            check(*args)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # ValueError covers stdout that is not JSON
            return f"malformed output: {exc!r}"
        return None

    return run


@_checked
def check_gap(code: int, out: bytes):
    """The paper's 332 instances, no AM in (5, 9), the golden AM multiset."""
    _require(code == 0, f"exit code {code}")
    doc = json.loads(out)
    for key, value in GAP_GOLDEN.items():
        _require(doc[key] == value, f"{key} = {doc[key]!r}, expected {value!r}")


@_checked
def check_spectrum(code: int, out: bytes):
    """Class counts, AM = 1 mod 4, the lower bound, each AM by the oracle."""
    _require(code == 0, f"exit code {code}")
    doc = json.loads(out)
    _require(doc["counts"] == SPECTRUM_COUNTS, f"counts {doc['counts']}")
    classes = doc["classes"]
    _require(len(classes) == sum(SPECTRUM_COUNTS), f"{len(classes)} classes")
    for row in classes:
        where = f"size {row['size']} class {row['index']}"
        _require(row["am_mod4"] == 1, f"{where}: am_mod4 {row['am_mod4']}")
        _require(row["lower_bound_ok"] is True, f"{where}: lower bound")
        am = oracle.amenability(row["table"])
        _require(row["am"] == str(am), f"{where}: am {row['am']}, oracle {am}")


def _check_am(doc, expect):
    n, am = expect["n"], expect["am"]
    _require(doc["ok"] is True and doc["n"] == n, f"ok/n {doc['ok']} {doc['n']}")
    _require(doc["am"] == str(am), f"am {doc['am']}, expected {am}")
    _require(am % 4 == 1 and doc["am_mod4"] == 1, f"am_mod4 {doc['am_mod4']}")
    _require(am >= 2 * n - 1, f"am {am} below 2N - 1")


@_checked
def check_query(query, code: int, out: bytes):
    """The answer a single call must give, computed before timing."""
    kind, expect = query.kind, query.expect
    expected_code = 2 if kind.startswith("reject") else 0
    _require(code == expected_code, f"{kind}: exit code {code}")
    doc = json.loads(out)
    if kind in ("am", "am_all"):
        _check_am(doc, expect)
        method = "all" if kind == "am_all" else "recursive"
        _require(doc["method"] == method, f"method {doc['method']}")
    elif kind == "moebius":
        _check_am(doc, expect)
        _require(doc["perm"] == expect["perm"], "perm differs from the oracle")
        _require(doc["diagonal"] == expect["diagonal"], "diagonal differs from the oracle")
    elif kind == "verify":
        _require(doc == {"ok": True}, f"verify rejected: {doc}")
    elif kind.startswith("reject"):
        kind_seen = doc["witness"]["kind"]
        _require(doc["ok"] is False, "verify accepted a non-diagonal")
        _require(kind == "reject_" + kind_seen, f"witness kind {kind_seen}")
    elif kind == "clifford":
        _require(doc["ok"] is True and doc["n"] == expect["n"], f"ok/n {doc['n']}")
        _require(doc["skeleton_am"] == str(expect["skeleton_am"]), "skeleton_am")
        _require(doc["collapse_matches_skeleton"] is True, "collapse_matches_skeleton")
        _require(doc["am_ge_skeleton"] is True, "am_ge_skeleton")
    else:
        raise ValueError(kind)
