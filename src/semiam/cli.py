"""Command line interface.

Subcommands: validate, diagonal, am, unit, moebius, product, clifford,
spectrum, gap-search, verify.  Input is a file path, inline JSON (first
non-space character '{'), or '-' for stdin.  Matrices and vectors are
always written in canonical element order, with "perm" mapping canonical
positions back to input indices.

Exit codes: 0 success, 2 validation or verification failure, 3 method
cross-check mismatch, 4 file/IO failure, which includes a stdout that the
reader closed early (semiam spectrum ... | head): nothing goes to stderr.
"""

import argparse
import io
import json
import math
import os
import sys
from itertools import islice

from . import clifford as clifford_mod
from . import enumeration
from .diagonal import (
    DiagonalTensor,
    diagonal_recursive,
    unit,
    verify_diagonal,
)
from .exactlinalg import rat, rat_decimal, rat_str
from .moebius import diagonal_via_mobius, mobius_table
from .semilattice import (
    Semilattice,
    ValidationReport,
    from_json_dict as semilattice_from_json,
    product,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_IO = 4


class InputError(Exception):
    def __init__(self, code, payload=None, message=""):
        super().__init__(message or str(payload))
        self.code = code
        self.payload = payload


def _fail_invalid(axiom, *witness):
    return InputError(
        EXIT_INVALID,
        {"ok": False, "violations": [{"axiom": axiom, "witness": list(witness)}]},
    )


def _load_json(arg: str):
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(EXIT_IO, message=f"cannot read {arg}: {exc}")
    try:
        return json.loads(text, parse_constant=_refuse_constant,
                          parse_float=_finite_float)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, integers past the int-string
        # digit limit and numbers no float holds; RecursionError, arrays
        # nested too deep to decode
        raise _fail_invalid("json", str(exc))


def _refuse_constant(name: str):
    """NaN, Infinity and -Infinity are not JSON: a witness echoing one
    would print output that is not JSON either."""
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} does not fit a float")
    return value


def _accepted(result):
    """result, unless it is a ValidationReport: that exits 2 with it."""
    if isinstance(result, ValidationReport):
        raise InputError(EXIT_INVALID, result.to_json_dict())
    return result


def _semilattice(obj) -> Semilattice:
    return _accepted(semilattice_from_json(obj))


def _clifford(obj) -> clifford_mod.CliffordSemigroup:
    return _accepted(clifford_mod.from_json_dict(obj))


def _semilattice_payload(s: Semilattice) -> dict:
    return {
        "ok": True,
        "n": s.n,
        "labels": list(s.labels),
        "minimum": s.minimum,
        "levels": list(s.level),
        "height": s.height,
        "ideal_chain": [sorted(part) for part in s.ideal_chain],
        "hasse": [list(e) for e in s.hasse],
        "perm": list(s.canonical_perm),
        "unital": s.top() is not None,
    }


def _canonical_matrix_strings(d: DiagonalTensor):
    """rat_str of each rows[g][h] / den, in lowest terms by one gcd."""
    perm, rows, den = d.base.canonical_perm, d.rows, d.den
    if den == 1:
        return [[str(rows[g][h]) for h in perm] for g in perm]

    def over_den(v):
        k = math.gcd(v, den)
        return str(v // k) if k == den else f"{v // k}/{den // k}"

    return [[over_den(rows[g][h]) for h in perm] for g in perm]


def _semilattice_diagonal(s: Semilattice, method: str) -> DiagonalTensor:
    if method == "recursive":
        return diagonal_recursive(s)
    if method == "moebius":
        return diagonal_via_mobius(s)
    if method == "solver":
        return clifford_mod.diagonal_solve(s)
    raise ValueError(method)


def _diagonal_with_method(s: Semilattice, method: str) -> DiagonalTensor:
    if method != "all":
        return _semilattice_diagonal(s, method)
    computed = {
        name: _semilattice_diagonal(s, name)
        for name in ("recursive", "moebius", "solver")
    }
    reference = computed["recursive"]
    for name, d in computed.items():
        if d != reference:
            detail = {
                "mismatch": name,
                "recursive": _canonical_matrix_strings(reference),
                name: _canonical_matrix_strings(d),
            }
            raise InputError(EXIT_MISMATCH, message=json.dumps(detail, sort_keys=True))
    return reference


def _am_fields(am, digits: int) -> dict:
    return {
        "am": rat_str(am),
        "am_decimal": rat_decimal(am, digits),
        "am_mod4": int(am) % 4 if am.denominator == 1 else None,
    }


def _diagonal_payload(s: Semilattice, d: DiagonalTensor, method: str, digits: int) -> dict:
    u = unit(s)
    perm = s.canonical_perm
    am = d.am()
    payload = {
        "ok": True,
        "method": method,
        "n": s.n,
        "perm": list(perm),
        "labels": [s.labels[x] for x in perm],
        "unit": [str(u[x]) for x in perm],
        "diagonal": _canonical_matrix_strings(d),
    }
    payload.update(_am_fields(am, digits))
    return payload


def cmd_validate(args) -> tuple:
    s = _semilattice(_load_json(args.input))
    return _semilattice_payload(s), EXIT_OK


def cmd_diagonal(args) -> tuple:
    s = _semilattice(_load_json(args.input))
    d = _diagonal_with_method(s, args.method)
    return _diagonal_payload(s, d, args.method, args.digits), EXIT_OK


def cmd_am(args) -> tuple:
    s = _semilattice(_load_json(args.input))
    d = _diagonal_with_method(s, args.method)
    payload = {"ok": True, "method": args.method, "n": s.n}
    payload.update(_am_fields(d.am(), args.digits))
    return payload, EXIT_OK


def cmd_unit(args) -> tuple:
    s = _semilattice(_load_json(args.input))
    u = unit(s)
    perm = s.canonical_perm
    return {
        "ok": True,
        "n": s.n,
        "perm": list(perm),
        "labels": [s.labels[x] for x in perm],
        "unit": [str(u[x]) for x in perm],
    }, EXIT_OK


def cmd_moebius(args) -> tuple:
    s = _semilattice(_load_json(args.input))
    table = mobius_table(s)
    return {
        "ok": True,
        "n": s.n,
        "labels": list(s.labels),
        "mu": [[t, x, v] for (t, x, v) in table.pairs()],
    }, EXIT_OK


def cmd_product(args) -> tuple:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise _fail_invalid("input", "a and b")
    p = _accepted(product(_semilattice(obj["a"]), _semilattice(obj["b"])))
    payload = _semilattice_payload(p)
    payload["table"] = [list(row) for row in p.table]
    return payload, EXIT_OK


def cmd_clifford(args) -> tuple:
    g = _clifford(_load_json(args.input))
    u, d = clifford_mod.unit_and_diagonal(g)
    skel_d = diagonal_via_mobius(g.skeleton)
    collapsed = clifford_mod.collapse(d)
    am = d.am()
    skel_am = skel_d.am()
    payload = {
        "ok": True,
        "n": g.n,
        "labels": list(g.labels),
        "blocks": [
            [g.offset[s] + i for i in range(g.groups[s].order)]
            for s in range(g.skeleton.n)
        ],
        "unit": [str(c) for c in u],
        "diagonal": _canonical_matrix_strings(d),
        "skeleton_am": rat_str(skel_am),
        "collapse_matches_skeleton": collapsed == skel_d,
        "am_ge_skeleton": am >= skel_am,
    }
    payload.update(_am_fields(am, args.digits))
    return payload, EXIT_OK


def _require_positive(**bounds):
    # an empty family would pass every check vacuously
    for name, value in bounds.items():
        if value < 1:
            raise _fail_invalid(name, value)


# The largest spectrum --max-size and gap-search --skeleton-max-size: both
# enumerate every class up to that size.  The class count grows about
# sevenfold per size: spectrum(10) takes 64-87 s and 95 MB in process on a
# shared 2-CPU Xeon under Python 3.11.7, so 11 would run for many minutes.
SPECTRUM_MAX_SIZE = 10


def cmd_spectrum(args) -> tuple:
    _require_positive(max_size=args.max_size)
    if args.max_size > SPECTRUM_MAX_SIZE:
        raise _fail_invalid("max_size", args.max_size)
    report = enumeration.spectrum(args.max_size)
    return report.to_json_dict(), EXIT_OK


def cmd_gap_search(args) -> tuple:
    _require_positive(skeleton_max_size=args.skeleton_max_size,
                      max_cyclic_order=args.max_cyclic_order)
    if args.skeleton_max_size > SPECTRUM_MAX_SIZE:
        raise _fail_invalid("skeleton_max_size", args.skeleton_max_size)
    try:
        report = enumeration.gap_search(
            skeleton_max_size=args.skeleton_max_size,
            max_cyclic_order=args.max_cyclic_order,
            instance_limit=args.limit,
        )
    except enumeration.InstanceLimitError as exc:
        raise _fail_invalid("instance_limit", exc.limit)
    except enumeration.InstanceSizeError as exc:
        raise _fail_invalid("size", exc.index, exc.size)
    return report.to_json_dict(), EXIT_OK if report.ok else EXIT_INVALID


def _parse_matrix(raw, n: int):
    if not isinstance(raw, list) or len(raw) != n or not all(
        isinstance(row, list) and len(row) == n for row in raw
    ):
        raise _fail_invalid("diagonal_shape", n)
    out = []
    for row in raw:
        vals = []
        for v in row:
            if isinstance(v, float):
                raise _fail_invalid("float_entry", v)
            try:
                vals.append(rat(v))
            except (ValueError, TypeError, ZeroDivisionError):
                raise _fail_invalid("entry", str(v))
        out.append(vals)
    return out


def cmd_verify(args) -> tuple:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "base" not in obj or "diagonal" not in obj:
        raise _fail_invalid("input", "base and diagonal")
    base_obj = obj["base"]
    if isinstance(base_obj, dict) and "skeleton" in base_obj:
        base = _clifford(base_obj)
        u = base.unit
    else:
        base = _semilattice(base_obj)
        u = unit(base)
    perm = base.canonical_perm
    canon = _parse_matrix(obj["diagonal"], base.n)
    # input matrices are in canonical order; store back by element id
    entries = [[None] * base.n for _ in range(base.n)]
    for i, g in enumerate(perm):
        for j, h in enumerate(perm):
            entries[g][h] = canon[i][j]
    d = DiagonalTensor(base, entries)
    ok, witness = verify_diagonal(d, u)
    if ok:
        return {"ok": True}, EXIT_OK
    rendered = {
        k: (rat_str(v) if k in ("lhs", "rhs") else v)
        for k, v in witness.items()
    }
    return {"ok": False, "witness": rendered}, EXIT_INVALID


def _render_table(payload: dict, command: str) -> str:
    lines = []

    def matrix_lines(labels, rows, title):
        width = max(
            [len(x) for row in rows for x in row] + [len(x) for x in labels]
        )
        lines.append(title)
        lines.append(" ".join(x.rjust(width) for x in [""] + list(labels)))
        for lbl, row in zip(labels, rows):
            lines.append(
                " ".join(x.rjust(width) for x in [lbl] + list(row))
            )

    if command in ("diagonal", "clifford"):
        labels = payload["labels"]
        lines.append(
            f"n = {payload['n']}  am = {payload['am']}"
            f"  am_mod4 = {payload['am_mod4']}  am ~ {payload['am_decimal']}"
        )
        lines.append("unit: " + " ".join(payload["unit"]))
        matrix_lines(labels, payload["diagonal"], "diagonal:")
        if command == "clifford":
            lines.append(f"skeleton_am = {payload['skeleton_am']}")
            lines.append(
                f"collapse_matches_skeleton = {payload['collapse_matches_skeleton']}"
            )
            lines.append(f"am_ge_skeleton = {payload['am_ge_skeleton']}")
    elif command == "am":
        lines.append(
            f"am = {payload['am']}  am_mod4 = {payload['am_mod4']}"
            f"  am ~ {payload['am_decimal']}"
        )
    elif command == "unit":
        lines.append("order: " + " ".join(payload["labels"]))
        lines.append("unit:  " + " ".join(payload["unit"]))
    elif command == "moebius":
        for t, s, v in payload["mu"]:
            lines.append(f"mu[{t},{s}] = {v}")
    elif command in ("validate", "product"):
        for key in ("n", "minimum", "height", "unital"):
            lines.append(f"{key} = {payload[key]}")
        lines.append("labels: " + " ".join(payload["labels"]))
        lines.append("levels: " + " ".join(str(v) for v in payload["levels"]))
        lines.append(
            "hasse: " + " ".join(f"{a}<{b}" for a, b in payload["hasse"])
        )
        if "table" in payload:
            matrix_lines(
                payload["labels"],
                [[str(v) for v in row] for row in payload["table"]],
                "table:",
            )
    elif command == "spectrum":
        lines.append("size count")
        for size, count in enumerate(payload["counts"], start=1):
            lines.append(f"{size:4d} {count:5d}")
        lines.append("size index am am_mod4 unital d_min")
        for row in payload["classes"]:
            lines.append(
                f"{row['size']:4d} {row['index']:5d} {row['am']:>6s}"
                f" {row['am_mod4']:7d} {str(row['unital']):6s} {row['d_min']}"
            )
    elif command == "gap-search":
        lines.append(
            f"instances = {payload['instances']}  ok = {payload['ok']}"
            f"  min_am_above_5 = {payload['min_am_above_5']}"
        )
        lines.append("am count")
        for value, count in payload["am_counts"]:
            lines.append(f"{value:>6s} {count:5d}")
    elif command == "verify":
        if payload["ok"]:
            lines.append("ok")
        else:
            lines.append(f"FAIL {json.dumps(payload['witness'], sort_keys=True)}")
    return "\n".join(lines)


def _render_csv(payload: dict, command: str) -> str:
    import csv  # only --format csv reads it: kept off every other start

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "spectrum":
        writer.writerow(
            [
                "size",
                "index",
                "am",
                "am_mod4",
                "unital",
                "d_min",
                "lower_bound_ok",
                "off_top_diagonal_even",
                "table",
            ]
        )
        for row in payload["classes"]:
            writer.writerow(
                [
                    row["size"],
                    row["index"],
                    row["am"],
                    row["am_mod4"],
                    row["unital"],
                    row["d_min"],
                    row["lower_bound_ok"],
                    row["off_top_diagonal_even"],
                    ";".join(",".join(str(v) for v in r) for r in row["table"]),
                ]
            )
    elif command == "gap-search":
        writer.writerow(["am", "count"])
        for value, count in payload["am_counts"]:
            writer.writerow([value, count])
    elif command == "moebius":
        writer.writerow(["t", "s", "mu"])
        for t, s, v in payload["mu"]:
            writer.writerow([t, s, v])
    else:
        raise _fail_invalid("format", f"csv not supported for {command}")
    return buf.getvalue().rstrip("\n")


def _emit(payload: dict, command: str, fmt: str):
    if fmt == "json":
        # streamed in large blocks: under PYTHONUNBUFFERED json.dump would
        # make one write system call per encoder chunk
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        while block := "".join(islice(chunks, 1 << 14)):
            sys.stdout.write(block)
        sys.stdout.write("\n")
    elif fmt == "table":
        print(_render_table(payload, command))
    else:
        print(_render_csv(payload, command))


# name -> (handler, reads an input, --method, --digits, further options
# added after --format), in help order
_COMMANDS = {
    "validate": (cmd_validate, True, False, False, ()),
    "diagonal": (cmd_diagonal, True, True, True, ()),
    "am": (cmd_am, True, True, True, ()),
    "unit": (cmd_unit, True, False, False, ()),
    "moebius": (cmd_moebius, True, False, False, ()),
    "product": (cmd_product, True, False, False, ()),
    "clifford": (cmd_clifford, True, False, True, ()),
    "spectrum": (cmd_spectrum, False, False, False, (
        ("--max-size", {"type": int, "required": True}),)),
    "gap-search": (cmd_gap_search, False, False, False, (
        ("--skeleton-max-size", {"type": int, "default": 3}),
        ("--max-cyclic-order", {"type": int, "default": 4}),
        ("--limit", {"type": int, "default": 20000}))),
    "verify": (cmd_verify, True, False, False, ()),
}


def _build_parser(commands=_COMMANDS, parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="semiam",
        description=(
            "Exact diagonals and amenability constants of finite semilattice"
            " and Clifford semigroup algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        func, needs_input, method, digits, options = _COMMANDS[name]
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument(
                "input",
                help="file path, inline JSON, or - for stdin",
            )
        if method:
            p.add_argument(
                "--method",
                choices=["recursive", "moebius", "solver", "all"],
                default="recursive",
            )
        if digits:
            p.add_argument("--digits", type=int, default=6)
        p.add_argument("--format", choices=["json", "table", "csv"], default="json")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


class _ParseFailed(Exception):
    pass


class _OneCommandParser(argparse.ArgumentParser):
    """A parser of the one subcommand argv names: any usage error goes
    back, unprinted, to the full parser, which reports it."""

    def error(self, message):
        raise _ParseFailed(message)


def _parse_args(argv):
    """The full parser's namespace, output and exit for argv, building
    only the named subcommand's parser when argv starts with a name."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        try:
            return _build_parser(argv[:1], _OneCommandParser).parse_args(argv)
        except _ParseFailed:
            pass
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        try:
            digits = getattr(args, "digits", 0)
            if not 0 <= digits <= sys.int_info.default_max_str_digits:
                raise _fail_invalid("digits", digits)
            payload, code = args.func(args)
            _emit(payload, args.command, args.format)
        except InputError as exc:
            if exc.payload is not None:
                print(json.dumps(exc.payload, indent=2, sort_keys=True))
            else:
                print(str(exc), file=sys.stderr)
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: devnull takes the flush at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return code


def entry():
    """Run main() as a process: flush stdout and stderr, then end at once.

    os._exit skips interpreter teardown, which no output depends on, so
    atexit hooks do not run.  A crash still propagates with its traceback.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # as in main: devnull takes what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
