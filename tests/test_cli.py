import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest

from conftest import SIX_LABELS, make_six
from oracles import relabel
from semiam import cli
from semiam.diagonal import DiagonalTensor, diagonal_recursive
from semiam.exactlinalg import rat_str
from test_clifford import PARTIAL_Z2_CHAIN_IDS, PARTIAL_Z2_CHAINS

SIX_JSON = json.dumps({"table": [list(r) for r in make_six().table]})
BROOM_JSON = json.dumps({"n": 4, "hasse": [[0, 1], [0, 2], [1, 3]]})
G2_JSON = json.dumps(
    {
        "skeleton": {
            "table": [list(r) for r in make_six().table],
            "labels": ["o", "s1", "s2", "s3", "s4", "1"],
        },
        "groups": [{"cyclic": [1]}, {"cyclic": [1]}, {"cyclic": [1]},
                   {"cyclic": [2]}, {"cyclic": [1]}, {"cyclic": [1]}],
        "homs": [],
    }
)

# the six-element lattice with element i moved to index [3, 0, 5, 1, 4, 2][i]
SHUFFLED = relabel(make_six(), [3, 0, 5, 1, 4, 2])
SHUFFLED_JSON = json.dumps(
    {"table": [list(r) for r in SHUFFLED.table], "labels": list(SHUFFLED.labels)}
)

D_SIX_ROWS = [
    ["6", "-2", "-2", "0", "-2", "1"],
    ["-2", "2", "1", "-1", "0", "0"],
    ["-2", "1", "2", "-1", "0", "0"],
    ["0", "-1", "-1", "2", "1", "-1"],
    ["-2", "0", "0", "1", "2", "-1"],
    ["1", "0", "0", "-1", "-1", "1"],
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_validate_ok(capsys):
    code, payload, _ = run_json(capsys, "validate", SIX_JSON)
    assert code == 0
    assert payload["ok"] is True
    assert payload["n"] == 6
    assert payload["minimum"] == 0
    assert payload["levels"] == [0, 1, 1, 2, 2, 3]
    assert payload["height"] == 3
    assert payload["perm"] == [0, 1, 2, 3, 4, 5]
    assert payload["unital"] is True
    assert [0, 1] in payload["hasse"] and [3, 5] in payload["hasse"]


@pytest.mark.parametrize(
    "doc, axiom",
    [
        ({"n": True, "hasse": []}, "shape"),
        ({"n": 2, "hasse": [[False, True]]}, "edge"),
        ({"table": [[0]], "n": True}, "shape"),
    ],
    ids=["hasse-n", "hasse-edge", "table-n"],
)
def test_validate_rejects_booleans_as_integers(capsys, doc, axiom):
    code, payload, err = run_json(capsys, "validate", json.dumps(doc))
    assert code == 2
    assert [v["axiom"] for v in payload["violations"]] == [axiom]
    assert err == ""


def test_validate_bounds_the_report_on_a_large_antichain(capsys):
    # 24 bytes of input: one meet violation per element, not one per pair
    code, payload, _ = run_json(capsys, "validate", '{"n": 800, "hasse": []}')
    assert code == 2
    assert len(payload["violations"]) == 799
    assert payload["violations"][-1] == {"axiom": "meet", "witness": [798, 799]}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_validate_rejects_a_large_antichain_without_building_its_table():
    # the n x n table of 4000 elements alone took over 100 MB: from_hasse
    # builds it only after the meet scan passes.  The child reports its own
    # VmHWM, which, unlike ru_maxrss, starts afresh at exec.
    script = (
        "import sys\n"
        "from semiam import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    sys.stderr.write(status.read())\n"
        "sys.exit(code)\n"
    )
    import_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(import_root))
    child = subprocess.run(
        [sys.executable, "-c", script, "validate", '{"n": 4000, "hasse": []}'],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 2, child.stderr
    violations = json.loads(child.stdout)["violations"]
    assert len(violations) == 3999
    assert violations[0] == {"axiom": "meet", "witness": [0, 1]}
    assert violations[-1] == {"axiom": "meet", "witness": [3998, 3999]}
    peak_kb = next(int(line.split()[1]) for line in child.stderr.splitlines()
                   if line.startswith("VmHWM:"))
    assert peak_kb < 40 * 1024


def _run_reporting_peak(*argv):
    """Run the CLI in a child capped at 1 GB of address space that reports
    its own VmHWM: (exit code, stdout, the CLI's stderr, peak kB)."""
    script = (
        "import io, resource, sys\n"
        "from contextlib import redirect_stderr\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from semiam import cli\n"
        "err = io.StringIO()\n"
        "with redirect_stderr(err):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    sys.stderr.write(status.read() + 'CLI stderr:' + err.getvalue())\n"
        "sys.exit(code)\n"
    )
    import_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(import_root))
    child = subprocess.run([sys.executable, "-c", script, *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    status, _, err = child.stderr.partition("CLI stderr:")
    peak_kb = next(int(line.split()[1]) for line in status.splitlines()
                   if line.startswith("VmHWM:"))
    return child.returncode, child.stdout, err, peak_kb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_a_huge_hasse_input_exits_2_before_anything_is_built():
    # 30 bytes that would ask for n n-bit masks, about 60 GB at n = 10^6
    skeleton = {"n": 1000000000, "hasse": []}
    refused = {"ok": False, "violations": [{"axiom": "size", "witness": [1000000000]}]}
    for argv in (("validate", json.dumps(skeleton)),
                 ("am", json.dumps(skeleton)),
                 ("clifford", json.dumps({"skeleton": skeleton, "groups": []}))):
        code, out, err, peak_kb = _run_reporting_peak(*argv)
        assert (code, json.loads(out), err) == (2, refused, ""), argv
        assert peak_kb < 40 * 1024


def test_matrix_strings_read_the_ints_as_rat_str_reads_fractions():
    base = make_six()
    perm = base.canonical_perm
    sixths = DiagonalTensor(
        base, [[Fraction(3 * g - 5 * h, 6) for h in range(6)] for g in range(6)])
    assert sixths.den == 6
    for d in (sixths, diagonal_recursive(base)):
        assert cli._canonical_matrix_strings(d) == [
            [rat_str(Fraction(d.rows[g][h], d.den)) for h in perm] for g in perm]


def test_validate_rejects_bad_table(capsys):
    bad = json.dumps({"table": [[0, 0], [0, 0]]})
    code, payload, _ = run_json(capsys, "validate", bad)
    assert code == 2
    assert payload["ok"] is False
    assert payload["violations"][0]["axiom"] == "idempotent"
    assert payload["violations"][0]["witness"] == [1]


def test_diagonal_golden(capsys):
    code, payload, _ = run_json(capsys, "diagonal", SIX_JSON)
    assert code == 0
    assert payload["method"] == "recursive"
    assert payload["am"] == "41"
    assert payload["am_mod4"] == 1
    assert payload["am_decimal"] == "41.000000"
    assert payload["unit"] == ["0", "0", "0", "0", "0", "1"]
    assert payload["diagonal"] == D_SIX_ROWS
    assert payload["perm"] == [0, 1, 2, 3, 4, 5]


def test_shuffled_input_is_written_in_canonical_order(capsys):
    code, payload, _ = run_json(capsys, "diagonal", SHUFFLED_JSON)
    assert code == 0
    assert payload["perm"] == [3, 0, 5, 1, 4, 2]
    assert payload["labels"] == SIX_LABELS
    assert payload["am"] == "41"
    assert payload["diagonal"] == D_SIX_ROWS

    code, unit_payload, _ = run_json(capsys, "unit", SHUFFLED_JSON)
    assert code == 0
    assert unit_payload["perm"] == [3, 0, 5, 1, 4, 2]

    # verify reads the canonical-order matrix back through the same perm
    doc = {"base": json.loads(SHUFFLED_JSON), "diagonal": payload["diagonal"]}
    code, out, _ = run_json(capsys, "verify", json.dumps(doc))
    assert code == 0
    assert out == {"ok": True}


def test_diagonal_methods_agree(capsys):
    outputs = []
    for method in ("recursive", "moebius", "solver", "all"):
        code, payload, _ = run_json(capsys, "diagonal", SIX_JSON, "--method", method)
        assert code == 0
        payload.pop("method")
        outputs.append(payload)
    assert all(p == outputs[0] for p in outputs)


@pytest.mark.parametrize("method", ["solver", "all"])
def test_solver_method_builds_no_clifford_semigroup(capsys, monkeypatch, method):
    import semiam.clifford as clifford_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a semilattice was built as a Clifford semigroup")

    monkeypatch.setattr(clifford_mod, "build_clifford", refuse)
    for doc, am in ((SIX_JSON, "41"), (BROOM_JSON, "13")):
        code, payload, err = run_json(capsys, "am", doc, "--method", method)
        assert (code, err) == (0, "")
        assert payload["am"] == am


def test_method_mismatch_exits_3(capsys, monkeypatch):
    six = make_six()
    wrong = [list(row) for row in diagonal_recursive(six).rows]
    wrong[0][0] += 1

    monkeypatch.setattr(
        cli, "diagonal_via_mobius", lambda s: DiagonalTensor(s, wrong)
    )
    code, out, err = run(capsys, "am", SIX_JSON, "--method", "all")
    assert code == 3
    assert out == ""
    detail = json.loads(err)
    assert detail["mismatch"] == "moebius"


def test_am_all_methods(capsys):
    code, payload, _ = run_json(capsys, "am", SIX_JSON, "--method", "all")
    assert code == 0
    assert payload == {
        "ok": True,
        "method": "all",
        "n": 6,
        "am": "41",
        "am_decimal": "41.000000",
        "am_mod4": 1,
    }


def test_unit_from_hasse_input(capsys):
    code, payload, _ = run_json(capsys, "unit", BROOM_JSON)
    assert code == 0
    assert payload["perm"] == [0, 1, 2, 3]
    assert payload["unit"] == ["-1", "0", "1", "1"]


def test_moebius_triples(capsys):
    code, payload, _ = run_json(capsys, "moebius", SIX_JSON)
    assert code == 0
    assert payload["mu"] == [
        [0, 0, 1], [0, 1, -1], [0, 2, -1], [0, 3, 1], [0, 4, -1], [0, 5, 1],
        [1, 1, 1], [1, 3, -1], [1, 5, 0],
        [2, 2, 1], [2, 3, -1], [2, 5, 0],
        [3, 3, 1], [3, 5, -1],
        [4, 4, 1], [4, 5, -1],
        [5, 5, 1],
    ]


def test_moebius_csv(capsys):
    code, out, _ = run(capsys, "moebius", json.dumps({"n": 2, "hasse": [[0, 1]]}),
                       "--format", "csv")
    assert code == 0
    assert out == "t,s,mu\n0,0,1\n0,1,-1\n1,1,1\n"


def test_product_of_chains(capsys):
    one = {"n": 2, "hasse": [[0, 1]]}
    code, payload, _ = run_json(
        capsys, "product", json.dumps({"a": one, "b": one})
    )
    assert code == 0
    assert payload["n"] == 4
    assert payload["labels"] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert payload["levels"] == [0, 1, 1, 2]
    assert payload["table"] == [
        [0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]
    ]


def test_product_with_a_repeated_label_exits_2(capsys):
    # ("x,y", "z") and ("x", "y,z") both print as (x,y,z)
    doc = {"a": {"table": [[0, 0], [0, 1]], "labels": ["x,y", "x"]},
           "b": {"table": [[0, 0], [0, 1]], "labels": ["z", "y,z"]}}
    code, payload, err = run_json(capsys, "product", json.dumps(doc))
    assert code == 2
    assert payload["violations"] == [{"axiom": "labels", "witness": ["(x,y,z)"]}]
    assert err == ""


def test_product_past_the_size_bound_exits_2(capsys):
    # 5 x 205 = 1025 elements, one past the bound
    doc = {"a": {"n": 5, "hasse": [[i, i + 1] for i in range(4)]},
           "b": {"n": 205, "hasse": [[i, i + 1] for i in range(204)]}}
    code, payload, err = run_json(capsys, "product", json.dumps(doc))
    assert code == 2
    assert payload == {"ok": False, "violations": [{"axiom": "size", "witness": [5, 205]}]}
    assert err == ""


def test_product_requires_both_factors(capsys):
    code, payload, _ = run_json(capsys, "product", json.dumps({"a": {"table": [[0]]}}))
    assert code == 2
    assert payload["violations"][0]["axiom"] == "input"


def test_clifford_from_file(capsys, tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(G2_JSON, encoding="utf-8")
    code, payload, _ = run_json(capsys, "clifford", str(path))
    assert code == 0
    assert payload["n"] == 7
    assert payload["am"] == "43"
    assert payload["labels"] == ["o", "s1", "s2", "e[s3]", "s3[1]", "s4", "1"]
    assert payload["blocks"] == [[0], [1], [2], [3, 4], [5], [6]]
    assert payload["unit"] == ["0", "0", "0", "0", "0", "0", "1"]
    assert payload["skeleton_am"] == "41"
    assert payload["collapse_matches_skeleton"] is True
    assert payload["am_ge_skeleton"] is True
    assert payload["diagonal"][0] == ["6", "-2", "-2", "-1/2", "1/2", "-2", "1"]


def test_clifford_fractional_am(capsys):
    obj = json.loads(G2_JSON)
    obj["groups"][3] = {"cyclic": [3]}
    code, payload, _ = run_json(capsys, "clifford", json.dumps(obj))
    assert code == 0
    assert payload["am"] == "131/3"
    assert payload["am_decimal"] == "43.666666"
    assert payload["am_mod4"] is None


def test_spectrum_json_and_csv(capsys):
    code, payload, _ = run_json(capsys, "spectrum", "--max-size", "3")
    assert code == 0
    assert payload["counts"] == [1, 1, 2]
    assert [row["am"] for row in payload["classes"]] == ["1", "5", "9", "9"]

    code, out, _ = run(capsys, "spectrum", "--max-size", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("size,index,am,")
    assert lines[1] == "1,0,1,1,True,1,True,True,0"
    assert lines[2] == '2,0,5,1,True,2,True,True,"0,0;0,1"'


def test_gap_search_small(capsys):
    args = ["gap-search", "--skeleton-max-size", "2", "--max-cyclic-order", "2"]
    code, payload, _ = run_json(capsys, *args)
    assert code == 0
    assert payload["ok"] is True
    assert payload["instances"] == 7
    assert payload["am_counts"] == [["1", 2], ["5", 5]]

    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    assert out == "am,count\n1,2\n5,5\n"

    code, out, _ = run(capsys, *args, "--format", "table")
    assert code == 0
    assert "instances = 7  ok = True" in out


def test_gap_search_instance_limit_exits_2(capsys):
    code, payload, err = run_json(capsys, "gap-search", "--limit", "3")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "instance_limit", "witness": [3]}],
    }
    assert err == ""


def test_oversized_search_family_exits_2_before_building_large_groups(capsys):
    # 20000 instances pass the default limit with cyclic orders up to 5000;
    # each group is built only when its instance comes up
    code, payload, err = run_json(capsys, "gap-search", "--max-cyclic-order", "5000")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "instance_limit", "witness": [20000]}],
    }
    assert err == ""


def test_gap_search_past_the_size_bound_exits_2_before_solving(capsys):
    # Z_513 is the first instance with more than 512 elements: the family
    # is refused once listed, before any of its 600 instances is solved
    code, payload, err = run_json(
        capsys, "gap-search", "--skeleton-max-size", "1", "--max-cyclic-order", "600")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "size", "witness": [512, 513]}],
    }
    assert err == ""


def test_a_huge_max_cyclic_order_exits_2_at_the_instance_limit(capsys):
    code, payload, err = run_json(
        capsys, "gap-search", "--max-cyclic-order", "1000000000000", "--limit", "5")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "instance_limit", "witness": [5]}],
    }
    assert err == ""


@pytest.mark.parametrize(
    "argv, axiom, value",
    [
        (["spectrum", "--max-size", "0"], "max_size", 0),
        (["spectrum", "--max-size", "-3"], "max_size", -3),
        (["gap-search", "--skeleton-max-size", "0"], "skeleton_max_size", 0),
        (["gap-search", "--skeleton-max-size", "-2"], "skeleton_max_size", -2),
        (["gap-search", "--max-cyclic-order", "0"], "max_cyclic_order", 0),
        (["gap-search", "--max-cyclic-order", "-1", "--format", "csv"],
         "max_cyclic_order", -1),
    ],
)
def test_empty_search_families_exit_2(capsys, argv, axiom, value):
    # an empty family would report ok on checks that never ran
    code, payload, err = run_json(capsys, *argv)
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": axiom, "witness": [value]}],
    }
    assert err == ""


@pytest.mark.parametrize("value", [11, 10 ** 30])
def test_spectrum_above_its_size_bound_exits_2(capsys, monkeypatch, value):
    def refuse(max_size):
        raise AssertionError("spectrum ran above its size bound")

    monkeypatch.setattr(cli.enumeration, "spectrum", refuse)
    code, payload, err = run_json(capsys, "spectrum", "--max-size", str(value))
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "max_size", "witness": [value]}],
    }
    assert err == ""


def test_spectrum_runs_at_its_size_bound(capsys, monkeypatch):
    # a stub stands in for the catalogue of size 10, which takes over a minute
    real, asked = cli.enumeration.spectrum, []

    def stub(max_size):
        asked.append(max_size)
        return real(1)

    monkeypatch.setattr(cli.enumeration, "spectrum", stub)
    code, payload, _ = run_json(capsys, "spectrum", "--max-size", "10")
    assert code == 0
    assert asked == [10]
    assert payload["counts"] == [1]


@pytest.mark.parametrize("value", [11, 10 ** 30])
def test_gap_search_above_the_skeleton_size_bound_exits_2(capsys, monkeypatch, value):
    # the skeletons are every class up to the size, as in spectrum
    def refuse(**kwargs):
        raise AssertionError("gap-search ran above its skeleton size bound")

    monkeypatch.setattr(cli.enumeration, "gap_search", refuse)
    code, payload, err = run_json(
        capsys, "gap-search", "--skeleton-max-size", str(value), "--max-cyclic-order", "1")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "skeleton_max_size", "witness": [value]}],
    }
    assert err == ""


def test_gap_search_runs_at_the_skeleton_size_bound(capsys, monkeypatch):
    # a stub stands in for the skeletons of size 10, which take over a minute
    real, asked = cli.enumeration.gap_search, []

    def stub(skeleton_max_size, max_cyclic_order, instance_limit):
        asked.append(skeleton_max_size)
        return real(1, max_cyclic_order, instance_limit)

    monkeypatch.setattr(cli.enumeration, "gap_search", stub)
    code, payload, _ = run_json(
        capsys, "gap-search", "--skeleton-max-size", "10", "--max-cyclic-order", "1")
    assert code == 0
    assert asked == [10]
    assert payload["instances"] == 1


def test_smallest_search_families_run(capsys):
    code, payload, _ = run_json(capsys, "spectrum", "--max-size", "1")
    assert code == 0
    assert payload["counts"] == [1]
    code, payload, _ = run_json(
        capsys, "gap-search", "--skeleton-max-size", "1", "--max-cyclic-order", "1"
    )
    assert code == 0
    assert payload["instances"] == 1
    assert payload["am_counts"] == [["1", 1]]


def _chain_z2_doc(**changes):
    doc = {
        "skeleton": {"n": 2, "hasse": [[0, 1]]},
        "groups": [{"cyclic": [2]}, {"cyclic": [2]}],
        "homs": [{"from": 1, "to": 0, "gen_images": [[1]]}],
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize("images", ["x", [1], [[1], "y"], [[True]], 7, None])
@pytest.mark.parametrize("command", ["clifford", "verify"])
def test_malformed_gen_images_exit_2(capsys, command, images):
    doc = _chain_z2_doc(homs=[{"from": 1, "to": 0, "gen_images": images}])
    if command == "verify":
        doc = {"base": doc, "diagonal": [[0] * 4 for _ in range(4)]}
    code, payload, err = run_json(capsys, command, json.dumps(doc))
    assert code == 2
    assert payload["violations"] == [{"axiom": "hom_entry", "witness": []}]
    assert err == ""


@pytest.mark.parametrize("command", ["clifford", "verify"])
def test_a_hom_pair_given_twice_exits_2(capsys, command):
    doc = _chain_z2_doc(homs=[{"from": 1, "to": 0, "gen_images": [[1]]},
                              {"from": 1, "to": 0, "gen_images": [[0]]}])
    if command == "verify":
        doc = {"base": doc, "diagonal": [[0] * 4 for _ in range(4)]}
    code, payload, err = run_json(capsys, command, json.dumps(doc))
    assert code == 2
    assert payload["violations"] == [{"axiom": "hom_pair", "witness": [1, 0]}]
    assert err == ""


# a trivial bottom block whose skeleton label is the printed label of an
# element of the Z2 block above it
@pytest.mark.parametrize("labels, witness", [
    (["e[b]", "b"], [0, 1]), (["b[1]", "b"], [0, 2]),
], ids=["identity", "element"])
@pytest.mark.parametrize("command", ["clifford", "verify"])
def test_clifford_labels_that_print_alike_exit_2(capsys, command, labels, witness):
    doc = {"skeleton": {"table": [[0, 0], [0, 1]], "labels": labels},
           "groups": [[1], [2]]}
    if command == "verify":
        doc = {"base": doc, "diagonal": [[0] * 3 for _ in range(3)]}
    code, payload, err = run_json(capsys, command, json.dumps(doc))
    assert code == 2
    assert payload["violations"] == [{"axiom": "labels", "witness": witness}]
    assert err == ""


@pytest.mark.parametrize("homs, witnesses", PARTIAL_Z2_CHAINS, ids=PARTIAL_Z2_CHAIN_IDS)
def test_clifford_reads_an_omitted_hom_as_the_zero_map(capsys, homs, witnesses):
    doc = _chain_z2_doc(
        skeleton={"n": 3, "hasse": [[0, 1], [1, 2]]}, groups=[[2]] * 3,
        homs=[{"from": s, "to": t, "gen_images": images} for (s, t), images in homs.items()])
    code, payload, err = run_json(capsys, "clifford", json.dumps(doc))
    assert err == ""
    if witnesses:
        assert code == 2
        assert payload["violations"] == [
            {"axiom": "hom_transitive", "witness": list(w)} for w in witnesses]
    else:
        assert code == 0 and payload["ok"] is True


def test_malformed_homs_list_exits_2(capsys):
    # falsy values too: only a missing key or null means "no homs"
    for homs in (5, 7, {"a": 1}, {}, 0, False, ""):
        code, payload, _ = run_json(capsys, "clifford", json.dumps(_chain_z2_doc(homs=homs)))
        assert code == 2, homs
        assert payload["violations"][0]["axiom"] == "hom_entry"


def test_null_homs_mean_trivial_homs(capsys):
    outputs = []
    for doc in (_chain_z2_doc(homs=None), _chain_z2_doc(homs=[])):
        code, payload, _ = run_json(capsys, "clifford", json.dumps(doc))
        assert code == 0
        outputs.append(payload)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("entry", [{"cyclic": [True]}, [True], {"cyclic": [2, False]}])
def test_boolean_group_order_exits_2(capsys, entry):
    doc = _chain_z2_doc(groups=[{"cyclic": [2]}, entry], homs=[])
    code, payload, _ = run_json(capsys, "clifford", json.dumps(doc))
    assert code == 2
    assert payload["violations"] == [{"axiom": "group", "witness": [1]}]


@pytest.mark.parametrize("command", ["clifford", "verify"])
def test_clifford_input_above_the_size_bound_exits_2(capsys, monkeypatch, command):
    import semiam.clifford as clifford_mod

    def refuse(self, cyclic_orders):
        raise AssertionError("a group was built before the size check")

    monkeypatch.setattr(clifford_mod.FiniteAbelianGroup, "__init__", refuse)
    base = {"skeleton": {"table": [[0]]}, "groups": [{"cyclic": [10 ** 9]}]}
    doc = base if command == "clifford" else {"base": base, "diagonal": [[1]]}
    code, payload, err = run_json(capsys, command, json.dumps(doc))
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "size", "witness": [0]}],
    }
    assert err == ""


# SHA-256 of gap-search stdout, taken before the per-group tables and the
# minimal Clifford generating set: the search output must not move
GAP_SEARCH_SHA256 = [
    (["--format", "json"],
     "cb19bdd77694a811812dd36a02584f776841a48413a92f59b272fd9f1d3a9992"),
    (["--format", "table"],
     "3eaa5044eb27073370420ccfc4e1a68b2e01864b0122a4e5f0d76696f15f0315"),
    (["--format", "csv"],
     "4bf6ae20ebb7967e2868e55604774dfcc4a5a570bb9c0c1bf0b4854edc0a7b79"),
    (["--skeleton-max-size", "4", "--max-cyclic-order", "2"],
     "a5409ff0302f0c92d30437df170ef0cb3df459f6d6afedeb2b65786d6dcb2e96"),
]


@pytest.mark.parametrize("argv, digest", GAP_SEARCH_SHA256,
                         ids=[" ".join(a) for a, _ in GAP_SEARCH_SHA256])
def test_gap_search_output_is_pinned_byte_for_byte(capsys, argv, digest):
    code, out, err = run(capsys, "gap-search", *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_accepts_the_real_diagonal(capsys):
    payload = json.dumps(
        {"base": {"table": [list(r) for r in make_six().table]},
         "diagonal": [[int(v) for v in row] for row in
                      [list(map(int, r)) for r in D_SIX_ROWS]]}
    )
    code, out, _ = run_json(capsys, "verify", payload)
    assert code == 0
    assert out == {"ok": True}


def test_verify_catches_perturbation(capsys):
    payload = json.dumps(
        {
            "base": {"n": 3, "hasse": [[0, 1], [0, 2]]},
            "diagonal": [[3, -1, -1], [-1, 1, 1], [-1, -1, 1]],
        }
    )
    code, out, _ = run_json(capsys, "verify", payload)
    assert code == 2
    assert out["ok"] is False
    assert out["witness"] == {
        "kind": "centrality",
        "q": 0,
        "pair": [0, 1],
        "lhs": "-1",
        "rhs": "0",
    }


def test_verify_clifford_base(capsys):
    g2 = json.loads(G2_JSON)
    rows = [
        ["6", "-2", "-2", "-1/2", "1/2", "-2", "1"],
        ["-2", "2", "1", "-1/2", "-1/2", "0", "0"],
        ["-2", "1", "2", "-1/2", "-1/2", "0", "0"],
        ["-1/2", "-1/2", "-1/2", "3/2", "0", "1", "-1"],
        ["1/2", "-1/2", "-1/2", "0", "1/2", "0", "0"],
        ["-2", "0", "0", "1", "0", "2", "-1"],
        ["1", "0", "0", "-1", "0", "-1", "1"],
    ]
    code, out, _ = run_json(
        capsys, "verify", json.dumps({"base": g2, "diagonal": rows})
    )
    assert code == 0
    assert out == {"ok": True}


def test_verify_rejects_float_entries(capsys):
    payload = json.dumps(
        {"base": {"table": [[0]]}, "diagonal": [[1.0]]}
    )
    code, out, _ = run_json(capsys, "verify", payload)
    assert code == 2
    assert out["violations"][0]["axiom"] == "float_entry"


@pytest.mark.parametrize("entry", ["1e9999999", "0.5", "1/-2"])
def test_verify_rejects_entries_that_are_not_digits_over_digits(entry):
    # a child with a deadline: Fraction("1e9999999") ran for minutes
    payload = json.dumps({"base": {"table": [[0]]}, "diagonal": [[entry]]})
    import_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(import_root))
    child = subprocess.run(
        [sys.executable, "-m", "semiam", "verify", payload],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert child.returncode == 2, child.stderr
    assert json.loads(child.stdout) == {
        "ok": False, "violations": [{"axiom": "entry", "witness": [entry]}]}


def test_missing_file_exits_4(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 4
    assert out == ""
    assert "cannot read" in err


def test_bad_json_exits_2(capsys):
    code, payload, _ = run_json(capsys, "validate", "{not json")
    assert code == 2
    assert payload["violations"][0]["axiom"] == "json"


def test_integer_past_the_digit_limit_exits_2(capsys):
    # json.loads raises ValueError, not JSONDecodeError, past 4300 digits
    doc = '{"n": 1' + "0" * 4399 + ', "hasse": []}'
    code, payload, err = run_json(capsys, "validate", doc)
    assert code == 2
    assert payload["violations"][0]["axiom"] == "json"
    assert err == ""


def refuse_constant(name):
    raise AssertionError(f"{name} in the output is not JSON")


@pytest.mark.parametrize("command, doc, axiom", [
    ("verify", '{"base": {"table": [[0]]}, "diagonal": [[1e400]]}', "json"),
    ("verify", '{"base": {"table": [[0]]}, "diagonal": [[-1E+400]]}', "json"),
    ("verify", '{"base": {"table": [[0]]}, "diagonal": [[NaN]]}', "json"),
    ("validate", '{"table": [[0]], "n": NaN}', "json"),
    ("validate", '{"table": [[0]], "n": Infinity}', "json"),
    ("validate", '{"table": [[-Infinity]]}', "json"),
    ("clifford", '{"skeleton": {"table": [[0]]}, "groups": [[1e999]]}', "json"),
    # finite floats keep the violations they had
    ("verify", '{"base": {"table": [[0]]}, "diagonal": [[1e300]]}', "float_entry"),
    ("validate", '{"table": [[0]], "n": 1.5}', "shape"),
    ("validate", '{"table": [[1e-400]]}', "range"),
])
def test_non_finite_numbers_exit_2_with_json_output(capsys, command, doc, axiom):
    code, out, err = run(capsys, command, doc)
    assert code == 2
    assert err == ""
    payload = json.loads(out, parse_constant=refuse_constant)
    assert payload["violations"][0]["axiom"] == axiom


def test_nesting_too_deep_to_decode_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"table": ' + "[" * 200000 + "}")
    code, payload, err = run_json(capsys, "validate", str(path))
    assert code == 2
    assert payload["violations"][0]["axiom"] == "json"
    assert err == ""


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SIX_JSON))
    code, payload, _ = run_json(capsys, "am", "-")
    assert code == 0
    assert payload["am"] == "41"


def test_output_bytes_are_deterministic(capsys):
    _, first, _ = run(capsys, "diagonal", SIX_JSON, "--method", "all")
    _, second, _ = run(capsys, "diagonal", SIX_JSON, "--method", "all")
    assert first == second


def test_digits_flag(capsys):
    code, payload, _ = run_json(capsys, "am", SIX_JSON, "--digits", "2")
    assert code == 0
    assert payload["am_decimal"] == "41.00"
    code, payload, _ = run_json(capsys, "am", SIX_JSON, "--digits", "0")
    assert code == 0
    assert payload["am_decimal"] == "41"
    code, payload, err = run_json(capsys, "am", SIX_JSON, "--digits", "-2")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "digits", "witness": [-2]}],
    }
    assert err == ""


def test_digits_above_the_int_str_limit_exit_2(capsys):
    obj = json.loads(G2_JSON)
    obj["groups"][3] = {"cyclic": [3]}  # AM = 131/3
    doc = json.dumps(obj)
    code, payload, err = run_json(capsys, "clifford", doc, "--digits", "5000")
    assert code == 2
    assert payload == {
        "ok": False,
        "violations": [{"axiom": "digits", "witness": [5000]}],
    }
    assert err == ""
    limit = sys.int_info.default_max_str_digits
    code, payload, _ = run_json(capsys, "clifford", doc, "--digits", str(limit))
    assert code == 0
    assert payload["am_decimal"] == "43." + "6" * limit


def test_table_format_diagonal(capsys):
    code, out, _ = run(capsys, "diagonal", SIX_JSON, "--format", "table")
    assert code == 0
    assert "am = 41" in out
    assert "unit: 0 0 0 0 0 1" in out


def test_csv_rejected_where_meaningless(capsys):
    code, payload, _ = run_json(capsys, "am", SIX_JSON, "--format", "csv")
    assert code == 2
    assert payload["violations"][0]["axiom"] == "format"


def _declared_entry_point():
    """The ``[project.scripts] semiam`` target, as an ``EntryPoint``.

    An installed distribution's metadata is read first, since it works on
    Python 3.10 too; otherwise ``pyproject.toml`` is read with ``tomllib``.
    """
    try:
        installed = metadata.distribution("semiam").entry_points
    except metadata.PackageNotFoundError:
        installed = []
    for ep in installed:
        if ep.group == "console_scripts" and ep.name == "semiam":
            return ep
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["semiam"]
    return metadata.EntryPoint(
        name="semiam", value=target, group="console_scripts"
    )


def _check_command(command, cwd, env=None):
    ok = subprocess.run(
        [*command, "am", '{"n": 1, "hasse": []}'],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["am"] == "1"
    bad = subprocess.run(
        [*command, "am", '{"n": 2, "hasse": [[0, 0]]}'],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert bad.returncode == 2, bad.stderr
    assert json.loads(bad.stdout)["violations"][0]["axiom"] == "edge"


def test_console_script_installed(tmp_path):
    ep = _declared_entry_point()
    assert callable(ep.load())

    # A child that imports semiam from the same place as this test, run
    # away from the repo root so the working directory cannot supply it.
    import_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(import_root))
    script = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    _check_command([sys.executable, "-c", script], tmp_path, env)
    _check_command([sys.executable, "-m", "semiam"], tmp_path, env)

    installed = shutil.which("semiam")
    if installed is not None:
        _check_command([installed], tmp_path)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--max-size", "7"], ["am", SIX_JSON], ["validate", '{"n": 0}']],
    ids=["spectrum", "am", "invalid"],
)
def test_closed_stdout_exits_4_quietly(argv, buffered):
    # spectrum --max-size 7 writes about 278 KB, far more than a pipe
    # holds, so the child is still writing when the reader goes away; the
    # short outputs get a pipe whose read end is closed before the child
    # starts, so they always meet a closed pipe
    import_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(import_root), PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    if argv[0] == "spectrum":
        stdout = subprocess.PIPE
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    child = subprocess.Popen(
        [sys.executable, "-m", "semiam", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )
    if argv[0] == "spectrum":
        assert len(child.stdout.read(120)) == 120
        child.stdout.close()
    else:
        os.close(stdout)
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == cli.EXIT_IO
    assert err == b""


def _readme_examples():
    """(argv, expected stdout) for each `$ semiam ...` command in the
    README's text example block; a command runs on until its quotes close."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```text\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    examples = []
    i = 0
    while i < len(lines):
        command = lines[i][2:]
        i += 1
        while True:
            try:
                argv = shlex.split(command)
                break
            except ValueError:  # an open quote: the command goes on
                command += "\n" + lines[i]
                i += 1
        output = []
        while i < len(lines) and not lines[i].startswith("$ "):
            output.append(lines[i])
            i += 1
        while output and not output[-1]:
            output.pop()
        assert argv[0] == "semiam"
        examples.append((argv[1:], "".join(line + "\n" for line in output)))
    return examples


def test_readme_examples_print_their_text(capsys):
    examples = _readme_examples()
    assert len(examples) == 4
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == expected, argv


PARSE_EXITS = [[], ["--help"], ["-h"], ["bogus"], ["gap-search", "--limit", "x"],
               ["am", "--bogus", "{}"], ["am", "--method", "nope", "{}"], ["am"],
               ["spectrum"], ["gap-search", "extra"], ["gap-search", "--skeleton-max-size"]]


@pytest.mark.parametrize("argv", PARSE_EXITS + [[name, "--help"] for name in cli._COMMANDS],
                         ids=lambda argv: " ".join(argv) or "no argv")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    # main parses a named command with that command's parser alone; help,
    # usage errors and their exit codes must be the full parser's
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as narrow:
        cli.main(argv)
    got = capsys.readouterr()
    assert (got.out, got.err, narrow.value.code) == (expected.out, expected.err, full.value.code)
    assert expected.out or expected.err


def test_a_named_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    real = cli._build_parser

    def recording(*args):
        built.append(list(args[0]) if args else "every command")
        return real(*args)

    monkeypatch.setattr(cli, "_build_parser", recording)
    assert cli.main(["gap-search", "--skeleton-max-size", "2", "--max-cyclic-order", "2"]) == 0
    assert built == [["gap-search"]]
    capsys.readouterr()
