"""The benchmark tracer (benchmarks/spans.py) wraps library functions found by
name.  Renaming or deleting one must fail here, not only in a traced run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import semiam
from semiam import clifford, enumeration
from semiam.exactlinalg import SparseEliminator
from semiam.moebius import mobius_table
from semiam.semilattice import chain

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_spans().TRACED
    assert traced
    for span, module_name, attribute in traced:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            # the tracer reads methods from the class's own __dict__
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name)
            assert method in vars(cls), span
            assert callable(vars(cls)[method]), span
        else:
            assert callable(getattr(owner, attribute)), span


def test_mobius_table_result_has_pairs():
    # the tracer counts Moebius nonzeros through .pairs()
    assert [v for _, _, v in mobius_table(chain(1)).pairs()] == [1, -1, 1]


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    # Tracer.installed() looks each TRACED module up in sys.modules, and
    # dataclasses (with inspect, ast, dis) would cost every CLI start
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(semiam.__file__).parents[1])!r})\n"
        "import semiam.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    for span, module_name, _ in load_spans().TRACED:
        assert module_name in loaded, span


def test_gap_search_lists_its_instances_once_as_a_list(monkeypatch):
    # the tracer counts enumeration.instances by len() of the result of
    # the one gap_instances call that gap_search makes
    listings = []
    real = enumeration.gap_instances

    def listing(*args):
        listings.append(real(*args))
        return listings[-1]

    monkeypatch.setattr(enumeration, "gap_instances", listing)
    report = enumeration.gap_search(2, 3)
    assert len(listings) == 1
    assert type(listings[0]) is list
    assert len(listings[0]) == report.instance_count > 0


def test_gap_search_verifies_each_instance_through_the_clifford_module(monkeypatch):
    # the tracer counts diagonal.verify_diagonal.calls by wrapping the name
    # on every semiam module that holds it: gap_search reaches it through
    # semiam.clifford, once per instance
    calls = []
    real = clifford.verify_diagonal

    def counted(d, u):
        calls.append(d.n)
        return real(d, u)

    monkeypatch.setattr(clifford, "verify_diagonal", counted)
    report = enumeration.gap_search(2, 3)
    assert report.ok
    assert len(calls) == report.instance_count > 0


def test_add_row_returns_the_status_names_the_tracer_counts():
    # the tracer builds the counter exactlinalg.rows_<status> from each
    # add_row result
    elim = SparseEliminator(2)
    assert [elim.add_row({0: 1}, 1), elim.add_row({0: 2}, 2),
            elim.add_row({0: 3}, 1)] == ["pivot", "dependent", "inconsistent"]
