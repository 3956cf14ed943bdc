"""Self-tests of the benchmark: python3 -m unittest discover benchmarks"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import unittest

import checks
import inputs
import oracle
import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))

import semiam.cli  # noqa: E402
from semiam import clifford, semilattice  # noqa: E402


class InputTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        first = json.dumps([q.argv for q in inputs.query_pool(7)])
        again = json.dumps([q.argv for q in inputs.query_pool(7)])
        other = json.dumps([q.argv for q in inputs.query_pool(8)])
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_random_families_are_semilattices_of_the_asked_size(self):
        rng = random.Random(3)
        for n in (1, 2, 5, 17, 40, 100):
            table = inputs.random_family(rng, n)
            self.assertEqual(len(table), n)
            self.assertTrue(semilattice.check_table(table).ok)

    def test_random_clifford_inputs_are_valid(self):
        rng = random.Random(5)
        for size in (1, 2, 3, 4):
            for _ in range(10):
                doc = inputs.random_clifford(rng, size, 4)
                built = clifford.from_json_dict(doc)
                self.assertIsInstance(built, clifford.CliffordSemigroup, doc)

    def test_oracle_gives_the_closed_forms(self):
        for name, (make, closed_form) in inputs.CLOSED_FORMS.items():
            for n in range(1, 6):
                with self.subTest(family=name, n=n):
                    self.assertEqual(oracle.amenability(make(n)), closed_form(n))


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = semiam.cli.main(list(argv))
    return code, buf.getvalue().encode()


class CheckTests(unittest.TestCase):
    def test_corrupted_query_output_is_a_failure(self):
        for query in inputs.query_pool(11):
            code, out = _cli(query.argv)
            with self.subTest(kind=query.kind):
                self.assertIsNone(checks.check_query(query, code, out))
                doc = json.loads(out)
                key = "witness" if "witness" in doc else "ok"
                doc[key] = "corrupted"
                bad = json.dumps(doc).encode()
                self.assertIsNotNone(checks.check_query(query, code, bad))
                self.assertIsNotNone(checks.check_query(query, 3, out))
                self.assertIsNotNone(checks.check_query(query, code, out[:-5]))

    def test_corrupted_answers_are_failures(self):
        for kind in ("am", "moebius"):
            query = next(q for q in inputs.query_pool(2) if q.kind == kind)
            code, out = _cli(query.argv)
            doc = json.loads(out)
            doc["am"] = str(int(doc["am"]) + 4)  # still 1 mod 4
            self.assertIn("expected", checks.check_query(query, code, json.dumps(doc).encode()))

    def test_tally_counts_a_corrupted_repeat(self):
        gap = dict(checks.GAP_GOLDEN)
        good = json.dumps(gap).encode()
        bad = json.dumps(dict(gap, min_am_above_5="7")).encode()
        call = run.Call(["gap-search"], checks.check_gap)
        tally = run.Tally()
        for out in (good, good, bad, good):
            tally.record(0, call, 0, out)
        self.assertEqual(tally.attempted, 4)
        self.assertEqual(len(tally.failures), 1)
        self.assertIn("min_am_above_5", tally.failures[0])

    def test_spawn_returns_the_childs_exit_code_and_whole_output(self):
        env = run.child_env()
        child = run.spawn(["spectrum", "--max-size", "6"], env)
        self.assertEqual(child.code, 0, child.err)
        self.assertEqual(len(json.loads(child.out)["classes"]), sum(checks.SPECTRUM_COUNTS[:6]))
        self.assertGreater(child.elapsed, 0)
        child = run.spawn(["am", "not json"], env)
        self.assertNotEqual(child.code, 0)
        self.assertTrue(child.err)

    def test_spectrum_check_rejects_a_wrong_count_and_a_wrong_am(self):
        code, out = _cli(["spectrum", "--max-size", str(run.SPECTRUM_MAX_SIZE)])
        self.assertIsNone(checks.check_spectrum(code, out))
        doc = json.loads(out)
        doc["classes"][100]["am"] = "9"
        self.assertIn("oracle", checks.check_spectrum(code, json.dumps(doc).encode()))
        doc["counts"][7] -= 1
        self.assertIn("counts", checks.check_spectrum(code, json.dumps(doc).encode()))


class SpanTests(unittest.TestCase):
    def test_self_time_is_span_time_minus_child_time(self):
        tree = [
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 4.0, 0),
            ("c", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
            ("c", 6.0, 8.5, 3),
            ("a", 11.0, 12.0, None),
        ]
        totals = spans.self_times(tree)
        self.assertEqual(totals["root"], (10.0 - 3.0 - 4.0, 1))
        self.assertEqual(totals["a"], ((3.0 - 1.0) + 1.0, 2))
        self.assertEqual(totals["b"], (4.0 - 2.5, 1))
        self.assertEqual(totals["c"], (1.0 + 2.5, 2))

    def test_every_layer_fires_on_its_workload(self):
        # layer metric -> workloads named for it
        expected = {
            "cli.main.calls": ("queries", "spectrum"),
            "semilattice.check_table.calls": ("queries",),
            "semilattice.Semilattice.calls": ("queries", "spectrum"),
            "enumeration.canonical_table.calls": ("spectrum",),
            "enumeration.enumerate_by_extension.self_s": ("spectrum",),
            "enumeration.gap_instances.self_s": ("gap",),
            "enumeration.instances": ("gap",),
            "diagonal.diagonal_recursive.calls": ("spectrum", "queries"),
            "diagonal.verify_diagonal.calls": ("gap", "queries"),
            "diagonal.unit.self_s": ("spectrum",),
            "diagonal.DiagonalTensor.am.self_s": ("spectrum",),
            "moebius.mobius_table.calls": ("spectrum", "queries"),
            "moebius.diagonal_via_mobius.self_s": ("spectrum", "queries"),
            "moebius.nonzeros": ("spectrum", "queries"),
            "clifford.build_clifford.calls": ("gap",),
            "clifford.unit_solve.self_s": ("gap",),
            "clifford.diagonal_solve.self_s": ("gap",),
            "exactlinalg.add_row.calls": ("gap",),
            "exactlinalg.rows_pivot": ("gap",),
            "exactlinalg.pivot_ratio": ("gap",),
            "exactlinalg.solve.self_s": ("gap",),
        }
        for name in ("gap", "spectrum", "queries"):
            workload = run.make_workload(name, 1)
            tracer = spans.Tracer()
            tally = run.Tally()
            with tracer.installed():
                run.in_process_pass(semiam.cli.main, workload, tally)
            self.assertEqual(tally.failures, [])
            metrics = run.layer_metrics(tracer)
            for metric, workloads in expected.items():
                if name in workloads:
                    with self.subTest(workload=name, metric=metric):
                        self.assertGreater(metrics[metric], 0)

    def test_wrappers_are_removed_after_the_block(self):
        init = semilattice.Semilattice.__init__
        before = {
            (m.__name__, k): v for m in spans._semiam_modules() for k, v in vars(m).items()
        }
        with spans.Tracer().installed():
            self.assertIsNot(semiam.cli.main, before[("semiam.cli", "main")])
        after = {
            (m.__name__, k): v for m in spans._semiam_modules() for k, v in vars(m).items()
        }
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        self.assertIs(semilattice.Semilattice.__init__, init)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER),
        )
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["setup_s", "items_per_s", "query_p50_ms", "query_p90_ms", "peak_rss_mb", "ok_ratio"],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], ["gap", "spectrum", "queries"])


if __name__ == "__main__":
    unittest.main()
