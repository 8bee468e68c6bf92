"""Self-tests of the benchmark (stdlib only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import ast
import json
import subprocess
import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kernel  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class CaseStreamTest(unittest.TestCase):
    def test_same_seed_same_cases_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS.values():
            first = workloads.round_cases(workload, 5, 0)
            self.assertEqual(first, workloads.round_cases(workload, 5, 0), workload.name)
            other = workloads.round_cases(workload, 6, 0)
            self.assertNotEqual(first, other, workload.name)
            # the mix is the same, only the sampled values differ
            self.assertEqual(sorted(c.op for c in first), sorted(c.op for c in other), workload.name)

    def test_rounds_differ_within_a_run(self):
        workload = workloads.WORKLOADS["wire"]
        self.assertNotEqual(workloads.round_cases(workload, 5, 0), workloads.round_cases(workload, 5, 1))


def _one_round_workload(cases):
    return workloads.Workload("selftest", "case", 1, lambda rng: list(cases), lambda api: iter(()))


class CaseOutcomeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.api = workloads.load_api()

    def _run(self, cases):
        run_pass = run.Pass(1)
        run_pass.run_round(self.api, _one_round_workload(cases), 1, 0, {}, kernel.Ticker())
        return run_pass

    def test_flipped_expectation_counts_as_failed(self):
        axioms = workloads.round_cases(workloads.WORKLOADS["axioms"], 3, 0)
        check = next(c for c in axioms if c.op == "run_check" and c.expect is True)
        dims = workloads._cli(["dims", "--class", "gna", "--n", "2", "--field", "Q"], 0)
        cases = [check, replace(check, expect=False), dims, replace(dims, expect=1)]
        run_pass = self._run(cases)
        self.assertEqual(len(run_pass.raw_s), 4)
        self.assertEqual(len(run_pass.failures), 2)
        self.assertEqual(run_pass.unexpected_failures, 2)

    def test_fault_injected_case_fails_and_replays(self):
        axioms = workloads.round_cases(workloads.WORKLOADS["axioms"], 3, 0)
        faults = [c for c in axioms if c.args.get("fault")]
        self.assertEqual(len(faults), len(workloads.CLASS_FIELDS))
        run_pass = self._run(faults)
        self.assertEqual(run_pass.failures, [])

    def test_digest_repeats_for_a_seed(self):
        workload = workloads.WORKLOADS["wire"]
        digests = {run.run_rounds(self.api, workload, 4, {})[0].digest.hexdigest() for _ in range(2)}
        self.assertEqual(len(digests), 1)

    def test_escaping_exception_is_a_failure(self):
        defect = workloads._cli(["bracket", '{"field":"Q","n":1,"entries":[["1/0"]]}',
                                 '{"field":"Q","n":1,"entries":[["1"]]}'], 2, workloads.KNOWN_DEFECT)
        run_pass = self._run([defect])
        self.assertEqual(len(run_pass.failures), 1)
        self.assertEqual(run_pass.known_defect_failures, 1)
        self.assertEqual(run_pass.unexpected_failures, 0)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TracerTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        t = tracing.Tracer(["outer", "inner"])

        def inner():
            _busy(0.002)

        inner_traced = t.wrap("inner", inner)

        def outer():
            _busy(0.001)
            inner_traced()
            inner_traced()
            _busy(0.001)

        t.case_id = "c1"
        t.wrap("outer", outer)()
        totals = t.totals()
        self.assertEqual(totals["outer"][0], 1)
        self.assertEqual(totals["inner"][0], 2)
        spans = t.spans
        outer_span = next(s for s in spans if s[0] == 0)
        inner_spans = [s for s in spans if s[0] == 1]
        outer_index = spans.index(outer_span)
        self.assertTrue(all(s[3] == outer_index for s in inner_spans))
        self.assertEqual(outer_span[3], -1)
        self.assertTrue(all(s[4] == "c1" for s in spans))
        expected_self = (outer_span[2] - outer_span[1]) - sum(e - s for _, s, e, _, _ in inner_spans)
        self.assertAlmostEqual(totals["outer"][1], expected_self, places=9)
        self.assertAlmostEqual(totals["inner"][1], sum(e - s for _, s, e, _, _ in inner_spans), places=9)

    def test_install_rebinds_everywhere_and_restores(self):
        api = workloads.load_api()
        contains = api.classes.contains
        t = tracing.Tracer(tracing.LAYER_FUNCTIONS)
        bound = t.install(tracing.resolve_targets())
        try:
            self.assertGreater(bound, len(tracing.LAYER_FUNCTIONS))
            # the alias in checks is rebound together with the original name
            self.assertIs(api.checks.class_contains, api.classes.contains)
            self.assertIsNot(api.classes.contains, contains)
            spec = api.classes.MatrixClassSpec(api.classes.ClassKind.GNA, 2, api.scalars.QQ)
            api.checks.run_check("closure", spec, api.affine.COMMUTATOR, 1, 2)
        finally:
            t.uninstall()
        self.assertEqual(t.verify_restored(), [])
        self.assertIs(api.classes.contains, contains)
        self.assertIs(api.checks.class_contains, contains)
        totals = t.totals()
        self.assertEqual(totals["checks.run_check"][0], 1)
        self.assertEqual(totals["classes.contains"][0], 2 * 3)
        self.assertEqual(t.trials, 2)


class KernelTest(unittest.TestCase):
    def test_kernel_imports_nothing_from_affgebra(self):
        tree = ast.parse((HERE / "kernel.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        self.assertEqual(imported, {"__future__", "statistics", "time", "fractions"})
        code = "import sys, kernel; kernel.tick(); print(json.dumps(sorted(m for m in sys.modules if 'affgebra' in m)))"
        out = subprocess.run([sys.executable, "-c", "import json; " + code], cwd=HERE,
                             capture_output=True, text=True, check=True, timeout=60)
        self.assertEqual(json.loads(out.stdout), [])


if __name__ == "__main__":
    unittest.main()
