"""The benchmark's own tests, at tiny sizes.

    python3 bench/selftest.py

Kept out of the repository's pytest collection on purpose (the file name does
not match test_*.py): these exercise the harness, not the library.
"""

from __future__ import annotations

import shutil
import tempfile
import unittest
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS


def fail_ratio(checks) -> float:
    result = run.result_object({}, checks)
    return result["failed"] / result["attempted"]


class BenchTest(unittest.TestCase):
    def setUp(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class SmokeTest(BenchTest):
    def test_every_workload_passes_its_checks(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                _, metrics, checks, _ = run.measure(wl, 7, 0, self.workdir, tiny=True)
                self.assertTrue(checks)
                self.assertEqual(fail_ratio(checks), 0.0, [c for c in checks if not c[1]])
                self.assertTrue(all(value > 0 for value, _ in metrics.values()), metrics)


class CorruptionTest(BenchTest):
    def test_corrupted_output_raises_fail_ratio(self):
        wl = WORKLOADS["construct"]
        lib = run.load_library()
        state = wl.setup(lib, 7, self.workdir, tiny=True)
        self.assertEqual(fail_ratio(wl.run(state).checks), 0.0)

        original = lib.okubo.euler_transform

        def corrupted(o, lam):
            out = original(o, lam)
            return lib.okubo.OkuboSystem(out.block_sizes, out.poles, out.a.shift(1), out.scheme)

        lib.okubo.euler_transform = corrupted
        try:
            checks = wl.run(state).checks
        finally:
            lib.okubo.euler_transform = original
        self.assertGreater(fail_ratio(checks), 0.0)
        failed = [label for label, ok, _ in checks if not ok]
        self.assertTrue(all(label.startswith("euler_transform") for label in failed), failed)


class TracingTest(BenchTest):
    def test_tracing_changes_no_output(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                _, metrics, checks, details = run.measure_traced(wl, 7, self.workdir, tiny=True)
                self.assertEqual(fail_ratio(checks), 0.0, [c for c in checks if not c[1]])
                labels = {label for label, _, _ in checks}
                self.assertIn("traced pass gives the untraced outputs", labels)
                self.assertGreater(metrics["trace.overhead_ratio"][0], 0.0)

    def test_wrapper_reaches_every_binding_site(self):
        lib = run.load_library()
        original = lib.schlesinger.is_irreducible
        with tracing.Tracer() as tracer:
            for module in (lib.schlesinger, lib.katz, lib.yokoyama, lib.generate, lib.identities):
                self.assertIsNot(module.is_irreducible, original, module.__name__)
            lib.generate.is_irreducible(lib.generate.rigid_family_realization(2))
        self.assertIs(lib.generate.is_irreducible, original)
        names = [span[0] for span in tracer.spans]
        self.assertIn("schlesinger.is_irreducible", names)
        self.assertIn("generate.rigid_family_realization", names)

    def test_self_time_excludes_children(self):
        spans = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)]
        totals = tracing.layer_totals(spans)
        self.assertEqual(totals["outer"], [1, 6.0])
        self.assertEqual(totals["inner"], [2, 4.0])


class MissingLibraryTest(unittest.TestCase):
    def test_checkout_without_sources_is_refused(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as empty:
            with self.assertRaises(run.LibraryMissing):
                run.load_library(Path(empty))


if __name__ == "__main__":
    unittest.main()
