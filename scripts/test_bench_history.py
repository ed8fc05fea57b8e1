#!/usr/bin/env python3
"""Self-tests of bench_history.py: mode stamping and the quick/full guard.

Run: python3 scripts/test_bench_history.py
"""
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "bench_history.py"


class BenchHistory(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self.dir.name)
        self.history = self.root / "history.jsonl"

    def tearDown(self):
        self.dir.cleanup()

    def results(self, **values):
        path = self.root / "results.json"
        path.write_text(json.dumps(values))
        return path

    def append(self, results, label=None):
        cmd = [sys.executable, str(SCRIPT), str(results),
               "--history", str(self.history)]
        if label is not None:
            cmd += ["--label", label]
        return subprocess.run(cmd, capture_output=True, text=True)

    def entries(self):
        if not self.history.exists():
            return []
        return [json.loads(line)
                for line in self.history.read_text().splitlines()]

    def test_stamps_mode_and_host(self):
        self.assertEqual(self.append(self.results(quick=1, x=2.0)).returncode,
                         0)
        self.assertEqual(self.append(self.results(quick=0, x=2.0),
                                     label="full").returncode, 0)
        quick, full = self.entries()
        self.assertEqual(quick["mode"], "quick")
        self.assertEqual(full["mode"], "full")
        self.assertEqual(full["label"], "full")
        for entry in (quick, full):
            self.assertIsInstance(entry["nproc"], int)
            self.assertTrue(entry["cpu"])

    def test_refuses_the_other_mode_under_one_label(self):
        self.assertEqual(self.append(self.results(quick=0), "ci").returncode,
                         0)
        before = self.history.read_text()
        run = self.append(self.results(quick=1), "ci")
        self.assertNotEqual(run.returncode, 0)
        self.assertIn("refusing", run.stderr)
        self.assertEqual(self.history.read_text(), before)
        # Another label starts its own trend; the same mode still appends.
        self.assertEqual(self.append(self.results(quick=1), "smoke")
                         .returncode, 0)
        self.assertEqual(self.append(self.results(quick=0), "ci").returncode,
                         0)
        self.assertEqual(len(self.entries()), 3)

    def test_entries_without_a_mode_use_their_quick_key(self):
        legacy = {"label": "old", "results": {"quick": 1}, "rev": "r",
                  "time": "t"}
        self.history.write_text(json.dumps(legacy) + "\n")
        self.assertNotEqual(self.append(self.results(quick=0), "old")
                            .returncode, 0)
        self.assertEqual(self.append(self.results(quick=1), "old")
                         .returncode, 0)

    def test_results_without_a_quick_key_are_refused(self):
        run = self.append(self.results(x=1.0))
        self.assertNotEqual(run.returncode, 0)
        self.assertFalse(self.history.exists())


if __name__ == "__main__":
    unittest.main()
