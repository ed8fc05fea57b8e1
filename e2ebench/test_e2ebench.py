#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark.

    python3 e2ebench/test_e2ebench.py

- Determinism: two runs with the same seed report identical simulated-clock
  metrics and counts (delivered frames, latency percentiles, events and
  heap allocations per frame, the input digest).
- Seeding: a different seed changes the generated inputs.
- Checks: every run passes conservation, per-flow FIFO and shard affinity.

Runs the runner binary directly with short runs (about a minute in all);
builds it first if needed, like run.py.
"""
import functools
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Simulated-clock metrics and counts: exact for a given seed.
EXACT_E2E = ["sim_delivered_kfps", "sim_goodput_mbps", "sim_gw_latency_p50_us",
             "sim_gw_latency_p999_us", "sim_gw_latency_samples", "loss_frac",
             "sim_jain_index"]
EXACT_LAYER = ["sim.events_per_frame", "heap.allocs_per_frame",
               "heap.bytes_per_frame", "lvrm.flow_entries", "lvrm.flow_hit_frac",
               "lvrm.queue_wait_p50_us", "lvrm.queue_wait_p999_us",
               "traffic.link_drops"]


@functools.lru_cache(maxsize=None)
def runner(workload, seed, trace):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(doc, names):
    return {n: doc["metrics"][n]["samples"] for n in names}


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_simulation(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = runner(workload, 7, 0)
                b = runner.__wrapped__(workload, 7, 0)
                self.assertEqual(a["failed"], 0, a["notes"])
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertEqual(a["input_digest"], b["input_digest"])
                self.assertEqual(exact(a, EXACT_E2E), exact(b, EXACT_E2E))

    def test_same_seed_same_layer_counts(self):
        a = runner("udp_small_frames", 7, 1)
        b = runner.__wrapped__("udp_small_frames", 7, 1)
        self.assertEqual(a["failed"], 0, a["notes"])
        self.assertEqual(exact(a, EXACT_LAYER), exact(b, EXACT_LAYER))

    def test_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = runner(workload, 7, 0)
                b = runner(workload, 8, 0)
                self.assertNotEqual(a["input_digest"], b["input_digest"])


if __name__ == "__main__":
    unittest.main()
