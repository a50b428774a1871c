#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload briefly (traced and untraced, twice with one seed)
and checks that:
  * each run prints its full named metric set with units, and the
    attempted/failed counts, as BENCHMARK.json declares them;
  * two runs with the same seed give bit-equal modelled ratios and counts;
  * the functional and timing-only simgpu twins route identically;
  * offload-mix's steady wall windows route the same for another seed.
Takes a few minutes; builds the benchmark first if needed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 1

# Modelled or counted per-layer metrics: exact functions of the seed.
EXACT_PER_LAYER = {
    "simgpu.h2d_mb", "dispatch.gpu_share", "dispatch.cold_starts",
    "dispatch.explores", "dispatch.route_switches", "dispatch.dawn.vs_oracle",
    "dispatch.lumi.vs_oracle", "dispatch.isambard-ai.vs_oracle",
    "dispatch.residency_hit_ratio", "dispatch.h2d_skipped_mb",
    "dispatch.batched", "lapack.seam_ops",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=SEED):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        for w in cls.spec["workloads"]:
            for trace in (0, 1):
                cls.runs[(w["name"], trace)] = [run(w["name"], trace)
                                                for _ in range(2)]

    def test_full_metric_set_with_units_and_counts(self):
        for (workload, trace), results in self.runs.items():
            declared = self.spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            for result, _ in results:
                with self.subTest(workload=workload, trace=trace):
                    self.assertEqual(
                        list(result), ["correct", "attempted", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_same_seed_gives_bit_equal_modelled_numbers(self):
        for (workload, trace), results in self.runs.items():
            names = EXACT_PER_LAYER | {
                m["name"] for m in self.spec["per_layer"]
                if m["name"].startswith("lapack.") and m["name"].endswith(".vs_best_const")
            } if trace else {"vs_oracle", "vs_best_const"}
            first, second = (r["metrics"] for r, _ in results)
            for name in sorted(names):
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_simgpu_twins_route_identically(self):
        for (workload, trace), results in self.runs.items():
            if not trace:
                continue
            for result, notes in results:
                with self.subTest(workload=workload):
                    self.assertFalse(
                        [n for n in notes if n.startswith("unavailable simgpu.")],
                        notes)
                    self.assertNotEqual(
                        result["metrics"]["simgpu.functional_s"]["value"], -1)

    def test_offload_mix_steady_routes_do_not_depend_on_seed(self):
        def steady(notes):
            return [n for n in notes if n.startswith("steady ")]
        mine = steady(self.runs[("offload-mix", 0)][0][1])
        other = steady(run("offload-mix", 0, seed=SEED + 1)[1])
        self.assertEqual(len(mine), 6, mine)
        self.assertEqual(mine, other)


if __name__ == "__main__":
    unittest.main()
