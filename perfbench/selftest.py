"""Self-test of the benchmark: span arithmetic, patching, and a smoke run.

Usage (from the root of a checkout): python3 perfbench/selftest.py

The smoke run executes every workload at its ``smoke`` size, tracing off and
on, and checks that each metric BENCHMARK.json names is emitted with its
unit and that every job passed its output check. It takes seconds.
"""

from __future__ import annotations

import json
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Boundary, Span, Tracer, install, restore, self_time_by_name, self_times, union_length  # noqa: E402
from speed import Sampler  # noqa: E402
from workloads import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0), (8.5, 8.7)]), 6.0)

    def test_self_time_on_a_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, None, "j"),
            Span("a", 1.0, 4.0, 0, "j"),
            Span("b", 3.0, 6.0, 0, "j"),  # overlaps a
            Span("c", 8.0, 9.0, 0, "j"),
            Span("a.child", 2.0, 3.0, 1, "j"),
            Span("late", 9.5, 11.0, 0, "j"),  # outlives its parent: clipped to 10.0
        ]
        # root: 10 minus the union [1, 6] + [8, 9] + [9.5, 10] = 10 - 6.5
        self.assertEqual(self_times(spans), [3.5, 2.0, 3.0, 1.0, 1.0, 1.5])
        by_name = self_time_by_name(spans + [Span("c", 20.0, 20.25, None, "j")])
        self.assertEqual(by_name["c"], 1.25)

    def test_self_times_of_nested_spans_add_up_to_the_root(self):
        spans = [
            Span("root", 0.0, 10.0, None, "j"),
            Span("x", 1.0, 3.0, 0, "j"),
            Span("y", 4.0, 8.0, 0, "j"),
            Span("y.z", 5.0, 6.0, 2, "j"),
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0])
        self.assertEqual(sum(self_times(spans)), 10.0)


class PatchingTest(unittest.TestCase):
    def test_install_wraps_restores_and_skips_missing_names(self):
        module = types.ModuleType("perfbench_fake")
        module.work = lambda x: x * 2
        module.tick = lambda x: x
        original_work, original_tick = module.work, module.tick
        sys.modules[module.__name__] = module
        tracer = Tracer()
        try:
            saved, missing = install(
                tracer,
                [
                    Boundary(module.__name__, "work", "fake.work",
                             count=lambda counts, a, k, r: counts.update({"fake.items": r})),
                    Boundary(module.__name__, "tick", None, counter="fake.ticks"),
                    Boundary(module.__name__, "gone", "fake.gone"),
                ],
            )
            try:
                self.assertEqual(module.work(3), 6)
                module.tick(1)
                module.tick(2)
            finally:
                restore(saved)
        finally:
            del sys.modules[module.__name__]
        self.assertIs(module.work, original_work)
        self.assertIs(module.tick, original_tick)
        self.assertEqual(missing, [f"{module.__name__}.gone"])
        self.assertEqual([s.name for s in tracer.spans], ["fake.work"])
        self.assertEqual(tracer.counts, {"fake.items": 6, "fake.ticks": 2})


class SamplerTest(unittest.TestCase):
    def test_sampler_probes_while_the_block_runs(self):
        sampler = Sampler().start()
        time.sleep(0.2)
        speed = sampler.stop()
        self.assertGreaterEqual(len(sampler.probes), 3)
        self.assertGreater(speed, 0.0)


class SmokeRunTest(unittest.TestCase):
    def check_result(self, out: dict, declared: list[dict]) -> None:
        result = out["result"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out["lines"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {m: v["unit"] for m, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        smoke = workloads("smoke")
        self.assertEqual(names, list(smoke))
        for name in names:
            with self.subTest(workload=name, trace=0):
                out = run.run_workload(smoke[name], 1, 0.0, False, pinned=None, min_jobs=1, n_setups=1,
                                       setup_seconds=0.0)
                self.check_result(out, BENCHMARK["end_to_end"])
                self.assertTrue(any(line.startswith("error_rate [ratio]: 0/") for line in out["lines"]))
                if smoke[name].synth is not None:
                    self.assertTrue(any(line.startswith("flows_per_s [flows/s]") for line in out["lines"]))
                if smoke[name].drill_entry is not None:
                    self.assertTrue(any(line.startswith("drilldown_s [s]") for line in out["lines"]))
            with self.subTest(workload=name, trace=1):
                out = run.run_workload(smoke[name], 1, 0.0, True, pinned=None)
                self.check_result(out, BENCHMARK["per_layer"])
                self.assertEqual(out["result"]["attempted"], 2)


if __name__ == "__main__":
    unittest.main()
