"""Self-tests of the benchmark: tiny smoke runs, an injected broken solver,
and metric names against BENCHMARK.json.

    python3 perfbench/selftest.py
"""

import run  # first: pins the thread counts before NumPy loads

import json
import unittest
from unittest import mock

TINY = {
    "sweep": {"n": 64},
    "certify": {"pool": (0,), "verify_flags": ["--trials", "1", "--n-max", "4", "--t-max", "1"]},
    "plan": {"n": 2048},
}


def spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tiny_run(workload, trace=0):
    return run.measure(workload, seed=3, seconds=0.001, trace=trace, shape=TINY[workload])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.bootstrap()
        import qsearch.cli

        cls.cli = qsearch.cli

    def test_every_declared_workload_has_a_tiny_shape(self):
        self.assertEqual(sorted(w["name"] for w in spec()["workloads"]), sorted(TINY))

    def test_declared_metric_without_a_producer_is_an_error(self):
        extra = run.declared("end_to_end") + [("no_such_metric", "s")]
        with mock.patch.object(run, "declared", return_value=extra):
            with self.assertRaises(KeyError):
                tiny_run("sweep")

    def test_smoke_every_workload(self):
        declared = spec()
        for workload in TINY:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    record, result = tiny_run(workload, trace)
                    self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                    self.assertTrue(result["correct"], record["problems"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, {m["name"]: m["unit"] for m in declared[key]})
                    if trace:
                        self.assertGreater(result["metrics"]["cli.calls"]["value"], 0)
                        coverage = result["metrics"]["trace.coverage"]["value"]
                        self.assertTrue(0.0 < coverage <= 1.0, coverage)
                    else:
                        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_broken_solver_fails_every_call(self):
        from qsearch.esp import uniform_plan

        def broken(p, t, cfg=None):
            return uniform_plan(p.n, t)

        for workload in ("sweep", "plan"):
            with self.subTest(workload=workload), mock.patch.object(self.cli, "optimize", broken):
                record, result = tiny_run(workload)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
