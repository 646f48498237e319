"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks the
tracer and the probes in this process.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import child  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "mitbih": bench.Workload("mitbih", size=120, epochs=1),
    "tess": bench.Workload("tess", size=4, epochs=1),
    "ionosphere": bench.Workload("ionosphere", size=40, epochs=2),
}

# Spans that do no work on a workload: the loader of the other input format.
IDLE_SPANS = {
    "mitbih": {"data.load_wav_dir"},
    "ionosphere": {"data.load_wav_dir"},
    "tess": {"data.load_csv_signals"},
}


def targets():
    """(module.path, owner, attribute) of every function the tracer wraps."""
    return [(f"{module}.{path}", *tracer.resolve(module, path))
            for _, module, path in tracer.SPAN_TARGETS]


class TinyRuns(unittest.TestCase):
    records = {}

    @classmethod
    def setUpClass(cls):
        for name in bench.WORKLOADS:
            for trace in (False, True):
                cls.records[name, trace] = bench.execute(name, seed=3, seconds=0, trace=trace,
                                                         workloads=TINY)

    def test_every_named_metric_with_its_unit(self):
        for (name, trace), record in self.records.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(record["failures"], [])
                units = bench.load_units(trace)
                result = json.loads(bench.result_line(record, units))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 3)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                for metric, entry in result["metrics"].items():
                    self.assertIsInstance(entry["value"], (int, float), metric)

    def test_spans_that_do_work_record_calls(self):
        for name in bench.WORKLOADS:
            metrics = self.records[name, True]["metrics"]
            for span in tracer.SPAN_NAMES:
                with self.subTest(workload=name, span=span):
                    calls = metrics[f"{span}.calls"]
                    if span in IDLE_SPANS[name]:
                        self.assertEqual(calls, 0)
                    else:
                        self.assertGreater(calls, 0)

    def test_self_times_within_traced_wall_time(self):
        for name in bench.WORKLOADS:
            record = self.records[name, True]
            traced = [p for p in record["pairs"] if p["ok"] and p["trace"]]
            self.assertEqual(len(traced), len(record["spans"]))
            for pair, spans in zip(traced, record["spans"]):
                train_row, eval_row = pair["metrics"]
                for process, wall in (("train", train_row["train_s"]),
                                      ("eval", eval_row["eval_s"])):
                    with self.subTest(workload=name, process=process):
                        self_times = [span[5] for span in spans[process]]
                        self.assertTrue(self_times)
                        self.assertGreaterEqual(min(self_times), 0.0)
                        self.assertLessEqual(sum(self_times), wall)

    def test_repeats_give_identical_outputs(self):
        for (name, trace), record in self.records.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(len(record["digests"]), 3)
                self.assertTrue(all(p["ok"] for p in record["pairs"]))


class Wrapping(unittest.TestCase):
    def run_child(self, trace: str, command: str):
        """Run child.main with a stand-in cli.main; returns the targets seen during the call."""
        from temporal_augmenter import cli

        originals = {key: owner.__dict__[attr] for key, owner, attr in targets()}
        seen = {}

        def stand_in(args):
            for key, owner, attr in targets():
                seen[key] = owner.__dict__[attr]
            return 0

        real_main = cli.main
        cli.main = stand_in
        try:
            with tempfile.TemporaryDirectory() as tmp:
                rc = child.main([os.path.join(tmp, "record.json"), trace, command])
        finally:
            cli.main = real_main
        self.assertEqual(rc, 0)
        for key, owner, attr in targets():
            self.assertIs(owner.__dict__[attr], originals[key], f"{key} not restored")
        return originals, seen

    def test_untraced_run_leaves_wrapped_functions_original(self):
        for command in ("train", "eval"):
            originals, seen = self.run_child("0", command)
            probe_target = f"optim.{child.PROBE_TARGETS[command]}"
            for key, fn in seen.items():
                with self.subTest(command=command, target=key):
                    if key == probe_target:
                        self.assertIs(fn.__wrapped__, originals[key])
                    else:
                        self.assertIs(fn, originals[key])

    def test_traced_run_wraps_every_target(self):
        originals, seen = self.run_child("1", "train")
        for key, fn in seen.items():
            self.assertIsNot(fn, originals[key], key)


class Scaling(unittest.TestCase):
    def test_times_and_rates_scale_by_the_readings_around_their_process(self):
        ref = bench.REFERENCE_S
        pair = {
            "ref": [ref, 3 * ref, ref, 2 * ref],
            "train": {"start": 0.0, "end": 4.0,
                      "record": {"probe": {"first_enter": 1.0, "samples": 100, "inside_s": 2.0},
                                 "peak_rss_mb": 50.0}},
            "evals": [{"start": 0.0, "end": 1.0,
                       "record": {"probe": {"rows": 10, "inside_s": 0.5}, "peak_rss_mb": 20.0}},
                      {"start": 0.0, "end": 3.0,
                       "record": {"probe": {"rows": 10, "inside_s": 1.5}, "peak_rss_mb": 20.0}}],
        }
        rows = bench.scaled_metrics(pair)
        expected = [{"setup_s": 0.5, "train_samples_per_s": 100.0, "train_s": 2.0,
                     "train_peak_rss_mb": 50.0},
                    {"eval_s": 0.5, "eval_samples_per_s": 40.0, "eval_peak_rss_mb": 20.0},
                    {"eval_s": 2.0, "eval_samples_per_s": 10.0, "eval_peak_rss_mb": 20.0}]
        self.assertEqual([set(row) for row in rows], [set(row) for row in expected])
        for row, want in zip(rows, expected):
            for key, value in want.items():
                self.assertAlmostEqual(row[key], value, msg=key)
        medians = bench.median_of(rows)
        self.assertEqual(medians["eval_s"], 0.5)
        self.assertEqual(medians["train_s"], 2.0)


class SelfTime(unittest.TestCase):
    def test_self_time_excludes_children(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
        t = tracer.Tracer(clock=lambda: next(ticks))
        inner = t.wrap("inner", lambda: None)
        outer = t.wrap("outer", lambda: (inner(), inner()))
        outer()
        by_name = tracer.summarize(t.spans)
        self.assertEqual(by_name["inner"], {"calls": 2, "self_s": 2.5, "total_s": 2.5})
        self.assertEqual(by_name["outer"], {"calls": 1, "self_s": 7.5, "total_s": 10.0})
        parents = {span[1]: span[4] for span in t.spans}
        self.assertEqual(parents["outer"], -1)
        self.assertEqual(parents["inner"], next(s[0] for s in t.spans if s[1] == "outer"))


if __name__ == "__main__":
    unittest.main()
