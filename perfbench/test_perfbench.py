"""Unit tests of the benchmark's own code (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import analysis  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        self.assertEqual(analysis.tail_percentile(9999), 99.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(999), 95.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertIsNone(analysis.tail_percentile(0))

    def test_unsupported_tail_is_refused(self):
        with self.assertRaises(analysis.BenchError):
            analysis.require_tail(list(range(999)), 99, "p99")
        self.assertAlmostEqual(
            analysis.require_tail(list(range(1001)), 99, "p99"), 990.0)

    def test_interpolated_percentile(self):
        self.assertEqual(analysis.percentile([5], 99), 5)
        self.assertEqual(analysis.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(analysis.percentile([4, 1, 3, 2], 100), 4)
        with self.assertRaises(analysis.BenchError):
            analysis.percentile([], 50)

    def test_pooled_percentile(self):
        reps = [list(range(1000)), list(range(1000, 3000))]
        self.assertAlmostEqual(
            analysis.pooled_percentile(reps, 50, "p50"), 1499.5)
        with self.assertRaises(analysis.BenchError):
            analysis.pooled_percentile([list(range(50))] * 2, 99, "p99")


def span(sid, parent, ts, dur, name="x"):
    return {"id": sid, "parent": parent, "ts": ts, "dur": dur,
            "name": name, "req": 0, "tid": 0}


class SelfTime(unittest.TestCase):
    def test_parent_minus_union_of_children(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 20),   # [10, 30]
                 span(3, 1, 20, 30),   # [20, 50] overlaps the first
                 span(4, 1, 90, 30),   # [90, 120] clipped at 100
                 span(5, 2, 12, 5)]    # grandchild: not the parent's
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20 - 5)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 5)

    def test_duplicate_span_ids_are_refused(self):
        # Two repetitions' spans sharing id 2 would pool their children.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 20),
                 span(2, 0, 200, 50), span(3, 2, 210, 10)]
        with self.assertRaises(analysis.BenchError):
            analysis.self_times(spans)
        with self.assertRaises(analysis.BenchError):
            analysis.SpanTable(spans)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(analysis.self_times([span(7, 0, 3, 9)]), {7: 9})

    def test_span_table_sums_by_name(self):
        table = analysis.SpanTable([span(1, 0, 0, 10, "a"),
                                    span(2, 1, 2, 4, "b"),
                                    span(3, 0, 20, 6, "a")])
        self.assertEqual(table.self_us("a"), 12)
        self.assertEqual(table.dur_us("a"), 16)
        self.assertEqual(table.median_dur_us("a"), 8)
        with self.assertRaises(analysis.BenchError):
            table.self_us("missing")


class Names(unittest.TestCase):
    def test_valid_names(self):
        for name in ("refs_per_s", "ies.node0.miss_ratio", "a-b.c_d",
                     "9lives", "x" * 64):
            self.assertEqual(analysis.validate_name(name), name)

    def test_invalid_names(self):
        for name in ("", "has space", "-leading", ".dot", "x" * 65,
                     "café", "a/b", "a:b", None):
            with self.assertRaises(analysis.BenchError):
                analysis.validate_name(name)

    def test_result_line_validates(self):
        line = json.loads(analysis.result_line(
            True, 3, 0, {"ok_name": (1.5, "ms")}))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["ok_name"],
                         {"value": 1.5, "unit": "ms"})
        with self.assertRaises(analysis.BenchError):
            analysis.result_line(True, 1, 0, {"bad name": (1, "ms")})
        with self.assertRaises(analysis.BenchError):
            analysis.result_line(True, 1, 0, {"ok": (1, "no spaces")})

    def test_benchmark_json_names_are_valid(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
        for m in bench["end_to_end"] + bench["per_layer"]:
            analysis.validate_name(m["name"])
            analysis.validate_unit(m["unit"])
        for w in bench["workloads"]:
            analysis.validate_name(w["name"])


def fake_raw(trace):
    """A raw report and span list carrying every input the metric
    derivation reads."""
    names = ["workload.gen", "ies.construct", "ies.feed_batch",
             "ies.drain_all", "cache.tagstore.access",
             "ies.feed_committed", "ies.feed_batch_shard4", "host.run",
             "service.client_pack", "service.session_exec",
             "service.board_feed", "service.rtt", "service.query_exec",
             "prof.feed_batch"]
    spans = [span(i + 1, 0, 10 * i, 5, n) for i, n in enumerate(names)]
    values = {k: 0.5 for k in (
        "ies.admit_frac", "host.l2_miss_ratio", "bus.tenures_per_cpu_ref",
        "fanout.overhead_frac", "fanout.backpressure_stalls",
        "fanout.board_ns_per_ref.max", "fanout.worker_load.max_over_mean",
        "service.feed_lines_per_kref", "service.resend_frac",
        "service.wire_ns_per_ref", "prof.est_ns.feed_batch",
        "prof.est_ns.credit_pacing", "prof.est_ns.batch_admission")}
    values.update({f"ies.node{i}.miss_ratio": 0.1 * i for i in range(4)})
    raw = {"segments": [[100, 1.0, False, 0], [100, 1.1, True, 0]],
           "feed_us": [list(range(1000))], "query_us": [],
           "setup_s": [0.5, 0.4, 0.6], "peak_rss_kb": 2048,
           "work": {n: 100 for n in names}, "values": values,
           "checks": [], "rep_digests": ["a", "a"]}
    return raw, spans


class Derivation(unittest.TestCase):
    def bench(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            return json.load(f)

    def test_end_to_end_matches_benchmark_json(self):
        raw, _ = fake_raw(False)
        metrics, _ = analysis.end_to_end(raw)
        want = {m["name"]: m["unit"] for m in self.bench()["end_to_end"]}
        self.assertEqual({n: u for n, (_, u) in metrics.items()}, want)
        self.assertEqual(metrics["setup_s"][0], 0.5)
        self.assertEqual(metrics["peak_rss_mb"][0], 2.0)

    def test_per_layer_matches_benchmark_json(self):
        raw, spans = fake_raw(True)
        metrics = analysis.per_layer(raw, spans)
        want = {m["name"]: m["unit"] for m in self.bench()["per_layer"]}
        self.assertEqual({n: u for n, (_, u) in metrics.items()}, want)
        self.assertAlmostEqual(metrics["trace.overhead_frac"][0], 0.1)
        self.assertEqual(metrics["ies.feed_batch.ns_per_ref"][0], 50.0)

    def test_segment_rate_sums_concurrent_streams(self):
        raw = {"segments": [[100, 1.0, False, 0], [300, 1.0, False, 0],
                            [200, 1.0, False, 0], [50, 1.0, False, 1],
                            [10, 0.0, False, 1], [999, 1.0, True, 0]]}
        self.assertEqual(analysis.segment_rate(raw, False), 250.0)
        self.assertEqual(analysis.segment_rate(raw, True), 999.0)

    def test_correctness_gate(self):
        raw, _ = fake_raw(False)
        self.assertEqual(analysis.correctness(raw), (True, []))
        raw["rep_digests"] = ["a", "b"]
        self.assertFalse(analysis.correctness(raw)[0])
        raw["rep_digests"] = ["a"]
        raw["checks"] = [{"name": "ref", "ok": False, "detail": "differs"}]
        ok, reasons = analysis.correctness(raw)
        self.assertFalse(ok)
        self.assertIn("ref: differs", reasons)


class Cli(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                              capture_output=True, text=True, timeout=60)

    def test_unknown_option_fails_with_usage(self):
        out = self.run_cli("--workload", "replay_ladder", "--seed", "1",
                           "--seconds", "1", "--trace", "0", "--json")
        self.assertEqual(out.returncode, 2)
        self.assertIn("usage:", out.stderr)
        self.assertIn("--json", out.stderr)
        self.assertEqual(out.stdout, "")

    def test_bad_values_fail_with_usage(self):
        for args in (["--workload", "nope"], ["--trace", "2"],
                     ["--seconds", "0"], ["--seed", "x"], []):
            full = {"--workload": "replay_ladder", "--seed": "1",
                    "--seconds": "1", "--trace": "0"}
            for flag, value in zip(args[::2], args[1::2]):
                full[flag] = value
            argv = [x for kv in full.items() for x in kv] if args else []
            with self.subTest(args=args):
                out = self.run_cli(*argv)
                self.assertEqual(out.returncode, 2)
                self.assertIn("usage:", out.stderr)

    def test_timeout_grows_with_seconds(self):
        self.assertEqual(run.run_timeout(20), 170)
        self.assertGreater(run.run_timeout(60), 60 * 2)

    def test_parse_args_accepts_the_contract(self):
        args = run.parse_args(["--workload", "live_oltp", "--seed", "7",
                               "--seconds", "10", "--trace", "1"])
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("live_oltp", 7, 10, 1))


if __name__ == "__main__":
    unittest.main()
