"""Tests of perfbench itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The arithmetic tests run instantly.  TinyRunTest builds the harness (once,
into $CARGO_TARGET_DIR or .bench_build) and runs all four workloads on a
2 MiB corpus, so every oracle is exercised, including a deliberately
corrupted answer that must fail the run.
"""

import io
import json
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import metrics as M
import run

ROOT = Path(__file__).resolve().parent.parent


def phase(rate, duration, done, lag=None):
    return {"name": "ladder", "rate": rate, "duration_s": duration, "traced": False,
            "done_s": done, "lag_ms": lag or [0.0] * len(done), "hit": [0] * len(done),
            "ingest_start_s": [], "ingest_end_s": []}


def span(id_, name, start, end, parent=0):
    return {"id": id_, "name": name, "start_us": start, "end_us": end,
            "parent": parent, "req": 1, "tid": 0}


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        p, v, n = M.tail(values)
        self.assertEqual((p, n), (99.0, 1000))  # p99.9 leaves only 1 beyond
        self.assertEqual(v, 990)  # nearest rank: 10 samples lie above it

    def test_boundary_counts(self):
        # 1010 samples: p99 leaves 1010 - ceil(999.9) = 10 beyond -> allowed.
        self.assertEqual(M.tail(range(1010))[0], 99.0)
        # 999 samples: p99 leaves 999 - 990 = 9 beyond -> falls to p95.
        self.assertEqual(M.tail(range(999))[0], 95.0)
        # 20 samples: only the median has 10 beyond it.
        self.assertEqual(M.tail(range(20))[:2], (50.0, 9))

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(M.tail([3.0, 1.0, 2.0]), (100.0, 3.0, 3))
        self.assertEqual(M.tail([]), (100.0, 0.0, 0))

    def test_nearest_rank(self):
        # 20 samples 1..20: p50 is the 10th smallest, not an interpolation.
        self.assertEqual(M.tail(range(1, 21))[1], 10)


class LadderTest(unittest.TestCase):
    def steady(self, rate, latency_s, duration=1.0):
        n = int(rate * duration)
        return phase(rate, duration, [i / rate + latency_s for i in range(n)])

    def test_latency_is_timed_from_the_planned_send(self):
        ph = phase(100, 1.0, [0.005, None, 0.030])
        self.assertEqual([round(x, 6) for x in M.phase_latencies_ms(ph)], [5.0, 10.0])

    def test_swept_latencies_leave_out_cache_hits(self):
        ph = phase(100, 1.0, [0.005, 0.0101, 0.030])
        ph["hit"] = [0, 1, 0]
        self.assertEqual([round(x, 6) for x in M.phase_latencies_ms(ph, swept_only=True)],
                         [5.0, 10.0])

    def test_passing_and_failing_rungs(self):
        self.assertTrue(M.rung_passes(self.steady(200, 0.005)))
        self.assertFalse(M.rung_passes(self.steady(200, 0.040)))  # tail over the limit

    def test_failed_query_fails_the_rung(self):
        ph = self.steady(200, 0.005)
        ph["done_s"][3] = None
        self.assertFalse(M.rung_passes(ph))

    def test_growing_backlog_fails_the_rung(self):
        # Answers every query fast, but only at half the offered rate: by
        # the end half the queries are still waiting.
        rate, n = 400, 400
        done = [i / rate + 0.001 if i % 2 == 0 else 2.0 for i in range(n)]
        ph = phase(rate, 1.0, done)
        self.assertGreater(M.backlog_at_end(ph), rate * M.LATENCY_LIMIT_MS / 1e3 + M.BATCH_MAX)
        self.assertFalse(M.rung_passes(ph))

    def test_in_flight_queries_are_not_a_backlog(self):
        ph = self.steady(400, 0.0201)  # 8 queries in flight at the end
        self.assertEqual(M.backlog_at_end(ph), 8)
        self.assertTrue(M.rung_passes(ph))

    def test_slo_is_the_rate_below_the_first_failure(self):
        rungs = [self.steady(300, 0.005), self.steady(100, 0.002),
                 self.steady(600, 0.050), self.steady(900, 0.004)]
        self.assertEqual(M.slo_qps(rungs), 300)
        self.assertEqual(M.slo_qps([self.steady(100, 0.1)]), 0.0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(1, "root", 0, 100), span(2, "a", 10, 30, 1), span(3, "b", 50, 90, 1)]
        self.assertEqual(M.self_times(spans), {1: 40, 2: 20, 3: 40})

    def test_overlapping_children_count_once(self):
        spans = [span(1, "root", 0, 100), span(2, "a", 10, 60, 1), span(3, "b", 40, 70, 1)]
        self.assertEqual(M.self_times(spans)[1], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, "root", 0, 100), span(2, "late", 80, 150, 1)]
        self.assertEqual(M.self_times(spans)[1], 80)

    def test_grandchildren_do_not_count_against_the_root(self):
        spans = [span(1, "root", 0, 100), span(2, "a", 0, 50, 1), span(3, "x", 0, 40, 2)]
        self.assertEqual(M.self_times(spans), {1: 50, 2: 10, 3: 40})

    def test_span_table_and_chrome_trace(self):
        spans = [span(1, "engine.run", 0, 100), span(2, "engine.ingest", 0, 90, 1)]
        table = M.span_table(spans)
        self.assertEqual(table["engine.run"]["self_us"], 10)
        trace = M.chrome_trace(spans, {"workload": "build"})
        ev = trace["traceEvents"][1]
        self.assertEqual((ev["ph"], ev["cat"], ev["dur"], ev["args"]["parent"]),
                         ("X", "engine", 90, 1))

    def test_coverage_pairs_traced_and_untraced_reps(self):
        spans = [span(1, "engine.run", 0, 1_000_000),
                 span(2, "engine.ingest", 0, 900_000, 1),
                 span(3, "engine.run", 2_000_000, 3_000_000),
                 span(4, "engine.ingest", 2_000_000, 2_500_000, 3)]
        spans[2]["req"] = spans[3]["req"] = 2
        self.assertEqual(M.coverage_pairs(spans, "engine.run", [1.0, 1.25]),
                         [(1.0, 0.9), (1.25, 0.5)])

    def test_stall_is_the_longest_gap_during_an_ingest(self):
        done = [0.1, 0.2, 0.9, 1.0, 3.0]
        self.assertAlmostEqual(M.longest_stall_ms(done, [(0.25, 0.5)]), 700.0)
        self.assertEqual(M.longest_stall_ms(done, []), 0.0)


class TinyRunTest(unittest.TestCase):
    """All four workloads at 2 MiB: every oracle runs and passes, and a
    corrupted answer fails the command."""

    def run_bench(self, *argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(list(argv) + ["--seconds", "1", "--size-mb", "2"])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_all_workloads_pass_their_oracles(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for w in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, res = self.run_bench("--workload", w, "--seed", "3",
                                               "--trace", str(trace))
                    self.assertEqual(code, 0)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(set(res["metrics"]), {m["name"] for m in spec[group]})

    def test_corrupted_answers_fail(self):
        for w in ("build-socket", "serve", "serve-ingest"):
            with self.subTest(workload=w):
                code, res = self.run_bench("--workload", w, "--seed", "4", "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)


if __name__ == "__main__":
    unittest.main()
