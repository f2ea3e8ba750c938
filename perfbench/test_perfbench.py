"""Self-tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py
"""

import statistics
import types
import unittest

import run
import tracing


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)
        root = tracer.begin("root")          # 0 .. 10
        clock.now = 1.0
        a = tracer.begin("a")                # 1 .. 4
        clock.now = 2.0
        inner = tracer.begin("inner")        # 2 .. 3
        clock.now = 3.0
        tracer.end(inner)
        clock.now = 4.0
        tracer.end(a)
        clock.now = 6.0
        b = tracer.begin("b")                # 6 .. 9
        clock.now = 9.0
        tracer.end(b)
        clock.now = 10.0
        tracer.end(root)
        spans = tracer.spans
        self.assertEqual([s.parent for s in spans], [-1, 0, 1, 0])
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 1.0, 3.0])
        self.assertEqual(tracing.child_of(spans, inner, root), a)
        self.assertEqual(tracing.child_of(spans, b, root), b)
        self.assertEqual(tracing.child_of(spans, root, b), -1)

    def test_spans_must_close_in_order(self):
        tracer = tracing.Tracer(FakeClock())
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with self.assertRaises(RuntimeError):
            tracer.end(outer)


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(tracing.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(tracing.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            tracing.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 5.0, 7.0, 3.0, 2.0, 8.0, 6.0, 4.0, 10.0]
        q1, q2, q3 = tracing.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)
        self.assertAlmostEqual(tracing.relative_spread(values),
                               (q3 - q1) / 5.5)
        with self.assertRaises(ValueError):
            tracing.quartiles([1.0])


class Checks(unittest.TestCase):
    def test_mi_range_allows_rounding_at_both_ends(self):
        self.assertTrue(run.mi_in_range(0.0, 5))
        self.assertTrue(run.mi_in_range(-3.2322573423492523e-16, 5))
        self.assertTrue(run.mi_in_range(2.321928094887362 + 1e-15, 5))
        self.assertFalse(run.mi_in_range(-1e-9, 5))
        self.assertFalse(run.mi_in_range(2.33, 5))


class Binding(unittest.TestCase):
    def test_wrap_records_span_and_count_then_restores(self):
        def work(x):
            return x * 2
        mod = types.SimpleNamespace(work=work)
        with tracing.Tracer() as tracer:
            self.assertTrue(tracer.wrap(mod, "work", "m.work",
                                        count=lambda args, kwargs: args[0]))
            self.assertEqual(mod.work(3), 6)
            self.assertEqual(mod.work(4), 8)
        self.assertIs(mod.work, work)
        self.assertEqual([s.name for s in tracer.spans], ["m.work", "m.work"])
        self.assertEqual(tracer.counts, {"m.work.count": 7})
        self.assertEqual(tracer.absent, {})

    def test_unbindable_probe_is_absent_not_fatal(self):
        mod = types.SimpleNamespace(value=3)
        with tracing.Tracer() as tracer:
            self.assertFalse(tracer.wrap(mod, "gone", "m.gone"))
            self.assertFalse(tracer.wrap(mod, "value", "m.value"))
            self.assertFalse(tracer.wrap(None, "step", "m.step"))
        self.assertEqual(set(tracer.absent), {"m.gone", "m.value", "m.step"})
        self.assertEqual(tracer.spans, [])

    def test_failing_counter_is_absent_and_call_still_runs(self):
        mod = types.SimpleNamespace(work=lambda tape: "ran")
        with tracing.Tracer() as tracer:
            tracer.wrap(mod, "work", "m.work",
                        count=lambda args, kwargs: len(args[0].nodes))
            self.assertEqual(mod.work(object()), "ran")
            self.assertEqual(mod.work(object()), "ran")
        self.assertIn("m.work.count", tracer.absent)
        self.assertNotIn("m.work.count", tracer.counts)
        self.assertEqual(len(tracer.spans), 2)

    def test_metrics_without_spans_are_absent(self):
        metrics, absent = run.layer_metrics([], {}, 0, 1, 0, "no-such-file")
        self.assertEqual(metrics, {})
        self.assertIn("autodiff.tape_nodes_per_round", absent)
        self.assertIn("training.checkpoint_bytes", absent)
        self.assertLessEqual(set(absent), set(run.PER_LAYER_UNITS))

    def test_metrics_from_partial_spans(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)
        root = tracer.begin("training.train")
        clock.now = 1.0
        step = tracer.begin("game.play_round")
        clock.now = 3.0
        tracer.end(step)
        clock.now = 4.0
        tracer.end(root)
        metrics, absent = run.layer_metrics(tracer.spans, {}, 2, 1, 0,
                                            "no-such-file")
        self.assertEqual(metrics["game.play_round_self_us"], 1e6)
        self.assertEqual(metrics["trace.coverage"], 0.5)
        self.assertIn("agents.sender_forward_us", absent)

    def test_span_closes_when_the_call_raises(self):
        def boom():
            raise KeyError("x")
        mod = types.SimpleNamespace(boom=boom)
        with tracing.Tracer() as tracer:
            tracer.wrap(mod, "boom", "m.boom")
            with self.assertRaises(KeyError):
                mod.boom()
            tracer.begin("after")
        self.assertEqual(tracer.spans[1].parent, -1)
        self.assertIsNotNone(tracer.spans[0].end)


if __name__ == "__main__":
    unittest.main()
