"""Tests of the benchmark's own checking and tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout; qwalk is imported from ``src``.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qwalk  # noqa: E402

import outcheck  # noqa: E402
import tracing  # noqa: E402


def _labeled(labeling):
    graph = qwalk.line_graph(len(labeling), labeling)
    return graph, qwalk.label_graph(graph)


def _check(graph, t_c, t_q, label):
    return outcheck.check(graph.adjacency, graph.v_init, graph.v_target, t_c, t_q, label)


class OutputCheck(unittest.TestCase):
    def setUp(self) -> None:
        # Path 0-2-1: the quantum walker wins clearly (t_q 7.24 vs t_c 8.87).
        self.graph, self.outcome = _labeled([0, 2, 1])
        self.assertEqual(self.outcome.label, qwalk.QUANTUM)

    def test_seed_outcome_passes(self):
        o = self.outcome
        verdict = _check(self.graph, o.classical_hit_time, o.quantum_hit_time, o.label)
        self.assertTrue(verdict.ok, verdict.problems)
        self.assertLess(verdict.rel_error, outcheck.REL_TOL)

    def test_random_graphs_pass(self):
        for seed in range(6):
            graph = qwalk.random_graph(8 + seed, seed)
            o = qwalk.label_graph(graph)
            verdict = _check(graph, o.classical_hit_time, o.quantum_hit_time, o.label)
            self.assertTrue(verdict.ok, (seed, verdict.problems))

    def test_perturbed_hit_time_is_flagged(self):
        o = self.outcome
        for t_c, t_q in ((1.05 * o.classical_hit_time, o.quantum_hit_time),
                         (o.classical_hit_time, 0.95 * o.quantum_hit_time)):
            verdict = _check(self.graph, t_c, t_q, o.label)
            self.assertFalse(verdict.ok)

    def test_flipped_label_is_flagged(self):
        o = self.outcome
        verdict = _check(self.graph, o.classical_hit_time, o.quantum_hit_time, 1 - o.label)
        self.assertFalse(verdict.ok)
        self.assertIn("label", verdict.problems[0])

    def test_missing_crossing_is_flagged(self):
        o = self.outcome
        self.assertFalse(_check(self.graph, o.classical_hit_time, None, qwalk.CLASSICAL).ok)

    def test_never_crossing_walker_is_confirmed(self):
        # On the path 0-2-1-3-4 the quantum walker never crosses (part of
        # the start state is dark to the target), so None is right.
        graph, o = _labeled([0, 2, 1, 3, 4])
        self.assertIsNone(o.quantum_hit_time)
        self.assertTrue(_check(graph, o.classical_hit_time, None, o.label).ok)
        self.assertFalse(_check(graph, o.classical_hit_time, 5.0, qwalk.QUANTUM).ok)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_originals_come_back(self):
        original = qwalk.walkers.label_graph
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(qwalk.label_graph, original)
            self.assertIs(qwalk.label_graph, qwalk.walkers.label_graph)
            self.assertIs(qwalk.datasets.label_graph, qwalk.walkers.label_graph)
            outcome = qwalk.label_graph(qwalk.line_graph(4, [0, 2, 3, 1]))
        finally:
            tracer.uninstall()
        self.assertIs(qwalk.walkers.label_graph, original)
        self.assertIs(qwalk.label_graph, original)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["walkers.label_graph", "walkers.hitting_time", "walkers.hitting_time"])
        top, first, second = tracer.spans
        self.assertEqual((first.parent, second.parent), (0, 0))
        self.assertAlmostEqual(top.self_s, top.duration - first.duration - second.duration)
        self.assertEqual(top.attrs["n"], 4)
        self.assertEqual(top.attrs["q_never"], outcome.quantum_hit_time is None)

    def test_missing_function_is_reported_absent(self):
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (("walkers", "no_such_function"),)
        try:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            tracing.TARGETS = saved
        self.assertEqual(tracer.absent, ["walkers.no_such_function"])


if __name__ == "__main__":
    unittest.main()
