"""Smoke check of the benchmark harness (stdlib unittest, a few seconds).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import worker  # noqa: E402
from layertrace import Tracer, layer_metrics  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_set_sizes(self):
        self.assertEqual(len(gen.compile_set()), 6049)
        names = [name for name, _, _ in gen.ext_pairs()]
        self.assertEqual(names.count("n3m2"), 43)
        self.assertEqual(len(names), 158)

    def test_known_hangs(self):
        names = [name for name, _, _ in gen.ext_pairs()]
        hung = [names[i] for i in gen.KNOWN_HANGS["ext"]]
        self.assertEqual((hung.count("n3m2"), hung.count("n2m3b"), len(hung)), (10, 20, 30))
        self.assertEqual(gen.KNOWN_HANGS["cli"],
                         {i for i, call in enumerate(gen.cli_script()) if "form" in call})

    def test_ops_are_seeded(self):
        for workload in ("relations", "compile", "ext", "cli"):
            a = gen.ops(workload, 7, 0)
            self.assertEqual(a, gen.ops(workload, 7, 0))
            self.assertNotEqual(a, gen.ops(workload, 8, 0))
        self.assertEqual(sorted(i for i, _ in gen.ops("relations", 7, 0)),
                         list(range(gen.RELATIONS_COUNT)))
        self.assertEqual(len(gen.ops("compile", 7, 1)), gen.COMPILE_DRAW)

    def test_parse_laurent(self):
        self.assertEqual(worker.parse_laurent("q^5 + 2q^3 - q + 3 - 4q^-1"),
                         {5: 1, 3: 2, 1: -1, 0: 3, -1: -4})
        self.assertEqual(worker.parse_laurent("0"), {})
        self.assertEqual(worker._dims_total("dim0: q^2 + 1\ndim1: q^2 - 1\n"), {2: 2})
        self.assertIsNone(worker._dims_total("error"))


class OpTest(unittest.TestCase):
    def test_outcomes(self):
        work = worker.Pass("ext", 1, 0, inproc=False)
        spec = ("n3m2", (3, 2, (3, 0), ((1, -1, 1), (1, -1, 1))), (3, 2, (3, 0), ((1, -1, 2),)))
        hang_idx = gen.ext_pairs().index(spec)
        self.assertIn(hang_idx, gen.KNOWN_HANGS["ext"])
        hang = (spec[0], worker._ladder(spec[1]), worker._ladder(spec[2]))
        import signal
        old = signal.signal(signal.SIGALRM, worker._alarm)
        try:
            idx, payload = work.items[0]
            outcome, took, _ = work.run_op(idx, payload, 5.0, None)
            self.assertEqual(outcome, "solved")
            outcome, took, _ = work.run_op(hang_idx, hang, 0.2, None)
            self.assertEqual(outcome, "deadline")
            self.assertLess(took, 1.0)
            # the same hang under the index of an op that finishes is a new hang
            outcome, _, detail = work.run_op(0, hang, 0.2, None)
            self.assertEqual(outcome, "failed", detail)

            def broken_check(payload, result):
                raise ValueError("check failed inside the library")

            work._check_ext = broken_check
            outcome, _, detail = work.run_op(idx, payload, 5.0, None)
            self.assertEqual(outcome, "failed")
            self.assertIn("ValueError", detail)
        finally:
            signal.signal(signal.SIGALRM, old)

    def test_cli_inproc_matches_pins(self):
        work = worker.Pass("cli", 1, 0, inproc=True)
        for idx, call in work.items:
            if "form" not in call and call["argv"][0] in ("enumerate", "eval", "form"):
                self.assertEqual(work.run_op(idx, call, 5.0, None)[0], "solved", call["argv"])


class TracerTest(unittest.TestCase):
    def test_spans_counts_and_uninstall(self):
        import qwebs.cli  # noqa: F401
        from qwebs import mfcore, qpoly, repfun
        from qwebs.webs import Ladder, Rung

        original = mfcore.compile_web
        raw = vars(qpoly.MultiPoly)["_raw"]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(mfcore.compile_web, original)
            self.assertIs(qwebs.cli.compile_web, mfcore.compile_web)
            lad = Ladder(2, 2, (2, 0), (Rung(1, -1, 1),))
            tracer.op = 0
            mfcore.ext_qdim(mfcore.compile_web(lad), mfcore.compile_web(lad))
        finally:
            tracer.uninstall()
        self.assertIs(mfcore.compile_web, original)
        self.assertIs(qwebs.cli.compile_web, original)
        self.assertIs(vars(qpoly.MultiPoly)["_raw"], raw)
        excl = [rec for rec in tracer.spans if rec[0] == "mfcore.exclude_variables"]
        self.assertTrue(excl)
        self.assertTrue(all(tracer.spans[rec[3]][0] == "mfcore.ext_qdim" for rec in excl))
        m = layer_metrics(tracer, repfun.split_matrix.cache_info())
        # run.py adds the three metrics measured outside the traced pass
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            declared = {d["name"] for d in json.load(fh)["per_layer"]}
        self.assertEqual(set(m) | {"cli.import_s", "trace.overhead_s", "harness.deadline_ops"},
                         declared)
        self.assertEqual(m["mfcore.exclude_variables.calls"], 3)
        self.assertGreater(m["qpoly.MultiPoly.substitute_calls"], 0)
        self.assertGreater(m["qpoly.MultiPoly.objects"], 0)
        self.assertIsInstance(vars(qpoly.MultiPoly)["_raw"], classmethod)
        self.assertGreaterEqual(m["mfcore.compile_web.self_s"], 0)


if __name__ == "__main__":
    unittest.main()
