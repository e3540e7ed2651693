"""Checks of the benchmark's own machinery, with stub workloads in place of slow ones.

    python3 perfbench/selftest.py        (from the repository root)

Shows that an operation that raises, or whose output fails its check,
counts against the operations attempted and makes the run exit non-zero;
that the tracer wraps every binding of a function and restores them; and
that the metric names agree with BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zflim.errors import LpNumericalFailure  # noqa: E402


class StubWorkload:
    """Three operations: one correct, one raising, one with a wrong output."""

    name = "stub"

    def __init__(self, seed, workdir):
        pass

    def batch(self):
        return ["ok", "raises", "wrong"]

    def warm_up(self):
        pass

    def run(self, inp):
        if inp == "raises":
            raise LpNumericalFailure("simplex did not converge within 100000 pivots")
        return inp

    def label(self, inp):
        return inp

    def outcome(self, inp, out):
        return "ok"

    def check(self, inp, out, deep):
        return ["stub mismatch"] if out == "wrong" else []

    def gap_pct(self, outputs):
        return 1.0

    def analyze_wall_times(self, outputs):
        return []


class FailureAccounting(unittest.TestCase):
    def test_every_outcome_is_counted(self):
        ledger = run.Ledger()
        stub = StubWorkload(0, None)
        times, results, cal = run.run_pass(stub, stub.batch())
        with contextlib.redirect_stderr(io.StringIO()):
            outputs = run.check_pass(stub, stub.batch(), results, ledger, deep=True)
        self.assertEqual((len(times), len(cal)), (3, 3))
        self.assertEqual(ledger.attempted, 3)
        self.assertEqual(ledger.failed, 2)
        self.assertEqual(ledger.outcomes, {"ok": 1, "raised LpNumericalFailure": 1,
                                           "ok, wrong output": 1})
        self.assertEqual(outputs, ["ok", "wrong"])

    def test_a_raising_operation_fails_the_run(self):
        workloads.WORKLOADS["stub"] = StubWorkload
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                # --seconds 0: exactly one round
                code = run.main(["--workload", "stub", "--seed", "1", "--seconds", "0"])
        finally:
            del workloads.WORKLOADS["stub"]
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 2))
        self.assertAlmostEqual(result["metrics"]["ok_frac"]["value"], 1 / 3)
        self.assertIn("error_frac 0.666667 (2 of 3 operations)", out.getvalue())

    def test_scaled_times_skip_raised_rounds(self):
        err = (None, LpNumericalFailure("stall"))
        ref = calibration.REFERENCE_S
        # the second round ran at half speed, so its calibration took twice as long
        rounds = [
            ([3.0, 5.0, 1.0], [("a", None), ("b", None), err], [ref, ref, ref]),
            ([6.0, 12.0, 1.0], [("a", None), err, err], [2 * ref, 2 * ref, ref]),
            ([4.0, 7.0, 1.0], [("a", None), ("b", None), err], [ref, ref, ref]),
        ]
        # the third operation raised every round, so it has no time
        self.assertEqual(run.scaled_times(rounds, [True, True, True]), [3.0, 6.0])
        self.assertEqual(run.scaled_times(rounds, [False, True, True]), [6.0])


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        from zflim import duality_lp, simplex, zf_search

        original = simplex.simplex_max_leq
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = duality_lp.simplex_max_leq
            self.assertIsNot(wrapped, original)
            self.assertIs(zf_search.simplex_max_leq, wrapped)
            self.assertIs(simplex.simplex_max_leq, wrapped)
            sol = zf_search.simplex_max_leq([1.0], [[1.0]], [2.0])
        finally:
            tracer.uninstall()
        self.assertIs(duality_lp.simplex_max_leq, original)
        [span] = tracer.spans
        self.assertEqual(span[0], tracing.SIMPLEX)
        self.assertEqual(span[4], {"rows": 1, "cols": 1, "pivots": sol.iterations, "failed": False})

    def test_self_time_excludes_children(self):
        spans = [
            ["cli.main", 0.0, 10.0, None, None],
            ["duality_lp.lp_certificate", 1.0, 9.0, 0, {"found": True}],
            [tracing.SIMPLEX, 2.0, 8.0, 1, {"rows": 4, "cols": 2, "pivots": 3, "failed": False}],
        ]
        m = tracing.layer_metrics(spans, 20.0)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["duality_lp.lp_certificate.self_s"], 2.0)
        self.assertEqual(m["simplex.busy_s"], 6.0)
        self.assertEqual(m["simplex.us_per_pivot"], 2e6)
        self.assertEqual(m["simplex.bytes_per_pivot"], 32 * 4 * 7)
        self.assertEqual(m["trace.coverage_frac"], 0.5)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
