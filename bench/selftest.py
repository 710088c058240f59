"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

Covers the span arithmetic, the tail-percentile rule, the wrapping of
figp's namespaces, and that every correctness checker rejects a perturbed
output.  Kept out of the package's pytest suite on purpose (the file name
does not match `test_*.py`).
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import figp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, **counts):
    s = spans.Span(name, start, parent)
    s.end = end
    s.counts.update(counts)
    return s


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_trace(self):
        trace = [
            span("gp.fit", 0.0, 10.0, -1),          # 0
            span("kernels.gram", 1.0, 4.0, 0),      # 1
            span("kernels.kernel_matrix", 2.0, 3.0, 1),
            span("kernels.gram", 5.0, 7.0, 0, failed=1),
            span("gp.build_model", 8.0, 9.5, 0),
        ]
        self.assertEqual(spans.self_times(trace), [3.5, 2.0, 1.0, 2.0, 1.5])
        agg = spans.aggregate(trace)
        self.assertEqual(agg["gp.fit.self_s"], 3.5)
        self.assertEqual(agg["kernels.gram.self_s"], 4.0)
        self.assertEqual(agg["kernels.gram.busy_s"], 5.0)
        self.assertEqual(agg["kernels.gram.calls"], 2)
        self.assertEqual(agg["kernels.gram.failed"], 1)
        self.assertEqual(agg["gp.self_s"], 5.0)
        self.assertEqual(agg["kernels.self_s"], 5.0)
        self.assertEqual(agg["gp.fit.lml_evals"], 2)
        self.assertEqual(agg["gp.fit.lml_failed"], 1)

    def test_overlapping_children_are_counted_once(self):
        trace = [span("a.f", 0.0, 10.0, -1), span("a.g", 1.0, 5.0, 0),
                 span("a.h", 4.0, 6.0, 0)]
        self.assertEqual(spans.self_times(trace)[0], 5.0)

    def test_recursion_is_busy_once(self):
        trace = [span("a.f", 0.0, 4.0, -1), span("a.f", 1.0, 3.0, 0)]
        agg = spans.aggregate(trace)
        self.assertEqual(agg["a.f.busy_s"], 4.0)
        self.assertEqual(agg["a.f.calls"], 2)
        self.assertEqual(agg["a.f.self_s"], 4.0)

    def test_gram_outside_fit_is_no_lml_eval(self):
        agg = spans.aggregate([span("kernels.gram", 0.0, 1.0, -1)])
        self.assertNotIn("gp.fit.lml_evals", agg)


class TailPercentile(unittest.TestCase):
    def test_ten_or_fewer_samples_have_no_tail(self):
        self.assertIsNone(spans.tail_percentile(range(10)))
        self.assertIsNone(spans.tail_percentile([]))

    def test_at_least_ten_samples_lie_beyond(self):
        for n in (11, 12, 20, 37, 100, 1000):
            xs = list(range(1, n + 1))
            p, value, count = spans.tail_percentile(reversed(xs))
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(x > value for x in xs), 10)
            # one percentile higher would leave fewer than ten beyond
            higher = xs[-(-(p + 1) * n // 100) - 1]
            self.assertLess(sum(x > higher for x in xs), 10, (n, p))

    def test_known_values(self):
        self.assertEqual(spans.tail_percentile(range(1, 101)), (90, 90, 100))
        self.assertEqual(spans.tail_percentile(range(1, 12)), (9, 1, 11))
        self.assertEqual(spans.tail_percentile(range(1, 21)), (50, 10, 20))


class Wrapping(unittest.TestCase):
    def test_every_namespace_is_wrapped_and_restored(self):
        original = figp.kernels.gram
        self.assertIs(figp.gp.gram, original)
        grid = figp.build_grid(figp.Domain(((0.0, 1.0), (0.0, 1.0))), 6)
        inputs = [figp.sample_function(e, grid)
                  for e in ("1+x1", "x2^2", "sin(x1)")]
        tracer = spans.Tracer()
        tracer.install(figp)
        try:
            self.assertIsNot(figp.kernels.gram, original)
            self.assertIs(figp.gp.gram, figp.kernels.gram)
            self.assertIs(figp.gram, figp.kernels.gram)
            figp.gp.log_marginal_likelihood(
                figp.KernelSpec("linear", figp.MaternParams(2.5, 1.0, (1.0, 1.0))),
                inputs, [1.0, 2.0, 0.5])
            trace = tracer.take()
        finally:
            tracer.uninstall()
        self.assertIs(figp.kernels.gram, original)
        self.assertIs(figp.gp.gram, original)
        names = [s.name for s in trace]
        self.assertEqual(names[0], "gp.log_marginal_likelihood")
        self.assertIn("kernels.gram", names)
        agg = spans.aggregate(trace)
        self.assertEqual(agg["kernels.base_kernel_matrix.psi_entries"], 36 * 36)
        self.assertEqual(agg["kernels.gram.nugget_escalated"], 0)


class FailureCount(unittest.TestCase):
    def count(self, run_pass):
        log = workloads.PassLog()
        w = type("Failing", (), {"run_pass": staticmethod(run_pass)})()
        self.assertIsNone(run.checked_pass(w, None, log))
        return (sum(op.failed for op in log.ops)
                + sum(not ok for _, ok, _ in log.checks))

    def test_failed_cli_command_counts_once(self):
        self.assertEqual(self.count(lambda state, log: workloads._cli(
            log, "other", ["loocv", "--model", "no-such-model.json"])), 1)

    def test_error_in_timed_op_counts_once(self):
        def fail():
            raise figp.FigpError("boom")
        self.assertEqual(self.count(
            lambda state, log: log.timed("fit", fail)), 1)

    def test_error_outside_ops_counts_once(self):
        def run_pass(state, log):
            raise figp.FigpError("boom")
        self.assertEqual(self.count(run_pass), 1)


def failures(workload, out) -> list:
    log = workloads.PassLog()
    workload.check(out, workloads.load_reference(), log)
    return [name for name, ok, _ in log.checks if not ok]


class Checkers(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_table2(self):
        ref = workloads.load_reference()["table2"]
        good = {f: {"selected": e["selected"],
                    **{fam: dict(e[fam]) for fam in ("linear", "nonlinear")}}
                for f, e in ref.items()}
        w = workloads.Table2()
        self.assertEqual(failures(w, good), [])
        flipped = copy.deepcopy(good)
        flipped["f1"]["selected"] = "nonlinear"
        self.assertEqual(failures(w, flipped), ["f1.selected"])
        worse = copy.deepcopy(good)
        worse["f2"]["nonlinear"]["mape"] *= 1.2
        self.assertEqual(failures(w, worse), ["f2.nonlinear.mape"])
        loo = copy.deepcopy(good)
        loo["f3"]["linear"]["loocv"] = float("nan")
        self.assertEqual(failures(w, loo), ["f3.linear.loocv"])

    def test_fit_fine(self):
        truth = np.array([1.0, 2.0, 0.5])
        preds = [{"mean": t, "variance": 1e-9} for t in truth]
        good = {"select": {"selected": "linear"},
                "predict": {"predictions": preds},
                "loocv": {"loocv": 1e-10}, "truth": truth}
        w = workloads.FitFine()
        self.assertEqual(failures(w, good), [])
        bad = copy.deepcopy(good)
        bad["select"]["selected"] = "nonlinear"
        self.assertEqual(failures(w, bad), ["selected"])
        bad = copy.deepcopy(good)
        bad["predict"]["predictions"][1]["mean"] = 2.01
        self.assertEqual(failures(w, bad), ["predictions.integral"])
        bad = copy.deepcopy(good)
        bad["predict"]["predictions"][2]["variance"] = float("nan")
        self.assertEqual(failures(w, bad), ["predictions.finite"])

    def test_emulate(self):
        ref = workloads.load_reference()["emulate"]
        truth = np.linspace(1.0, 3.0, 40).reshape(4, 10)
        good = {"k": ref["k"], "families": list(ref["families"]),
                "preds": truth * (1 + ref["mape"] / 100), "truth": truth}
        w = workloads.Emulate()
        self.assertEqual(failures(w, good), [])
        bad = dict(good, k=ref["k"] + 1)
        self.assertEqual(failures(w, bad), ["k"])
        bad = dict(good, families=["nonlinear"] * ref["k"])
        self.assertEqual(failures(w, bad), ["families", "linear_wins_one"])
        bad = dict(good, preds=truth * (1 + 2.5 * ref["mape"] / 100))
        self.assertEqual(failures(w, bad), ["fields.mape"])
        preds = good["preds"].copy()
        preds[0, 0] = np.inf
        self.assertEqual(failures(w, dict(good, preds=preds)),
                         ["fields.finite"])

    def write_csv(self, name, rows):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as fh:
            fh.write("# header\nalpha,path1\n")
            fh.writelines(f"{a},{b}\n" for a, b in rows)
        return path

    def test_paths_designs(self):
        good = {
            "mspe_decay": {"knot": {"slope": -3.0, "mspe": [1e-2, 1e-3]},
                           "eigen": {"slope": -6.0, "mspe": [1e-4, 1e-6]}},
            "files": [self.write_csv("ok.csv", [(0, 0.5), (1, -0.25)])],
            "mc": {"mspe": [1e-2, 1e-3], "slope": -3.1},
        }
        w = workloads.PathsDesigns()
        self.assertEqual(failures(w, good), [])
        bad = copy.deepcopy(good)
        bad["mspe_decay"]["knot"]["slope"] = -2.0
        self.assertEqual(failures(w, bad), ["knot.slope"])
        bad = copy.deepcopy(good)
        bad["mspe_decay"]["eigen"]["mspe"] = [1e-4, 1e-2]
        self.assertEqual(failures(w, bad), ["eigen.le.knot"])
        bad = dict(good, files=[self.write_csv("nan.csv", [(0, "nan")])])
        self.assertEqual(failures(w, bad), ["draws.finite"])
        bad = dict(good, mc={"mspe": [1e-2, float("nan")], "slope": -3.0})
        self.assertEqual(failures(w, bad), ["mc.finite"])


if __name__ == "__main__":
    unittest.main()
