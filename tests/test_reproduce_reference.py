"""`reproduce <target> --seed 42` against its recorded outputs, by a
stated tolerance per target.

The files under `reference/reproduce_seed42` were written by
`figp reproduce <target> --seed 42` before figp's Cholesky factor and
solves moved from SciPy to numpy, on Python 3.11.7, numpy 2.4.6,
scipy 1.17.1 and OpenBLAS 0.3.31 with two BLAS threads.  Each bound is
argued from the spread measured on that stack:

- table1 integrates expressions by quadrature alone: its outputs did not
  move under one or two BLAS threads nor under the numpy factor, so the
  bound only absorbs the print.
- table2 fits by a profile scan whose refinement stops at SCAN_XATOL =
  1e-5 in the log parameter, so round-off in the likelihood can move a
  fitted lengthscale or gamma by about that much, and the quantities
  derived from it by about twice as much.  Measured: 8.3e-9 relative
  under one against two BLAS threads; 7.1e-6 under the numpy factor
  (f1/nonlinear sigma2_hat, its gamma 3.6e-6).  Bound: 1e-4.
- figure2 and figure3 draw sample paths through the Cholesky factor of
  an ill-conditioned path-family Gram, whose values cross zero, so a
  value moves against the largest magnitude in its column.  Measured:
  no move under two BLAS threads; under the numpy factor no move beyond
  one unit of the printed sixth digit (and 4e-10 of the scale when the
  linear kernel's product order changed).  Bound: 1e-6 of the scale.
- mspe_decay's smallest MSPE (about 5e-14 at 64 points) is a difference
  of terms near the prior variance, so it keeps few digits: one against
  two BLAS threads moved it by 6.3e-5 relative.  Bound: 1e-3.

Selections, labels, sizes and every other non-float value must match
exactly.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import figp.gp
from figp.reproduce import TARGETS, run_reproduce

from figp_testlib import reproduce_moves

REFERENCE = os.path.join(os.path.dirname(__file__), "reference",
                         "reproduce_seed42")

# target -> (rtol, whether a value's scale is its CSV column's largest
# magnitude); the module docstring argues each bound
TOLERANCES = {
    "table1": (1e-12, False),
    "table2": (1e-4, False),
    "figure2": (1e-6, True),
    "figure3": (1e-6, True),
    "mspe_decay": (1e-3, False),
}


def _failures(target, out_dir):
    run_reproduce(target, str(out_dir), seed=42)
    rtol, column_scale = TOLERANCES[target]
    return reproduce_moves(os.path.join(REFERENCE, target), str(out_dir),
                           rtol, column_scale)[1]


def test_every_target_has_a_reference_and_a_tolerance():
    assert sorted(TOLERANCES) == sorted(TARGETS) == sorted(os.listdir(REFERENCE))


@pytest.mark.parametrize("target", sorted(TOLERANCES))
def test_reproduce_outputs_match_the_reference_within_tolerance(target,
                                                                tmp_path):
    assert _failures(target, tmp_path) == []


def test_reference_check_fails_on_a_perturbed_gram(tmp_path, monkeypatch):
    # a fit's search Gram moved by 1e-10 relative off its diagonal: table2
    # fails the check (1e-11 fails it too; 1e-12 does not)
    factorize = figp.kernels._factorize

    def perturbed(K, spec, triangle=None):
        K = K * (1.0 + 1e-10 * (1.0 - np.eye(K.shape[0])))
        return factorize(K, spec, triangle)

    class Perturbed(figp.kernels._GramOperator):  # the search's operator
        def _factorized(self, spec):
            with monkeypatch.context() as search:
                search.setattr(figp.kernels, "_factorize", perturbed)
                return super()._factorized(spec)

    monkeypatch.setattr(figp.gp, "_GramOperator", Perturbed)
    failures = _failures("table2", tmp_path)
    assert failures and all(f.startswith("table2.") for f in failures)


def test_table2_under_one_and_two_blas_threads_agrees_within_tolerance(
        tmp_path):
    # each run in a fresh interpreter, since OpenBLAS reads its thread
    # count once, when numpy loads
    src = os.path.dirname(os.path.dirname(figp.__file__))
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run(
            [sys.executable, "-m", "figp", "reproduce", "table2", "--seed",
             "42", "--out", str(tmp_path / f"threads{threads}")],
            capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
    rtol, column_scale = TOLERANCES["table2"]
    assert reproduce_moves(str(tmp_path / "threads1"),
                           str(tmp_path / "threads2"), rtol,
                           column_scale)[1] == []
