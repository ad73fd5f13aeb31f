"""A standing mutation gate: each seeded mutant of ``src/`` must fail its tests.

    python3 tools/mutants.py

A mutant is data: a name, a file, an exact old text, its replacement and the
test ids that must fail.  Each mutant is applied to a fresh copy of ``src/``,
``tests/`` and ``pyproject.toml`` under a temporary directory, never to this
checkout, and only its own tests run there.  A mutant is killed when pytest
reports a failed test (exit 1); a passing run is a survivor, and any other
exit (a collection or usage error) counts as not killed.  Prints one line per
mutant and a ``killed k / total`` line with the run time.  Exits 1 if a
mutant is not killed, or if a mutant's old text does not occur exactly once
in its file, in which case nothing runs.

A property added to the tests comes with the mutant that motivated it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids; at least one must fail


# the parity property of the prebuilt reference pairs, over three blocks
_PAIR_PARITY = ("tests/test_properties.py::test_prebuilt_pairs_equal_the_public_path_past"
                "_one_block")

MUTANTS = (
    Mutant("threshold-strict", "src/omma/policy.py",
           "return coeffs.alpha * eta >= coeffs.beta",
           "return coeffs.alpha * eta > coeffs.beta",
           ("tests/test_properties.py::test_the_threshold_comparison_equals_the_thresholded"
            "_gains",)),
    Mutant("fbeta-square-as-pow", "src/omma/metrics.py",
           "k = c.b2p1 / (d * d * scale)",
           "k = c.b2p1 / (d ** 2 * scale)",
           ("tests/test_properties.py::test_micro_one_confusion_calls_equal_a_large_stack"
            "[micro-f1]",)),
    Mutant("fbeta-without-scale", "src/omma/metrics.py",
           "k = c.b2p1 / (d * d * scale)",
           "k = c.b2p1 / (d * d)",
           ("tests/test_metrics.py::test_gradient_matches_finite_differences[macro-f1]",)),
    Mutant("micro-stack-without-label-axis", "src/omma/metrics.py",
           "return mean[..., None, :, :], self._consts, scale",
           "return mean, self._consts, scale",
           ("tests/test_properties.py::test_micro_one_confusion_calls_equal_a_large_stack"
            "[micro-f1]",
            "tests/test_properties.py::test_a_stacked_gradient_equals_the_per_slice_calls"
            "[micro-f1]")),
    Mutant("batch-counts-fn-adds-tp", "src/omma/confusion.py",
           "pairs = (nref, nd), (nref, d), (ref, nd), (ref, d)",
           "pairs = (nref, nd), (nref, d), (ref, nd + d), (ref, d)",
           ("tests/test_properties.py::test_accumulation_rule_equals_the_cell_formulas",)),
    Mutant("add-first-predicted-column", "src/omma/confusion.py",
           "self.counts[:, cols] += ref[:, None]",
           "self.counts[:, cols[:1]] += ref[:, None]",
           ("tests/test_properties.py::test_accumulation_rule_equals_the_cell_formulas",)),
    Mutant("fw-vertex-key-first-row", "src/omma/algorithms.py",
           'key = np.packbits(dec.ravel(order="K")).tobytes()',
           'key = np.packbits(dec[:1].ravel(order="K")).tobytes()',
           ("tests/test_properties.py::test_fw_fit_equals_a_fit_that_counts_every_vertex",)),
    Mutant("checkpoints-without-integer-check", "src/omma/evaluation.py",
           "if not all(map(is_integer, marks)):",
           "if False:",
           ("tests/test_evaluation.py::test_run_online_rejects_non_integer_checkpoints",)),
    Mutant("seed-accepts-bool", "src/omma/confusion.py",
           "if not (is_integer(seed) and seed >= 0):",
           "if not (isinstance(seed, (int, np.integer)) and seed >= 0):",
           ("tests/test_evaluation.py::test_integer_settings_are_checked_where_they_enter"
            "[SynthModel.seed-bool]",)),
    Mutant("min-tn-tp-not-concave", "src/omma/metrics.py",
           '"q_mean",\n            "min_tn_tp"}',
           '"q_mean"}',
           ("tests/test_metrics.py::test_the_listing_is_parsed_metrics_and_every_metric_has"
            "_its_flags",)),
    Mutant("beta-without-the-sign-of-dfp", "src/omma/metrics.py",
           "beta = -dfp if zero_tn else dtn - dfp",
           "beta = dfp if zero_tn else dtn - dfp",
           ("tests/test_properties.py::test_binary_bases_equal_the_reference_formulas"
            "[macro-f1]",)),
    Mutant("coefficients-without-float64-entry", "src/omma/metrics.py",
           "C = C.astype(np.float64, copy=False)",
           "C = C",
           ("tests/test_properties.py::test_a_confusion_of_another_dtype_reads_as_its_float64"
            "_copy[macro-recall]",)),
    Mutant("negative-zero-regularizer-kept", "src/omma/confusion.py",
           "lam = float(lam) + 0.0",
           "lam = float(lam)",
           ("tests/test_properties.py::test_a_negative_zero_regularizer_is_stored_as_plus_zero",)),
    Mutant("mixture-weights-any-outside", "src/omma/algorithms.py",
           "if not (np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9):",
           "if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:",
           ("tests/test_algorithms.py::test_mixture_weights_must_be_a_finite_distribution",)),
    Mutant("beta-without-the-sign-of-dfp-bruteforce", "src/omma/metrics.py",
           "beta = -dfp if zero_tn else dtn - dfp",
           "beta = dfp if zero_tn else dtn - dfp",
           ("tests/test_algorithms.py::test_omma_matches_linearized_bruteforce_over_stream"
            "[macro-f1]",)),
    Mutant("pair-rows-swapped", "src/omma/algorithms.py",
           "yield from np.stack((_ONE - rows, rows), axis=1)",
           "yield from np.stack((rows, _ONE - rows), axis=1)",
           (_PAIR_PARITY + "[omma-5-macro-f1-dense-0.0]",
            _PAIR_PARITY + "[omma-eta-1-min-tn-tp-sparse-0.001]")),
    Mutant("pair-block-rebuilt-one-row-late", "src/omma/algorithms.py",
           "for start in range(0, len(ref), size):",
           "for start in range(0, len(ref), size - 1):",
           (_PAIR_PARITY + "[omma-5-macro-f1-dense-0.0]",
            _PAIR_PARITY + "[omma-eta-1-min-tn-tp-sparse-0.001]")),
    Mutant("pair-scatter-index-twice-the-decision", "src/omma/confusion.py",
           "self.counts.reshape(-1)[self._pair_cells + dec] += pair",
           "self.counts.reshape(-1)[self._pair_cells + 2 * dec] += pair",
           (_PAIR_PARITY + "[omma-5-macro-f1-dense-0.0]",
            _PAIR_PARITY + "[omma-eta-1-min-tn-tp-sparse-0.001]")),
    Mutant("stream-numbers-with-underscores", "src/omma/dataio.py",
           'return text.isascii() and "_" not in text',
           "return text.isascii()",
           ("tests/test_dataio.py::test_read_labels_takes_ascii_digits_only",
            "tests/test_dataio.py::test_read_estimates_errors")),
)


def occurrences(mutant: Mutant, root: str = ROOT) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    with open(os.path.join(root, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.old)


def run(mutant: Mutant, root: str = ROOT) -> str:
    """``killed``, ``survived`` or ``not run (pytest exit N)`` for one mutant,
    applied to a copy of ``root`` in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="omma-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(root, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "pyproject.toml"), tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(proc.returncode,
                                            f"not run (pytest exit {proc.returncode})")


def main() -> int:
    misplaced = [(m.name, n) for m in MUTANTS if (n := occurrences(m)) != 1]
    for name, n in misplaced:
        print(f"{name}: old text occurs {n} times, not once")
    if misplaced:
        return 1
    start = time.perf_counter()
    killed = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        verdict = run(mutant)
        killed += verdict == "killed"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"killed {killed} / {len(MUTANTS)} in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
