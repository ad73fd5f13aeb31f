"""Per-stage timing of one online learner step, in the checkout this file is in.

    python3 tools/steps.py --metric macro-f1 --task multilabel --m 5 --alg omma

Imports ``omma`` from the ``src/`` beside this file, so a copy of the file
in another checkout times that checkout.  It draws a synthetic stream of
``--n`` instances (stream seed 0; label model seed 2024, as perfbench
uses), runs the learner over its first half, so that the confusion state is
one a run reaches, and then times each stage on the second half's rows:

* ``normalized``: ``ConfusionState.normalized()`` of the learner's state;
* ``coefficients``: ``Metric.coefficients`` at that normalized confusion;
* ``decision``: ``policy.decide_coefficients`` of those coefficients on a row;
* ``add``: ``ConfusionState.add`` of a label row against its decision, on a
  copy of the state;
* ``step``: the learner's full ``step_row`` and ``observe_row`` on a row;
* ``overhead``: the timing loop around an empty call, which every other
  stage includes.

The first four are the stages of the ``omma`` rule whatever ``--alg`` is;
``--alg`` picks the learner whose state they read and whose step is timed.
Each of ``--rounds`` rounds makes ``--calls`` calls of every stage in turn,
and a stage's figure is its fastest round, in µs per call.  Runs under the
floating-point error state of ``run_online``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from omma import policy  # noqa: E402
from omma.algorithms import LearnerConfig, make_learner  # noqa: E402
from omma.confusion import Task  # noqa: E402
from omma.dataio import SynthModel, synth_generate  # noqa: E402
from omma.evaluation import FP_ERRORS  # noqa: E402
from omma.metrics import parse_metric  # noqa: E402

ALGORITHMS = ("omma", "omma-eta", "greedy")  # the learners that keep a confusion state


def stages(learner, estimates: np.ndarray, labels: np.ndarray) -> dict:
    """One call of each stage on row i, keyed by stage name."""
    state, metric, task = learner.state, learner.metric, learner.task
    budget, multiclass = metric.budget_k, task.is_multiclass
    C = state.normalized()
    coeffs = metric.coefficients(C, task)
    decisions = [policy.decide_coefficients(coeffs, eta, budget, multiclass=multiclass)
                 for eta in estimates]
    scratch = copy.deepcopy(state)

    def step(i):
        learner.step_row(estimates[i])
        learner.observe_row(labels[i])

    return {
        "normalized": lambda i: state.normalized(),
        "coefficients": lambda i: metric.coefficients(C, task),
        "decision": lambda i: policy.decide_coefficients(coeffs, estimates[i], budget,
                                                         multiclass=multiclass),
        "add": lambda i: scratch.add(labels[i], decisions[i]),
        "step": step,
        "overhead": lambda i: None,
    }


def fastest(calls: dict, rows: int, per_round: int, rounds: int) -> dict[str, float]:
    """Each stage's fastest round in µs per call; the rounds interleave the stages."""
    best = dict.fromkeys(calls, math.inf)
    for _ in range(rounds):
        for name, call in calls.items():
            start = time.perf_counter()
            for i in range(per_round):
                call(i % rows)
            best[name] = min(best[name], (time.perf_counter() - start) / per_round)
    return {name: 1e6 * s for name, s in best.items()}


def setting(metric: str, kind: str, m: int, alg: str) -> LearnerConfig:
    """The learner config of a setting; raises ValueError on one the library rejects."""
    return LearnerConfig(algorithm=alg, task=Task(kind, m), metric=parse_metric(metric))


def measure(cfg: LearnerConfig, n: int, per_round: int, rounds: int) -> dict[str, float]:
    """The stage timings of one setting (see the module docstring)."""
    stream = synth_generate(SynthModel(task=cfg.task, seed=2024), n, seed=0)
    estimates, labels = stream.estimate_rows, stream.label_rows
    learner = make_learner(cfg)
    half = n // 2
    with np.errstate(**FP_ERRORS):
        for eta, y in zip(estimates[:half], labels[:half]):
            learner.step_row(eta)
            learner.observe_row(y)
        return fastest(stages(learner, estimates[half:], labels[half:]), n - half,
                       per_round, rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", default="macro-f1")
    parser.add_argument("--task", choices=("multilabel", "multiclass"), default="multilabel")
    parser.add_argument("--m", type=int, default=5)
    parser.add_argument("--alg", choices=ALGORITHMS, default="omma")
    parser.add_argument("--n", type=int, default=400, help="stream length (at least 2)")
    parser.add_argument("--calls", type=int, default=100, help="calls per stage per round")
    parser.add_argument("--rounds", type=int, default=300)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.n < 2 or args.calls < 1 or args.rounds < 1:
        parser.error("need --n >= 2, --calls >= 1 and --rounds >= 1")
    try:
        cfg = setting(args.metric, args.task, args.m, args.alg)
    except ValueError as err:
        parser.error(str(err))
    us = measure(cfg, args.n, args.calls, args.rounds)
    if args.json:
        print(json.dumps({"metric": args.metric, "task": args.task, "m": args.m,
                          "alg": args.alg, "us_per_call": us}, sort_keys=True))
    else:
        print(f"{args.alg} {args.metric} {args.task} m={args.m}: fastest of "
              f"{args.rounds} rounds of {args.calls} calls, µs per call")
        for name, value in us.items():
            print(f"  {name:<13}{value:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
