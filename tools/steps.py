"""Per-stage timing of one online learner step, alone or side by side with another checkout.

    python3 tools/steps.py --metric macro-f1 --task multilabel --m 5 --alg omma
    python3 tools/steps.py --metric min-tn-tp --m 1 --against ../parent
    python3 tools/steps.py --kernel fw_fit --metric macro-f1 --task multiclass --m 20 \
        --n 2000 --iterations 20 --against ../parent

Imports ``omma`` from the ``src/`` beside this file, so a copy of the file
in another checkout times that checkout.  It draws a synthetic stream of
``--n`` instances (stream seed 0; label model seed 2024, as perfbench
uses), runs the learner over its first half, so that the confusion state is
one a run reaches, and then times each stage on the second half's rows:

* ``normalized``: ``ConfusionState.normalized()`` of the learner's state;
* ``coefficients``: ``Metric.coefficients`` at that normalized confusion;
* ``decision``: ``policy.decide_coefficients`` of those coefficients on a row;
* ``add``: the add of a label row against its decision that a run makes,
  on a copy of the state: ``ConfusionState.add_pair`` of the row's prebuilt
  pair on a multilabel task where the library has it, else
  ``ConfusionState.add`` of the row;
* ``step``: the learner's full ``step_row`` and ``observe_row`` on a row,
  through the public path (no columns handed over);
* ``run``: ``run_online`` of a fresh learner over the whole stream, one run
  per round, in µs per instance: the path perfbench times;
* ``overhead``: the timing loop around an empty call, which every other
  stage includes.

The first four are the stages of the ``omma`` rule whatever ``--alg`` is;
``--alg`` picks the learner whose state they read and whose step is timed.
``--metric`` takes every name ``parse_metric`` reads, and ``min-tn-tp``, the
utility of the adversarial scenario (one label: ``--m 1``).  Each of
``--rounds`` rounds makes ``--calls`` calls of every stage in turn, and a
stage's figure is its fastest round, in µs per call.  Runs under the
floating-point error state of ``run_online``.

``--kernel NAME`` times one library kernel instead of the step stages, on
the same stream of ``--n`` rows (one stage named after the kernel, and
``overhead``):

* ``coefficients``: ``Metric.coefficients`` at the confusion the learner
  reaches after ``n // 2`` rows, or with ``--stack R`` on the (R, ...) stack
  of the confusions it reaches after ``n (r + 1) // R`` rows, r < R;
* ``fw_fit``: ``fw_fit`` of the ``n`` rows with their labels, ``--iterations``
  steps, or with ``--stack R`` the lockstep fit of those R prefixes;
* ``batch_counts``: ``batch_counts`` of the ``n`` label rows against the
  decisions of the 0.5 threshold (multilabel) or the argmax (multiclass).

``--against PATH`` also imports ``PATH/src/omma``, under another package
name, and times both checkouts in this one process: each side builds its
learner on the same stream and reaches the same state, and their rounds
interleave as A B B A, A B B A, ... (A this checkout, B the other), so that a
host speed phase falls on both alike.  Per stage it reports each side's
fastest and median round, the ratio this / other of each (below 1: this
checkout is faster) and the wins, the rounds in which this checkout was
faster than the other's round of the same index.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import importlib.util
import json
import math
import os
import statistics
import sys
import time
import types
from collections.abc import Callable
from typing import NamedTuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

ALGORITHMS = ("omma", "omma-eta", "greedy")  # the learners that keep a confusion state
KERNELS = ("coefficients", "fw_fit", "batch_counts")
MODULES = ("algorithms", "confusion", "dataio", "evaluation", "metrics", "policy")
OTHER = "omma_against"  # the package name the other checkout is imported under


def library(name: str) -> types.SimpleNamespace:
    """The modules of the imported package ``name`` that this tool calls."""
    return types.SimpleNamespace(**{mod: importlib.import_module(f"{name}.{mod}")
                                    for mod in MODULES})


def import_checkout(root: str, name: str = OTHER) -> types.SimpleNamespace:
    """The package ``root/src/omma``, imported as ``name`` beside this checkout's."""
    src = os.path.join(os.path.abspath(root), "src", "omma")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise ValueError(f"no src/omma package under {root!r}")
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, os.path.join(src, "__init__.py"),
                                                  submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return library(name)


class WholeRun(NamedTuple):
    """A stage timed once per round and reported per instance: ``call()``
    steps ``instances`` instances."""

    call: Callable[[], object]
    instances: int


def stages(learner, estimates: np.ndarray, labels: np.ndarray, lib, run: WholeRun) -> dict:
    """One call of each stage on row i, keyed by stage name; ``run`` is the
    whole-stream stage."""
    state, metric, task, policy = learner.state, learner.metric, learner.task, lib.policy
    budget, multiclass = metric.budget_k, task.is_multiclass
    C = state.normalized()
    coeffs = metric.coefficients(C, task)
    decisions = [policy.decide_coefficients(coeffs, eta, budget, multiclass=multiclass)
                 for eta in estimates]
    scratch = copy.deepcopy(state)
    if hasattr(scratch, "add_pair") and not multiclass:
        pairs = list(lib.algorithms._pair_rows(labels))

        def add(i):
            scratch.add_pair(pairs[i], decisions[i])
    else:
        def add(i):
            scratch.add(labels[i], decisions[i])

    def step(i):
        learner.step_row(estimates[i])
        learner.observe_row(labels[i])

    return {
        "normalized": lambda i: state.normalized(),
        "coefficients": lambda i: metric.coefficients(C, task),
        "decision": lambda i: policy.decide_coefficients(coeffs, estimates[i], budget,
                                                         multiclass=multiclass),
        "add": add,
        "step": step,
        "run": run,
        "overhead": lambda i: None,
    }


def kernel_calls(lib, cfg, estimates: np.ndarray, labels: np.ndarray, kernel: str,
                 stack: int | None, iterations: int) -> dict:
    """One call of ``kernel`` (see the module docstring) and the empty call,
    keyed by name; each ignores its row argument."""
    task, metric = cfg.task, cfg.metric
    n = len(estimates)
    marks = [n // 2] if stack is None else [n * (r + 1) // stack for r in range(stack)]
    if kernel == "coefficients":
        learner = lib.algorithms.make_learner(cfg)
        states = []
        for t, (eta, y) in enumerate(zip(estimates, labels), start=1):
            learner.step_row(eta)
            learner.observe_row(y)
            states += [learner.state.normalized()] * marks.count(t)
        C = states[0] if stack is None else np.stack(states)
        calls = {kernel: lambda i: metric.coefficients(C, task)}
    elif kernel == "fw_fit":
        prefixes = None if stack is None else marks
        calls = {kernel: lambda i: lib.algorithms.fw_fit(estimates, labels, task, metric,
                                                         iterations, prefixes)}
    else:
        dec = lib.policy.decide(estimates - 0.5, argmax=task.is_multiclass)
        calls = {kernel: lambda i: lib.confusion.batch_counts(task, labels, dec)}
    return {**calls, "overhead": lambda i: None}


def one_round(calls: dict, rows: int, per_round: int) -> dict[str, float]:
    """Seconds per call of each stage, the stages timed in turn; a
    :class:`WholeRun` stage runs once, in seconds per instance."""
    out = {}
    for name, call in calls.items():
        if isinstance(call, WholeRun):
            start = time.perf_counter()
            call.call()
            out[name] = (time.perf_counter() - start) / call.instances
            continue
        start = time.perf_counter()
        for i in range(per_round):
            call(i % rows)
        out[name] = (time.perf_counter() - start) / per_round
    return out


def fastest(calls: dict, rows: int, per_round: int, rounds: int) -> dict[str, float]:
    """Each stage's fastest round in µs per call; the rounds interleave the stages."""
    best = dict.fromkeys(calls, math.inf)
    for _ in range(rounds):
        for name, s in one_round(calls, rows, per_round).items():
            best[name] = min(best[name], s)
    return {name: 1e6 * s for name, s in best.items()}


def side_by_side(this: dict, other: dict, rows: int, per_round: int,
                 rounds: int) -> dict[str, dict]:
    """Per stage: each side's fastest and median round in µs per call, the
    ratios this / other, and the rounds this side won; each side makes
    ``rounds`` rounds, in the order A B B A, A B B A, ..."""
    times = {"this": [], "other": []}
    for r in range(rounds):
        order = (("this", this), ("other", other)) if r % 2 == 0 else \
            (("other", other), ("this", this))
        for side, calls in order:
            times[side].append(one_round(calls, rows, per_round))
    out = {}
    for name in this:
        a = [1e6 * t[name] for t in times["this"]]
        b = [1e6 * t[name] for t in times["other"]]
        out[name] = {"this_best": min(a), "other_best": min(b),
                     "this_median": statistics.median(a),
                     "other_median": statistics.median(b),
                     "ratio_best": min(a) / min(b),
                     "ratio_median": statistics.median(a) / statistics.median(b),
                     "wins": sum(x < y for x, y in zip(a, b)), "rounds": rounds}
    return out


def metric_named(lib, name: str):
    """The metric of a name: ``min-tn-tp`` or any name ``parse_metric`` reads."""
    return lib.metrics.min_tn_tp() if name == "min-tn-tp" else lib.metrics.parse_metric(name)


def setting(lib, metric: str, kind: str, m: int, alg: str):
    """The learner config of a setting; raises ValueError on one the library rejects."""
    return lib.algorithms.LearnerConfig(algorithm=alg, task=lib.confusion.Task(kind, m),
                                        metric=metric_named(lib, metric))


def warmed(lib, cfg, stream, half: int) -> dict:
    """The stages of a learner of ``cfg`` that has stepped the first ``half``
    rows of ``stream``, and the run of a fresh one over all of it."""
    estimates, labels = stream.estimate_rows, stream.label_rows
    learner = lib.algorithms.make_learner(cfg)
    for eta, y in zip(estimates[:half], labels[:half]):
        learner.step_row(eta)
        learner.observe_row(y)
    run = WholeRun(lambda: lib.evaluation.run_online(stream, cfg), len(stream))
    return stages(learner, estimates[half:], labels[half:], lib, run)


def measure(libs, cfgs, n: int, per_round: int, rounds: int, kernel: str | None = None,
            stack: int | None = None, iterations: int = 20) -> dict:
    """The stage timings of a setting, or of a kernel (see the module
    docstring), with one (library, config) pair this checkout's fastest
    rounds, with two the side-by-side figures of :func:`side_by_side`."""
    lib = libs[0]
    stream = lib.dataio.synth_generate(lib.dataio.SynthModel(task=cfgs[0].task, seed=2024),
                                       n, seed=0)
    estimates, labels = stream.estimate_rows, stream.label_rows
    half = n // 2
    with np.errstate(**lib.evaluation.FP_ERRORS):
        if kernel is None:
            # each side runs on its own library's stream of the same rows
            calls = [warmed(x, cfg, x.dataio.InstanceStream(cfg.task, labels, estimates), half)
                     for x, cfg in zip(libs, cfgs)]
        else:
            calls = [kernel_calls(x, cfg, estimates, labels, kernel, stack, iterations)
                     for x, cfg in zip(libs, cfgs)]
        if len(calls) == 1:
            return fastest(calls[0], n - half, per_round, rounds)
        return side_by_side(*calls, n - half, per_round, rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", default="macro-f1")
    parser.add_argument("--task", choices=("multilabel", "multiclass"), default="multilabel")
    parser.add_argument("--m", type=int, default=5)
    parser.add_argument("--alg", choices=ALGORITHMS, default="omma")
    parser.add_argument("--n", type=int, default=400, help="stream length (at least 2)")
    parser.add_argument("--calls", type=int, default=100, help="calls per stage per round")
    parser.add_argument("--rounds", type=int, default=300)
    parser.add_argument("--against", metavar="PATH",
                        help="a second checkout to time side by side with this one")
    parser.add_argument("--kernel", choices=KERNELS,
                        help="time this library kernel instead of the step stages")
    parser.add_argument("--stack", type=int, metavar="R",
                        help="kernel mode: an (R, ...) coefficient stack or R lockstep fits")
    parser.add_argument("--iterations", type=int, default=20,
                        help="kernel mode: Frank-Wolfe iterations")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.n < 2 or args.calls < 1 or args.rounds < 1:
        parser.error("need --n >= 2, --calls >= 1 and --rounds >= 1")
    if args.stack is not None and not 1 <= args.stack <= args.n or args.iterations < 1:
        parser.error("need 1 <= --stack <= --n and --iterations >= 1")
    try:
        libs = [library("omma")]
        if args.against is not None:
            libs.append(import_checkout(args.against))
        cfgs = [setting(lib, args.metric, args.task, args.m, args.alg) for lib in libs]
    except ValueError as err:
        parser.error(str(err))
    result = measure(libs, cfgs, args.n, args.calls, args.rounds, args.kernel, args.stack,
                     args.iterations)
    head = {"metric": args.metric, "task": args.task, "m": args.m, "alg": args.alg,
            "calls": args.calls, "rounds": args.rounds}
    if args.kernel is not None:
        head.update(kernel=args.kernel, stack=args.stack, n=args.n, iterations=args.iterations)
    title = f"{args.alg} {args.metric} {args.task} m={args.m}"
    if args.kernel is not None:
        title = (f"{args.kernel} {args.metric} {args.task} m={args.m} n={args.n} "
                 f"stack={args.stack} iterations={args.iterations}")
    if args.against is None:
        if args.json:
            print(json.dumps({**head, "us_per_call": result}, sort_keys=True))
            return 0
        print(f"{title}: fastest of {args.rounds} rounds of {args.calls} calls, µs per call")
        for name, value in result.items():
            print(f"  {name:<13}{value:8.2f}")
        return 0
    if args.json:
        print(json.dumps({**head, "against": args.against, "stages": result}, sort_keys=True))
        return 0
    print(f"{title}: this checkout against {args.against}, {args.rounds} rounds each of "
          f"{args.calls} calls, A B B A; µs per call")
    print(f"  {'stage':<13}{'this best':>10}{'other best':>11}{'ratio':>7}"
          f"{'this med':>10}{'other med':>11}{'ratio':>7}{'wins':>10}")
    for name, s in result.items():
        print(f"  {name:<13}{s['this_best']:10.2f}{s['other_best']:11.2f}"
              f"{s['ratio_best']:7.3f}{s['this_median']:10.2f}{s['other_median']:11.2f}"
              f"{s['ratio_median']:7.3f}{s['wins']:>6}/{s['rounds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
