"""The four benchmark workloads: how each builds its inputs and what one round runs.

Every workload is a closed loop with one client: the online protocol is
sequential, so each instance reaches the learner only after the previous
prediction and update have returned.  A round is a fixed amount of work; the
runner repeats rounds for the measured time.  Each operation in a round
returns an output that must be identical in every round and, for the
reference seeds, equal to the stored reference.

Inputs come only from the workload seed; the library sees the generated
streams and files, never the seed itself.  The label models are fixed and
the seed draws only the instances, so that every seed asks for the same
work in distribution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from omma import algorithms, cli, confusion, dataio, evaluation, metrics


def derive(seed: int, *tags: int) -> int:
    """A 32-bit seed for one input, independent across tags."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    """One operation of a round: its output key, the call, and its learner steps."""

    key: str
    call: Callable[[], object]
    steps: int


def _online(stream, algorithm, metric, seed, sparse_k=None):
    """A call that runs one ``run_online`` and returns its (t, psi) checkpoints."""
    cfg = algorithms.LearnerConfig(algorithm=algorithm, task=stream.task,
                                   metric=metrics.parse_metric(metric), seed=seed,
                                   sparse_k=sparse_k)

    def call():
        trace = evaluation.run_online(stream, cfg, max(len(stream) // 10, 1))
        return [[t, psi] for t, psi in trace.checkpoints]
    return call


# seed of every label model's priors and weights
MODEL_SEED = 2024


def _synth(kind, m, n, seed, tag):
    model = dataio.SynthModel(task=confusion.Task(kind, m), seed=MODEL_SEED)
    return dataio.synth_generate(model, n, seed=derive(seed, tag))


class OnlineNarrow:
    """Multilabel m=5 on macro-F1: per-step Python/numpy dispatch dominates.

    Each learner runs on several short streams, each timed on its own: a
    short run is needed for a steady fastest time, and one 400-instance
    stream per learner left its rate 9% apart between seeds, timed
    interleaved in one process.
    """

    name = "online-narrow"
    sizes = {"full": {"n": 400, "streams": 2}, "smoke": {"n": 60, "streams": 2}}
    algorithms = ("omma", "omma-eta", "greedy", "thresh05")

    def setup(self, seed, size, workdir):
        return {alg: [_synth("multilabel", 5, size["n"], seed, 10 * i + j)
                      for j in range(size["streams"])]
                for i, alg in enumerate(self.algorithms)}

    def ops(self, streams, seed):
        return [Op(f"{alg}/{j}", _online(stream, alg, "macro-f1", derive(seed, 9, i, j)),
                   len(stream))
                for i, alg in enumerate(self.algorithms)
                for j, stream in enumerate(streams[alg])]


class OnlineWide:
    """Large label spaces: per-step array work grows with m or m squared.

    Multilabel m=100 runs the dense and the sparse top-k' path of omma on the
    same instances, so a change that helps one path and costs the other shows.
    Multiclass m=20 covers native-multiclass scoring, greedy through the
    multiclass-to-multilabel blocks, and the Frank-Wolfe refits of ofw.  The
    native metric is the q-mean of recalls: at these stream lengths some class
    keeps a zero recall, which holds the h-mean and g-mean at exactly 0 and
    would leave the reference checks blind to changed predictions.
    """

    name = "online-wide"
    sizes = {"full": {"n_ml": 150, "n_mc": 250, "n_fw": 60, "kprime": 10},
             "smoke": {"n_ml": 30, "n_mc": 40, "n_fw": 40, "kprime": 10}}

    def setup(self, seed, size, workdir):
        ml = _synth("multilabel", 100, size["n_ml"], seed, 0)
        mc = _synth("multiclass", 20, size["n_mc"], seed, 1)
        return {"ml": ml, "sparse": dataio.sparsify_estimates(ml, size["kprime"]),
                "mc": mc, "fw": _synth("multiclass", 20, size["n_fw"], seed, 1),
                "kprime": size["kprime"]}

    def ops(self, inputs, seed):
        ml, mc, fw = inputs["ml"], inputs["mc"], inputs["fw"]
        return [
            Op("ml100/omma", _online(ml, "omma", "macro-f1", derive(seed, 9, 0)), len(ml)),
            Op("ml100/sparse", _online(inputs["sparse"], "omma", "macro-f1",
                                       derive(seed, 9, 0), sparse_k=inputs["kprime"]),
               len(ml)),
            Op("ml100/omma-eta", _online(ml, "omma-eta", "macro-f1", derive(seed, 9, 1)),
               len(ml)),
            Op("mc20/omma", _online(mc, "omma", "mc-qmean", derive(seed, 9, 2)), len(mc)),
            Op("mc20/greedy", _online(mc, "greedy", "macro-f1", derive(seed, 9, 3)),
               len(mc)),
            Op("mc20/ofw", _online(fw, "ofw", "mc-qmean", derive(seed, 9, 4)), len(fw)),
            Op("mc20/ofw-eta", _online(fw, "ofw-eta", "mc-qmean", derive(seed, 9, 5)),
               len(fw)),
        ]


class RegretSweep:
    """The paper's evaluation protocol at reduced size.

    Many short independent runs of the same learner code, each on a freshly
    generated stream, so stream generation and per-run set-up weigh as much
    as the learner loop.
    """

    name = "regret-sweep"
    sizes = {"full": {"n_opt": 2000, "fw_iterations": 50, "n_grid": [60, 120, 240],
                      "runs": 1, "adv_n": 120, "adv_runs": 1},
             "smoke": {"n_opt": 300, "fw_iterations": 20, "n_grid": [30, 60], "runs": 1,
                       "adv_n": 30, "adv_runs": 1}}

    def setup(self, seed, size, workdir):
        model = dataio.SynthModel(task=confusion.multilabel(5), seed=MODEL_SEED)
        metric = metrics.parse_metric("macro-f1")
        # warm-up at a tenth of the size, so lazy set-up inside numpy is done
        # before the first timed round
        evaluation.estimate_optimal(metric, model, n_opt=size["n_opt"] // 10,
                                    seed=derive(seed, 0, 1),
                                    fw_iterations=size["fw_iterations"])
        evaluation.adversarial_run("omma", 6 * max(size["adv_n"] // 60, 1), 1,
                                   seed=derive(seed, 0, 2))
        return {"model": model, "metric": metric, **size}

    def ops(self, inputs, seed):
        model, metric = inputs["model"], inputs["metric"]
        found = {}

        def optimal():
            found["psi_star"] = evaluation.estimate_optimal(
                metric, model, method="both", n_opt=inputs["n_opt"], seed=derive(seed, 1),
                fw_iterations=inputs["fw_iterations"])
            return found["psi_star"]

        def regret():
            reports = evaluation.measure_regret(
                metric, model, "omma", inputs["n_grid"], inputs["runs"],
                base_seed=derive(seed, 2), psi_star=found["psi_star"])
            return [r.psi_final_mean for r in reports]

        def adversarial():
            rep = evaluation.adversarial_run("omma", inputs["adv_n"], inputs["adv_runs"],
                                             seed=derive(seed, 3))
            return {"max_regret": rep.max_regret, "psi_mean": list(rep.psi_mean)}

        return [Op("estimate_optimal", optimal, 0),
                Op("measure_regret", regret, sum(inputs["n_grid"]) * inputs["runs"]),
                Op("adversarial_run", adversarial,
                   2 * inputs["adv_n"] * inputs["adv_runs"])]


class CliFiles:
    """``omma run`` on label and estimate files written by ``omma synth --noise``."""

    name = "cli-files"
    sizes = {"full": {"n": 120, "m": 10, "runs": 2},
             "smoke": {"n": 40, "m": 10, "runs": 2}}

    def setup(self, seed, size, workdir):
        model = os.path.join(workdir, "model.txt")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(f"task=multilabel\nm={size['m']}\nseed={MODEL_SEED}\n")
        prefix = os.path.join(workdir, "stream")
        code = _quiet_main(["synth", "--model", model, "--out", prefix,
                            "--n", str(size["n"]), "--seed", str(derive(seed, 0)),
                            "--noise", "0.05"])
        if code != 0:
            raise RuntimeError(f"omma synth exited with {code}")
        return {"prefix": prefix, "out": os.path.join(workdir, "run"), **size}

    def ops(self, inputs, seed):
        argv = ["run", "--labels", inputs["prefix"] + ".labels",
                "--probs", inputs["prefix"] + ".probs", "--m", str(inputs["m"]),
                "--metric", "macro-f1", "--alg", "omma", "--lambda", "1e-3",
                "--runs", str(inputs["runs"]), "--jobs", "1",
                "--seed", str(derive(seed, 1)), "--stride", str(inputs["n"] // 10),
                "--out", inputs["out"]]

        def run():
            shutil.rmtree(inputs["out"], ignore_errors=True)
            code = _quiet_main(argv)
            if code != 0:
                raise RuntimeError(f"omma run exited with {code}")
            return _digest_outputs(inputs["out"])

        return [Op("cli.run", run, inputs["runs"] * inputs["n"])]


def _quiet_main(argv):
    """``cli.main`` with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report.json")


def _digest_outputs(out_dir):
    """SHA-256 over the CLI's report.json and trace CSVs, after checking the JSON."""
    names = sorted(os.listdir(out_dir))
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        json.loads(fh.read(), parse_constant=_reject_constant)
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


WORKLOADS = {w.name: w for w in (OnlineNarrow(), OnlineWide(), RegretSweep(), CliFiles())}
