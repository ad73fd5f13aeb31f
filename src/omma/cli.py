"""Command-line surface: run experiments, generate data, measure regret.

Exit codes: 0 success, 2 configuration error, 3 data error.  Every error path
prints a single diagnostic line to stderr; success paths never touch stderr.
Output is plain text (NO_COLOR is honored trivially: nothing is ever colored).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import os
import sys

import numpy as np

from . import dataio, evaluation
from .algorithms import ALGORITHMS, LearnerConfig
from .confusion import Task
from .dataio import DataFormatError, InstanceStream, SynthModel
from .metrics import list_metrics, parse_metric


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main`` to map; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """The synthetic label model of ``synth`` and ``regret``."""
    parser.add_argument("--model")
    parser.add_argument("--task", choices=["multilabel", "multiclass"], default="multilabel")
    parser.add_argument("--m", type=int, default=5)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--prior-low", type=float, default=0.15)
    parser.add_argument("--prior-high", type=float, default=0.45)
    parser.add_argument("--weight-scale", type=float, default=1.25)
    parser.add_argument("--seed", type=int, default=0)


# the flags of ``run`` by name; each name is also a ``--config`` key
_RUN_FLAGS = {
    "metric": dict(required=True),
    "alg": dict(required=True, choices=ALGORITHMS),
    "labels": {},
    "probs": {},
    "task": dict(choices=["multilabel", "multiclass"], default="multilabel"),
    "m": dict(type=int, help="label count for file streams"),
    "model": dict(help="synthetic model file instead of label/prob files"),
    "n": dict(type=int, help="synthetic stream length"),
    "out": dict(required=True),
    "lambda": dict(dest="lam", type=float, default=0.0),
    "epsilon": dict(type=float, default=1e-9),
    "seed": dict(type=int, default=0),
    "runs": dict(type=int, default=1),
    "stride": dict(type=int, default=None),
    "kprime": dict(type=int, default=None, help="sparse top-k' prediction path"),
    "fw-iters": dict(type=int, default=100),
    "schedule": dict(choices=["interval", "cumulative"], default="interval"),
    "fw-deterministic": dict(action="store_true",
                             help="always apply the last mixture component"),
    "jobs": dict(type=int, default=1),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    p = _Parser(prog="omma", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an online experiment")
    run.add_argument("--config", help="flat key=value defaults; flags override")
    for name, kwargs in _RUN_FLAGS.items():
        run.add_argument("--" + name, **kwargs)

    synth = sub.add_parser("synth", help="write a synthetic stream to files")
    _add_model_flags(synth)
    synth.add_argument("--out", required=True, help="output path prefix")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.0)

    adv = sub.add_parser("adversarial", help="two-sequence worst-case regret demo")
    adv.add_argument("--n", type=int, required=True)
    adv.add_argument("--runs", type=int, default=20)
    adv.add_argument("--seed", type=int, default=0)
    adv.add_argument("--alg", default="omma", choices=ALGORITHMS)
    adv.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="learner regularizer; it changes no output, since it adds "
                          "the same amount to tn and tp and min(tn, tp) compares them")
    adv.add_argument("--out")

    reg = sub.add_parser("regret", help="regret against the estimated optimum")
    _add_model_flags(reg)
    reg.add_argument("--metric", required=True)
    reg.add_argument("--alg", required=True, choices=ALGORITHMS)
    reg.add_argument("--n-grid", required=True)
    reg.add_argument("--runs", type=int, default=20)
    reg.add_argument("--lambda", dest="lam", type=float, default=0.0)
    reg.add_argument("--lambda-grid", default=None)
    reg.add_argument("--epsilon", type=float, default=1e-9)
    reg.add_argument("--opt-method", choices=["fw", "threshold-grid", "both"],
                     default="both")
    reg.add_argument("--n-opt", type=int, default=200_000)
    reg.add_argument("--out")
    reg.add_argument("--jobs", type=int, default=1)

    sub.add_parser("metrics", help="list the metric registry")
    return p


def _model_from_args(args) -> SynthModel:
    if args.model:
        return dataio.parse_model_file(args.model)
    return SynthModel(task=Task(args.task, args.m), d=args.d, prior_low=args.prior_low,
                      prior_high=args.prior_high, weight_scale=args.weight_scale,
                      seed=args.seed)


def _load_or_synth(args) -> InstanceStream:
    if args.n is not None and args.n < 1:
        raise ConfigError("--n must be at least 1")
    if (args.labels or args.probs) and (args.model or args.n):
        raise ConfigError("give --labels/--probs or --model/--n, not both")
    if args.model or args.n:
        if not (args.model and args.n) and not (args.n and args.m):
            raise ConfigError("synthetic runs need --model (or --m) and --n")
        model = (dataio.parse_model_file(args.model) if args.model
                 else SynthModel(task=Task(args.task, args.m), seed=args.seed))
        return dataio.synth_generate(model, args.n, seed=args.seed)
    if not (args.labels and args.probs):
        raise ConfigError("provide --labels and --probs, or --model/--m with --n")
    if not args.m:
        raise ConfigError("file streams need --m (label count)")
    return dataio.load_stream(args.labels, args.probs, Task(args.task, args.m))


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")


def _map(fn, *iterables, jobs: int) -> list:
    """``map(fn, *iterables)`` as a list, in a pool of ``jobs`` processes when
    jobs > 1; the workers raise the same floating-point errors as ``main``."""
    if jobs == 1:
        return list(map(fn, *iterables))
    init = functools.partial(np.seterr, **evaluation.FP_ERRORS)
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, initializer=init) as pool:
        return list(pool.map(fn, *iterables))


def cmd_run(args) -> int:
    if args.runs < 1:
        raise ConfigError("--runs must be at least 1")
    _check_jobs(args.jobs)
    metric = parse_metric(args.metric, epsilon=args.epsilon)
    stream = _load_or_synth(args)
    seeds = range(args.seed, args.seed + args.runs)
    cfgs = [LearnerConfig(algorithm=args.alg, task=stream.task, metric=metric,
                          lam=args.lam, seed=seed, sparse_k=args.kprime,
                          fw_iterations=args.fw_iters, refit_mode=args.schedule,
                          deterministic_mixture=args.fw_deterministic)
            for seed in seeds]
    traces = _map(evaluation.run_online, [dataio.shuffle(stream, seed) for seed in seeds],
                  cfgs, [args.stride] * args.runs, jobs=args.jobs)
    report = evaluation.RunReport.from_finals(metric, args.alg, args.lam, args.seed,
                                              len(stream), [t.final_psi for t in traces])
    # runs first, then the report, which rejects NaN: a failed run writes no file
    os.makedirs(args.out, exist_ok=True)
    evaluation.emit_report(report, os.path.join(args.out, "report.json"))
    for r, trace in enumerate(traces):
        evaluation.emit_trace(trace, os.path.join(args.out, f"trace-run{r}.csv"))
    print(f"wrote {args.runs} trace(s) and report.json to {args.out}")
    print(f"psi_final_mean={report.psi_final_mean:.6g}")
    return 0


def cmd_synth(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError("--noise must be a finite number >= 0")
    model = _model_from_args(args)
    stream = dataio.synth_generate(model, args.n, seed=args.seed)
    if args.noise > 0:
        stream, err = dataio.perturb_estimates(stream, args.noise, args.seed)
        print(f"mean estimation error: {err:.6g}")
    dataio.write_labels(args.out + ".labels", stream.label_rows)
    dataio.write_estimates(args.out + ".probs", stream.estimate_rows, stream.support)
    dataio.write_estimates(args.out + ".truth", stream.truth_rows)
    print(f"wrote {len(stream)} instances to {args.out}.labels/.probs/.truth")
    return 0


def cmd_adversarial(args) -> int:
    report = evaluation.adversarial_run(args.alg, args.n, args.runs,
                                        seed=args.seed, lam=args.lam)
    payload = {
        "algorithm": report.algorithm, "n": report.n, "runs": report.runs,
        "max_regret": report.max_regret,
        "note": "optimal values are lower bounds, so regrets underestimate truth",
    }
    for key in ("psi_mean", "psi_std", "opt_bound", "regret"):
        payload[f"{key}_seq1"], payload[f"{key}_seq2"] = getattr(report, key)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _grid(flag: str, text: str, convert) -> list:
    """The comma-separated values of a grid flag; at least one is required."""
    try:
        values = [convert(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad {flag}: {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    return values


def cmd_regret(args) -> int:
    metric = parse_metric(args.metric, epsilon=args.epsilon)
    n_grid = _grid("--n-grid", args.n_grid, int)
    # every count and setting is checked before estimate_optimal runs
    evaluation.check_regret_grid(n_grid, args.runs)
    _check_jobs(args.jobs)
    lam_grid = ([args.lam] if args.lambda_grid is None
                else _grid("--lambda-grid", args.lambda_grid, float))
    model = _model_from_args(args)
    for lam in lam_grid:
        LearnerConfig(algorithm=args.alg, task=model.task, metric=metric, lam=lam)
    psi_star = evaluation.estimate_optimal(metric, model, method=args.opt_method,
                                           n_opt=args.n_opt, seed=args.seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    print(f"psi_star={psi_star:.6g} ({args.opt_method})")
    print("lambda,n,psi_mean,psi_std,regret_hat,regret*n/ln(n)")
    regret = functools.partial(evaluation.measure_regret, metric, model, args.alg,
                               n_grid, args.runs, base_seed=args.seed, psi_star=psi_star)
    for reports in _map(regret, lam_grid, jobs=args.jobs):
        for rep in reports:
            # the decay law: regret * n / ln n stays bounded for O(ln n / n) regret
            trend = rep.regret_hat * rep.n / math.log(rep.n) if rep.n > 1 else float("nan")
            print(f"{rep.lam:g},{rep.n},{rep.psi_final_mean:.6g},{rep.psi_final_std:.6g},"
                  f"{rep.regret_hat:.6g},{trend:.6g}")
            if args.out:
                evaluation.emit_report(
                    rep, os.path.join(args.out, f"report-lam{rep.lam:g}-n{rep.n}.json"))
    return 0


def cmd_metrics(args) -> int:
    print(f"{'name':<22} {'base':<18} {'averaging':<11} concave smooth")
    for info in list_metrics():
        print(f"{info.name:<22} {info.base:<18} {info.averaging:<11} "
              f"{str(info.concave).lower():<7} {str(info.smooth).lower()}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "synth": cmd_synth,
    "adversarial": cmd_adversarial,
    "regret": cmd_regret,
    "metrics": cmd_metrics,
}


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config key=value pairs into flags placed before the real ones,
    so explicitly passed flags win (argparse keeps the last occurrence)."""
    for i, arg in enumerate(argv):
        flag, eq, path = arg.partition("=")
        if flag == "--config":
            if not eq:
                path = argv[i + 1] if i + 1 < len(argv) else ""
            break
    else:
        return argv
    if not path:
        raise ConfigError("--config needs a path")
    injected: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip().replace("_", "-"), val.strip()
            if not sep or key not in _RUN_FLAGS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if _RUN_FLAGS[key].get("action") == "store_true":
                if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise ConfigError(f"{path}:{lineno}: {key} takes 1/true/yes or "
                                      f"0/false/no, not {val!r}")
                if val.lower() in ("1", "true", "yes"):
                    injected.append("--" + key)
            else:
                injected.extend(["--" + key, val])
    return argv[:1] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_inject_config(list(argv)))
        with np.errstate(**evaluation.FP_ERRORS):
            return _COMMANDS[args.command](args)
    # DataFormatError is a ValueError, so it is caught first
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
