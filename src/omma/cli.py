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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    p = _Parser(prog="omma", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an online experiment")
    run.add_argument("--config", help="flat key=value defaults; flags override")
    run.add_argument("--metric", required=True)
    run.add_argument("--alg", required=True, choices=ALGORITHMS)
    run.add_argument("--labels")
    run.add_argument("--probs")
    run.add_argument("--task", choices=["multilabel", "multiclass"], default="multilabel")
    run.add_argument("--m", type=int, help="label count for file streams")
    run.add_argument("--model", help="synthetic model file instead of label/prob files")
    run.add_argument("--n", type=int, help="synthetic stream length")
    run.add_argument("--out", required=True)
    run.add_argument("--lambda", dest="lam", type=float, default=0.0)
    run.add_argument("--epsilon", type=float, default=1e-9)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--stride", type=int, default=None)
    run.add_argument("--kprime", type=int, default=None,
                     help="sparse top-k' prediction path")
    run.add_argument("--fw-iters", type=int, default=100)
    run.add_argument("--schedule", choices=["interval", "cumulative"], default="interval")
    run.add_argument("--fw-deterministic", action="store_true",
                     help="always apply the last mixture component")
    run.add_argument("--jobs", type=int, default=1)

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
    adv.add_argument("--lambda", dest="lam", type=float, default=0.0)
    adv.add_argument("--out")

    reg = sub.add_parser("regret", help="regret against the estimated optimum")
    _add_model_flags(reg)
    reg.add_argument("--metric", required=True)
    reg.add_argument("--alg", required=True, choices=ALGORITHMS)
    reg.add_argument("--n-grid", required=True)
    reg.add_argument("--runs", type=int, default=20)
    reg.add_argument("--lambda", dest="lam", type=float, default=None)
    reg.add_argument("--lambda-grid", default=None)
    reg.add_argument("--epsilon", type=float, default=1e-9)
    reg.add_argument("--opt-method", choices=["fw", "threshold-grid", "both"],
                     default="both")
    reg.add_argument("--n-opt", type=int, default=200_000)
    reg.add_argument("--out")
    reg.add_argument("--jobs", type=int, default=1)

    sub.add_parser("metrics", help="list the metric registry")
    return p


def _task_from_args(args) -> Task:
    return Task(args.task, args.m)


def _model_from_args(args) -> SynthModel:
    if args.model:
        return dataio.parse_model_file(args.model)
    return SynthModel(task=_task_from_args(args), d=args.d, prior_low=args.prior_low,
                      prior_high=args.prior_high, weight_scale=args.weight_scale,
                      seed=args.seed)


def _load_or_synth(args) -> InstanceStream:
    if args.model or args.n:
        if not (args.model and args.n) and not (args.n and args.m):
            raise ConfigError("synthetic runs need --model (or --m) and --n")
        model = (dataio.parse_model_file(args.model) if args.model
                 else SynthModel(task=_task_from_args(args), seed=args.seed))
        return dataio.synth_generate(model, args.n, seed=args.seed)
    if not (args.labels and args.probs):
        raise ConfigError("provide --labels and --probs, or --model/--m with --n")
    if not args.m:
        raise ConfigError("file streams need --m (label count)")
    return dataio.load_stream(args.labels, args.probs, _task_from_args(args))


def _map(fn, payloads: list, jobs: int) -> list:
    """``fn`` over the payloads, in a pool of ``jobs`` processes when jobs > 1."""
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    if jobs == 1:
        return [fn(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads))


def _run_single(payload):
    stream, cfg, stride = payload
    return evaluation.run_online(stream, cfg, stride)


def _regret_single(payload):
    metric, model, alg, n_grid, runs, lam, seed, psi_star = payload
    return evaluation.measure_regret(metric, model, alg, n_grid, runs, lam=lam,
                                     base_seed=seed, psi_star=psi_star)


def cmd_run(args) -> int:
    if args.runs < 1:
        raise ConfigError("--runs must be at least 1")
    metric = parse_metric(args.metric, epsilon=args.epsilon)
    stream = _load_or_synth(args)
    if metric.averaging == "multiclass" and not stream.task.is_multiclass:
        raise ConfigError(f"{args.metric} needs a multiclass stream")
    os.makedirs(args.out, exist_ok=True)
    jobs = []
    for r in range(args.runs):
        shuffled = dataio.shuffle(stream, args.seed + r)
        cfg = LearnerConfig(algorithm=args.alg, task=stream.task, metric=metric,
                            lam=args.lam, seed=args.seed + r, sparse_k=args.kprime,
                            fw_iterations=args.fw_iters, refit_mode=args.schedule,
                            deterministic_mixture=args.fw_deterministic)
        jobs.append((shuffled, cfg, args.stride))
    traces = _map(_run_single, jobs, args.jobs)
    finals = np.array([t.final_psi for t in traces])
    for r, trace in enumerate(traces):
        evaluation.emit_trace(trace, os.path.join(args.out, f"trace-run{r}.csv"))
    report = evaluation.RunReport(
        metric=metric.name, algorithm=args.alg, averaging=metric.averaging,
        budget_k=metric.budget_k, lam=args.lam, epsilon=metric.epsilon,
        seed=args.seed, n=len(stream), runs=args.runs,
        psi_final_mean=float(finals.mean()),
        psi_final_std=float(finals.std(ddof=1)) if args.runs > 1 else 0.0)
    evaluation.emit_report(report, os.path.join(args.out, "report.json"))
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
    dataio.write_labels(args.out + ".labels", stream.labels)
    dataio.write_estimates(args.out + ".probs", stream.estimates)
    dataio.write_estimates(args.out + ".truth", stream.truth)
    print(f"wrote {len(stream)} instances to {args.out}.labels/.probs/.truth")
    return 0


def cmd_adversarial(args) -> int:
    report = evaluation.adversarial_run(args.alg, args.n, args.runs,
                                        seed=args.seed, lam=args.lam)
    payload = {
        "algorithm": report.algorithm, "n": report.n, "runs": report.runs,
        "psi_mean_seq1": report.psi_mean[0], "psi_mean_seq2": report.psi_mean[1],
        "psi_std_seq1": report.psi_std[0], "psi_std_seq2": report.psi_std[1],
        "opt_bound_seq1": report.opt_bound[0], "opt_bound_seq2": report.opt_bound[1],
        "regret_seq1": report.regret[0], "regret_seq2": report.regret[1],
        "max_regret": report.max_regret,
        "note": "optimal values are lower bounds, so regrets underestimate truth",
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_regret(args) -> int:
    metric = parse_metric(args.metric, epsilon=args.epsilon)
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad --n-grid: {args.n_grid!r}") from None
    if args.lambda_grid is not None:
        try:
            lam_grid = [float(tok) for tok in args.lambda_grid.split(",") if tok]
        except ValueError:
            raise ConfigError(f"bad --lambda-grid: {args.lambda_grid!r}") from None
    else:
        lam_grid = [args.lam if args.lam is not None else 0.0]
    model = _model_from_args(args)
    psi_star = evaluation.estimate_optimal(metric, model, method=args.opt_method,
                                           n_opt=args.n_opt, seed=args.seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    print(f"psi_star={psi_star:.6g} ({args.opt_method})")
    print("lambda,n,psi_mean,psi_std,regret_hat,regret*n/ln(n)")
    payloads = [(metric, model, args.alg, n_grid, args.runs, lam, args.seed, psi_star)
                for lam in lam_grid]
    per_lam = _map(_regret_single, payloads, args.jobs)
    for lam, reports in zip(lam_grid, per_lam):
        for rep in reports:
            print(f"{lam:g},{rep.n},{rep.psi_final_mean:.6g},{rep.psi_final_std:.6g},"
                  f"{rep.regret_hat:.6g},{rep.trend_ratio:.6g}")
            if args.out:
                out = evaluation.RunReport(
                    metric=metric.name, algorithm=args.alg,
                    averaging=metric.averaging, budget_k=metric.budget_k,
                    lam=lam, epsilon=metric.epsilon, seed=args.seed, n=rep.n,
                    runs=rep.runs, psi_final_mean=rep.psi_final_mean,
                    psi_final_std=rep.psi_final_std, psi_star=rep.psi_star,
                    regret_hat=rep.regret_hat)
                evaluation.emit_report(
                    out, os.path.join(args.out, f"report-lam{lam:g}-n{rep.n}.json"))
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


_CONFIG_KEYS = ("metric", "alg", "labels", "probs", "task", "m", "model", "n",
                "out", "lambda", "epsilon", "seed", "runs", "stride", "kprime",
                "fw-iters", "schedule", "fw-deterministic", "jobs")


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
            if not sep or key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key == "fw-deterministic":
                if val.lower() in ("1", "true", "yes"):
                    injected.append("--fw-deterministic")
            else:
                injected.extend(["--" + key, val])
    return argv[:1] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_inject_config(list(argv)))
        return _COMMANDS[args.command](args)
    # DataFormatError is a ValueError, so it is caught first
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
