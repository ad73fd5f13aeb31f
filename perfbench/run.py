"""omma benchmark: one workload per process, end-to-end or traced per layer.

    python3 perfbench/run.py --workload online-narrow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 2 --trace 1 --smoke
    python3 perfbench/run.py --write-references

Run from the root of a checkout; ``omma`` is imported from its ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
are the same figures for people, with the machine facts and the metrics that
only some workloads have.  See perfbench/README.md.
"""

import os
import sys

# BLAS threads are pinned before numpy is imported; the online protocol is
# sequential, and one thread keeps its timings free of thread start-up noise.
PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import omma  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_FILE = os.path.join(HERE, "references.json")
# the default seed and one seed held out while the benchmark was written
REFERENCE_SEEDS = (0, 90210)
# set-ups per run, spread evenly over the timed phase: set-up is short, and
# five back to back shared one moment of the machine's wandering speed
SETUPS = 10
FAILED = object()


@dataclass
class Round:
    wall: float
    steps: int
    op_seconds: dict
    op_steps: dict
    outputs: dict
    runs: list = field(default_factory=list)  # (learner, n, seconds) per run_online


class RunTimer:
    """Time in ``run_online`` per learner, including runs made inside the library.

    ``measure_regret`` and ``cli.main`` call ``run_online`` themselves, so the
    per-learner rates need this one wrapper even with tracing off; it adds two
    clock reads per run, not per instance.
    """

    def __init__(self):
        self.runs = []

    def wrapper(self, name, original):
        def timed(stream, cfg, *args, **kwargs):
            start = time.perf_counter()
            trace = original(stream, cfg, *args, **kwargs)
            key = "sparse" if cfg.sparse_k is not None else cfg.algorithm
            self.runs.append((key, trace.n, time.perf_counter() - start))
            return trace
        return timed


def run_round(workload, inputs, seed, timer=None):
    ops = workload.ops(inputs, seed)
    if timer is not None:
        timer.runs = []
    op_seconds, outputs = {}, {}
    start = time.perf_counter()
    for op in ops:
        op_start = time.perf_counter()
        try:
            outputs[op.key] = op.call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outputs[op.key] = FAILED
        op_seconds[op.key] = time.perf_counter() - op_start
    wall = time.perf_counter() - start
    rnd = Round(wall, sum(op.steps for op in ops), op_seconds,
                {op.key: op.steps for op in ops}, outputs)
    if timer is not None:
        rnd.runs = timer.runs
    return rnd


def run_rounds(workload, inputs, seed, until):
    """Rounds until the clock passes ``until``; at least one."""
    rounds = [run_round(workload, inputs, seed)]
    while time.perf_counter() < until:
        rounds.append(run_round(workload, inputs, seed))
    return rounds


# --- correctness


def same(out, ref):
    """Equal outputs; floats to 1e-12, far below one flipped prediction."""
    if isinstance(ref, float) or isinstance(out, float):
        return (isinstance(out, (int, float)) and isinstance(ref, (int, float))
                and math.isclose(out, ref, rel_tol=1e-12, abs_tol=1e-12))
    if isinstance(ref, (list, tuple)):
        return (isinstance(out, (list, tuple)) and len(out) == len(ref)
                and all(same(a, b) for a, b in zip(out, ref)))
    if isinstance(ref, dict):
        return (isinstance(out, dict) and out.keys() == ref.keys()
                and all(same(out[k], ref[k]) for k in ref))
    return out == ref


def check_rounds(rounds, reference, label):
    """(attempted, failed): every output must match round 0 and the reference."""
    attempted = failed = 0
    first = rounds[0].outputs
    for i, rnd in enumerate(rounds):
        for key, out in rnd.outputs.items():
            attempted += 1
            if out is FAILED:
                failed += 1
            elif reference is not None and not same(out, reference.get(key)):
                failed += 1
                print(f"mismatch: {label} round {i} {key} differs from the reference",
                      file=sys.stderr)
            elif not same(out, first[key]):
                failed += 1
                print(f"mismatch: {label} round {i} {key} differs from round 0",
                      file=sys.stderr)
    return attempted, failed


def load_references():
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_checks(workload, seed, size_name, references, workdir):
    """Smoke-size rounds on both reference seeds, compared with the stored outputs."""
    attempted = failed = 0
    for ref_seed in REFERENCE_SEEDS:
        if size_name == "smoke" and seed == ref_seed:
            continue  # the timed rounds were already compared
        label = f"smoke/{workload.name}/{ref_seed}"
        reference = references.get(label)
        if reference is None:
            attempted += 1
            failed += 1
            print(f"missing reference outputs for {label}", file=sys.stderr)
            continue
        sub = os.path.join(workdir, f"check-{ref_seed}")
        os.makedirs(sub)
        inputs = workload.setup(ref_seed, workload.sizes["smoke"], sub)
        a, f = check_rounds([run_round(workload, inputs, ref_seed)], reference, label)
        attempted += a
        failed += f
    return attempted, failed


# --- machine facts


def blas_threads():
    """Threads the loaded OpenBLAS or MKL will use, or None if neither is found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if ("openblas" in line or "mkl_rt" in line) and ".so" in line})
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
    return max(counts) if counts else None


def machine_facts():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": blas_threads(), "pinned_threads": PINNED_THREADS,
            "machine": platform.machine()}


# --- metrics


def rate(steps, seconds):
    return steps / seconds if seconds > 0 else float("nan")


def fastest(rounds, seconds_of):
    """The least time of one part over the rounds.

    On the shared machine this benchmark was written on, the speed of one
    core wandered between 1.0x and 1.6x of its best within seconds.  The
    fastest of many short timings is steady from run to run; a median or a
    single long timing is not.
    """
    return min(seconds_of(r) for r in rounds)


def end_to_end(rounds, setup_times, peak_rss_mb):
    first = rounds[0]
    # every round makes the same run_online calls in the same order, unless
    # an operation failed part way, which the checks report
    whole = [r for r in rounds if len(r.runs) == len(first.runs)]
    run_fastest = [fastest(whole, lambda r: r.runs[i][2]) for i in range(len(first.runs))]
    rates = {}
    for key in dict.fromkeys(key for key, _, _ in first.runs):
        mine = [i for i, run in enumerate(first.runs) if run[0] == key]
        rates[key] = rate(sum(first.runs[i][1] for i in mine),
                          sum(run_fastest[i] for i in mine))
    op_fastest = {key: fastest(rounds, lambda r: r.op_seconds[key])
                  for key in first.op_seconds}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(op_fastest.values()), "s"),
        "throughput_ips": (rate(first.steps, sum(op_fastest.values())), "1/s"),
        "omma_ips": (rates.get("omma", float("nan")), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # learners and protocol steps that only some workloads run: printed, not gated
    extra = {f"{key.replace('-', '_')}_ips": (value, "1/s")
             for key, value in rates.items() if key != "omma"}
    if "adversarial_run" in op_fastest:
        extra["adversarial_sps"] = (rate(first.op_steps["adversarial_run"],
                                         op_fastest["adversarial_run"]), "1/s")
    if "estimate_optimal" in op_fastest:
        extra["optimal_s"] = (op_fastest["estimate_optimal"], "s")
    return metrics, extra


def tail(samples_ns, want=99):
    """Highest percentile up to ``want`` with at least ten samples beyond it, in µs."""
    data = sorted(samples_ns)
    n = len(data)
    q = want
    while q > 50 and n * (100 - q) / 100 < 10:
        q -= 1
    if not data:
        return 0.0, q
    rank = max(math.ceil(q / 100 * n), 1)
    return data[rank - 1] / 1e3, q


def per_layer(run, setup, traced_rounds, untraced_walls, traced_walls, alloc_mb):
    """The per-layer metrics of BENCHMARK.json, from the traced phase's spans.

    Per-call times come from the timed rounds, or from the traced set-up
    where the entry point ran only there (stream generation on most
    workloads).  Counts are per round; shares are of the traced rounds' wall.
    """
    def pick(name):
        return run if run.calls[name] else setup

    def us_per_call(*names):
        calls = sum(pick(n).calls[n] for n in names)
        return sum(pick(n).total_ns[n] for n in names) / calls / 1e3 if calls else 0.0

    def per_work(name, scale):
        src = pick(name)
        return src.total_ns[name] / src.work[name] / scale if src.work[name] else 0.0

    def self_per_call(name):
        return run.self_ns[name] / run.calls[name] / 1e9 if run.calls[name] else 0.0

    wall = run.wall_ns
    decides = ("policy.decide_multilabel", "policy.decide_multiclass",
               "policy.decide_sparse")
    decide_calls = sum(run.calls[n] for n in decides)
    step_p50 = (statistics.median(run.samples["algorithms.step"]) / 1e3
                if run.samples["algorithms.step"] else 0.0)
    step_tail, step_q = tail(run.samples["algorithms.step"])
    observe_tail, observe_q = tail(run.samples["algorithms.observe"])
    share = {layer: sum(ns for name, ns in run.self_ns.items()
                        if name.startswith(layer + ".")) / wall
             for layer in tracing.LAYERS}
    m = {
        "confusion.update.us_per_call": (us_per_call("confusion.update"), "us"),
        "confusion.update_semi.us_per_call": (us_per_call("confusion.update_semi"), "us"),
        "confusion.self_share": (share["confusion"], "share"),
        "metrics.gradient.us_per_call": (us_per_call("metrics.gradient"), "us"),
        "metrics.block_gradient.us_per_call": (us_per_call("metrics.block_gradient"), "us"),
        "metrics.block_values.calls": (run.calls["metrics.block_values"] / traced_rounds,
                                       "count"),
        "metrics.self_share": (share["metrics"], "share"),
        "policy.decide.us_per_call": (us_per_call(*decides), "us"),
        "policy.positives_per_instance": (
            sum(run.work[n] for n in decides) / decide_calls if decide_calls else 0.0,
            "count"),
        "policy.self_share": (share["policy"], "share"),
        "algorithms.step.us_p50": (step_p50, "us"),
        "algorithms.step.us_p99": (step_tail, "us"),
        "algorithms.step.samples": (len(run.samples["algorithms.step"]), "count"),
        "algorithms.observe.us_p99": (observe_tail, "us"),
        "algorithms.fw_fit.calls": (run.calls["algorithms.fw_fit"] / traced_rounds, "count"),
        "algorithms.fw_fit.rows_total": (run.work["algorithms.fw_fit"] / traced_rounds,
                                         "count"),
        "algorithms.fw_fit.self_s": (run.self_ns["algorithms.fw_fit"] / traced_rounds / 1e9,
                                     "s"),
        "algorithms.self_share": (share["algorithms"], "share"),
        "dataio.synth_generate.us_per_instance": (
            per_work("dataio.synth_generate", 1e3), "us"),
        "dataio.synth_generate.alloc_mb": (alloc_mb, "MB"),
        "dataio.read_estimates.us_per_line": (per_work("dataio.read_estimates", 1e3), "us"),
        "dataio.read_labels.us_per_line": (per_work("dataio.read_labels", 1e3), "us"),
        "dataio.shuffle.s": (us_per_call("dataio.shuffle") / 1e6, "s"),
        "dataio.self_share": (share["dataio"], "share"),
        "evaluation.run_online.self_us_per_instance": (
            run.self_ns["evaluation.run_online"] / run.work["evaluation.run_online"] / 1e3
            if run.work["evaluation.run_online"] else 0.0, "us"),
        "evaluation.adversarial_run.self_us_per_step": (
            run.self_ns["evaluation.adversarial_run"]
            / run.work["evaluation.adversarial_run"] / 1e3
            if run.work["evaluation.adversarial_run"] else 0.0, "us"),
        "evaluation.estimate_optimal.self_s": (self_per_call("evaluation.estimate_optimal"),
                                               "s"),
        "evaluation.self_share": (share["evaluation"], "share"),
        "cli.main.self_s": (self_per_call("cli.main"), "s"),
        "cli.self_share": (share["cli"], "share"),
        "trace.overhead_ratio": (min(traced_walls) / min(untraced_walls), "ratio"),
        "trace.unattributed_share": ((wall - run.top_ns) / wall, "share"),
    }
    notes = [f"algorithms.step.us_p99 is p{step_q} of "
             f"{len(run.samples['algorithms.step'])} samples",
             f"algorithms.observe.us_p99 is p{observe_q} of "
             f"{len(run.samples['algorithms.observe'])} samples"]
    return m, notes


def synth_alloc_mb(*tracers):
    """tracemalloc peak of the largest ``synth_generate`` call, replayed untraced."""
    calls = [t.largest_synth for t in tracers if t.largest_synth is not None]
    if not calls:
        return 0.0
    _, args, kwargs = max(calls, key=lambda c: c[0])
    tracemalloc.start()
    try:
        omma.dataio.synth_generate(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# --- one benchmark run


def traced(tracer, fn):
    undo = tracing.install(tracing.ENTRY_POINTS, tracer.wrapper)
    start = time.perf_counter_ns()
    try:
        return fn()
    finally:
        tracer.wall_ns += time.perf_counter_ns() - start
        undo()


def measure_untraced(workload, seed, seconds, size, workdir):
    """End-to-end metrics: timed rounds, with set-ups timed between them."""
    def setup():
        start = time.perf_counter()
        inputs = workload.setup(seed, size, workdir)
        setup_times.append(time.perf_counter() - start)
        return inputs

    setup_times = []
    inputs = setup()
    timer = RunTimer()
    undo = tracing.install(["evaluation.run_online"], timer.wrapper)
    try:
        start = time.perf_counter()
        rounds = []
        while not rounds or time.perf_counter() < start + seconds:
            rounds.append(run_round(workload, inputs, seed, timer))
            if (len(setup_times) < SETUPS
                    and time.perf_counter() >= start + len(setup_times) * seconds / SETUPS):
                setup()  # identical inputs; only the time is kept
    finally:
        undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, extra = end_to_end(rounds, setup_times, peak_rss_mb)
    return rounds, metrics, extra, [f"rounds {len(rounds)}, set-ups {len(setup_times)}"]


def measure_traced(workload, seed, seconds, size, workdir):
    """Per-layer metrics: a traced set-up, untraced rounds, then traced rounds."""
    start = time.perf_counter()
    setup_tracer = tracing.Tracer()
    inputs = traced(setup_tracer, lambda: workload.setup(seed, size, workdir))
    untraced = run_rounds(workload, inputs, seed, start + seconds / 2)
    run_tracer = tracing.Tracer()
    traced_rounds = []
    while not traced_rounds or time.perf_counter() < start + seconds:
        traced_rounds.append(traced(run_tracer, lambda: run_round(workload, inputs, seed)))
    errors = run_tracer.accounting_errors() + setup_tracer.accounting_errors()
    metrics, notes = per_layer(run_tracer, setup_tracer, len(traced_rounds),
                               [r.wall for r in untraced], [r.wall for r in traced_rounds],
                               synth_alloc_mb(setup_tracer, run_tracer))
    lines = [f"rounds {len(untraced)} untraced, {len(traced_rounds)} traced", *notes,
             *(f"trace accounting: {error}" for error in errors)]
    return untraced + traced_rounds, metrics, errors, lines


def measure(workload, seed, seconds, trace, size_name, workdir):
    """Measure, then check every output; returns the result and the readable lines."""
    size = workload.sizes[size_name]
    if trace:
        rounds, metrics, errors, lines = measure_traced(workload, seed, seconds, size,
                                                        workdir)
        extra = {}
    else:
        rounds, metrics, extra, lines = measure_untraced(workload, seed, seconds, size,
                                                         workdir)
        errors = []
    references = load_references()
    label = f"{size_name}/{workload.name}/{seed}"
    attempted, failed = check_rounds(rounds, references.get(label), label)
    a, f = reference_checks(workload, seed, size_name, references, workdir)
    attempted += a
    failed += f
    extra["error_rate"] = (failed / attempted, "share")
    width = max(map(len, metrics)) + 2
    lines += [f"{name:<{width}}{value:.6g} {unit}"
              for name, (value, unit) in {**metrics, **extra}.items()]
    lines.append(f"failed {failed} of {attempted} operations")
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def write_references():
    """Store the outputs of one round per size, workload and reference seed."""
    out = {}
    for size_name in ("full", "smoke"):
        for name, workload in WORKLOADS.items():
            for seed in REFERENCE_SEEDS:
                workdir = make_workdir()
                try:
                    inputs = workload.setup(seed, workload.sizes[size_name], workdir)
                    rnd = run_round(workload, inputs, seed)
                finally:
                    remove_workdir(workdir)
                if any(v is FAILED for v in rnd.outputs.values()):
                    raise SystemExit(f"{size_name}/{name}/{seed}: an operation failed")
                out[f"{size_name}/{name}/{seed}"] = rnd.outputs
                print(f"{size_name}/{name}/{seed}: {len(rnd.outputs)} outputs")
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def make_workdir():
    path = os.path.join(HERE, "_work", str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run is still using it


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, same code paths and checks")
    parser.add_argument("--write-references", action="store_true",
                        help="store the outputs of this commit as the references")
    args = parser.parse_args(argv)
    if not os.path.samefile(os.path.dirname(os.path.dirname(omma.__file__)),
                            os.path.join(ROOT, "src")):
        parser.error(f"omma was imported from {omma.__file__}, not from this checkout")
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
        print(f"error: {facts['blas_threads']} BLAS threads active on "
              f"{facts['nproc']} processors", file=sys.stderr)
        return 3
    size_name = "smoke" if args.smoke else "full"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {size_name}")
    workdir = make_workdir()
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                args.trace, size_name, workdir)
    finally:
        remove_workdir(workdir)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
