"""Span recording around omma's public entry points, installed from outside.

Nothing under ``src/`` is edited: every entry point is replaced by a wrapper at
its module attribute or class attribute, and a name that another module
imported by value (``evaluation.synth_generate``, ``algorithms.init_state``,
the package re-exports) is replaced at that call site too.  ``install``
returns a callable that puts every original back.

A :class:`Tracer` keeps aggregates, not individual spans, so a traced run of
millions of calls stays small: per entry point the call count, total and self
time in integer nanoseconds, a work count (instances, lines, positives, rows),
and per-call durations for the entry points whose tail is reported.  The span
stack gives each span its parent; self time is duration minus the time of the
child spans, which lie inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

MODULES = ("omma", "omma.confusion", "omma.metrics", "omma.policy", "omma.algorithms",
           "omma.dataio", "omma.evaluation", "omma.cli")

LAYERS = ("confusion", "metrics", "policy", "algorithms", "dataio", "evaluation", "cli")


def _first(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _len_result(args, kwargs, result):
    return len(result)


# span name -> (module, attribute path, work count or None)
ENTRY_POINTS = {
    "confusion.update": ("omma.confusion", "ConfusionState.update", None),
    "confusion.update_semi": ("omma.confusion", "ConfusionState.update_semi", None),
    "confusion.normalized": ("omma.confusion", "ConfusionState.normalized", None),
    "confusion.init_state": ("omma.confusion", "init_state", None),
    "metrics.gradient": ("omma.metrics", "Metric.gradient", None),
    "metrics.block_gradient": ("omma.metrics", "Metric.block_gradient", None),
    "metrics.value": ("omma.metrics", "Metric.value", None),
    "metrics.block_values": ("omma.metrics", "Metric.block_values", None),
    "policy.cost_coefficients": ("omma.policy", "cost_coefficients", None),
    "policy.gains": ("omma.policy", "gains", None),
    # decide_*: work is the number of labels predicted positive
    "policy.decide_multilabel": ("omma.policy", "decide_multilabel", _len_result),
    "policy.decide_multiclass": ("omma.policy", "decide_multiclass", _len_result),
    "policy.decide_sparse": ("omma.policy", "decide_sparse", _len_result),
    "algorithms.step": ("omma.algorithms", "OnlineLearner.step", None),
    "algorithms.observe": ("omma.algorithms", "OnlineLearner.observe", None),
    # fw_fit: work is the number of buffer rows fitted
    "algorithms.fw_fit": ("omma.algorithms", "fw_fit",
                          lambda a, k, r: len(_first(a, k, 0, "estimates"))),
    "dataio.synth_generate": ("omma.dataio", "synth_generate",
                              lambda a, k, r: len(r)),
    "dataio.read_labels": ("omma.dataio", "read_labels", _len_result),
    "dataio.read_estimates": ("omma.dataio", "read_estimates", _len_result),
    "dataio.write_labels": ("omma.dataio", "write_labels", None),
    "dataio.write_estimates": ("omma.dataio", "write_estimates", None),
    "dataio.shuffle": ("omma.dataio", "shuffle", None),
    "evaluation.run_online": ("omma.evaluation", "run_online",
                              lambda a, k, r: r.n),
    "evaluation.estimate_optimal": ("omma.evaluation", "estimate_optimal", None),
    "evaluation.measure_regret": ("omma.evaluation", "measure_regret", None),
    # adversarial_run: work is learner steps, both sequences x runs x n
    "evaluation.adversarial_run": ("omma.evaluation", "adversarial_run",
                                   lambda a, k, r: 2 * r.runs * r.n),
    "cli.main": ("omma.cli", "main", None),
}

# entry points whose per-call durations are kept for percentiles
SAMPLED = ("algorithms.step", "algorithms.observe")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(names, make_wrapper):
    """Replace each named entry point by ``make_wrapper(name, original)``.

    Returns a callable that restores every replaced attribute.  Wrapping an
    attribute that is already a wrapper raises, so no call can be counted
    twice by nested wrappers.
    """
    modules = [importlib.import_module(m) for m in MODULES]
    undo = []
    try:
        for name in names:
            module, path, _ = ENTRY_POINTS[name]
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            if getattr(original, "_perfbench_wrapped", False):
                raise RuntimeError(f"{name} is already wrapped")
            wrapper = make_wrapper(name, original)
            wrapper._perfbench_wrapped = True
            for site in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        undo.append((site, key, original))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo):
    for site, key, original in reversed(undo):
        setattr(site, key, original)
    undo.clear()


class Tracer:
    """Aggregated spans of one traced phase, in integer nanoseconds."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.work = Counter()
        self.edges = Counter()   # (parent span, child span) -> calls
        self.samples = {name: array("q") for name in SAMPLED}
        self.top_ns = 0          # time covered by spans without a parent
        self.wall_ns = 0         # wall time of the traced regions, set by the caller
        self.largest_synth = None  # (n, args, kwargs) of the largest synth_generate
        self._stack = []

    def wrapper(self, name, original):
        """A span recorder for ``original`` that reports into this tracer."""
        _, _, work_of = ENTRY_POINTS[name]
        samples = self.samples.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [0, name]  # nanoseconds of child spans, span name
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                if parent is None:
                    self.top_ns += dur
                else:
                    parent[0] += dur
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[0]
                self.edges[(parent[1] if parent else None, name)] += 1
                if samples is not None:
                    samples.append(dur)
                if work_of is not None and result is not None:
                    self.work[name] += work_of(args, kwargs, result)
                if name == "dataio.synth_generate" and result is not None and (
                        self.largest_synth is None or len(result) > self.largest_synth[0]):
                    self.largest_synth = (len(result), args, kwargs)

        return traced

    def accounting_errors(self):
        """Reasons the spans fail to add up to the traced wall time."""
        errors = []
        if sum(self.self_ns.values()) != self.top_ns:
            errors.append(f"self times sum to {sum(self.self_ns.values())} ns, "
                          f"top-level spans cover {self.top_ns} ns")
        if self.top_ns > self.wall_ns:
            errors.append(f"spans cover {self.top_ns} ns of {self.wall_ns} ns traced wall")
        errors += [f"{name} has negative self time" for name, ns in self.self_ns.items()
                   if ns < 0]
        errors += [f"{child} nested in itself" for parent, child in self.edges
                   if parent == child]
        if self._stack:
            errors.append(f"{len(self._stack)} spans left open")
        return errors
