"""Online maximization of confusion-matrix performance metrics."""

from .algorithms import (ALGORITHMS, LearnerConfig, MixtureClassifier,
                         ProtocolError, UnsupportedMetricError, fw_fit,
                         make_learner)
from .confusion import (ConfusionState, ProbEstimate, Task,
                        expected_instance_confusion, init_state, multiclass,
                        multiclass_to_multilabel, multilabel)
from .dataio import InstanceStream, SynthModel, load_stream, perturb_estimates, \
    shuffle, synth_generate
from .evaluation import (AdversarialReport, RunReport, RunTrace, adversarial_run,
                         estimate_optimal, measure_regret, run_online)
from .metrics import Metric, list_metrics, parse_metric

__all__ = [
    "ALGORITHMS", "AdversarialReport", "ConfusionState", "InstanceStream",
    "LearnerConfig", "Metric", "MixtureClassifier", "ProbEstimate",
    "ProtocolError", "RunReport", "RunTrace", "SynthModel", "Task",
    "UnsupportedMetricError", "adversarial_run", "estimate_optimal",
    "expected_instance_confusion", "fw_fit", "init_state",
    "list_metrics", "load_stream", "make_learner", "measure_regret",
    "multiclass", "multiclass_to_multilabel", "multilabel", "parse_metric",
    "perturb_estimates", "run_online", "shuffle", "synth_generate",
]
