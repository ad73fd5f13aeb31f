"""Instance streams: file formats, a synthetic oracle, perturbation, shuffling.

Text formats are line-oriented (one instance per line) so streams never need
to be loaded wholesale:

* labels (``.labels``): comma-separated label indices, empty line = no
  positives, a single index for multiclass;
* estimates (``.probs`` / ``.truth``): space-separated ``index:prob`` pairs,
  probabilities written with 6 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confusion import Labels, ProbEstimate, Task, check_labels

_MC_SUM_SLACK = 1e-3


class DataFormatError(ValueError):
    """Malformed stream file; message carries the offending line number."""


@dataclass
class InstanceStream:
    """Aligned per-instance labels and probability estimates.

    ``truth`` carries exact conditional probabilities and is only present for
    synthetic / oracle streams.
    """

    task: Task
    labels: list[Labels]
    estimates: list[ProbEstimate]
    truth: list[ProbEstimate] | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.estimates):
            raise DataFormatError(
                f"label/estimate length mismatch: {len(self.labels)} vs {len(self.estimates)}")
        if self.truth is not None and len(self.truth) != len(self.labels):
            raise DataFormatError("truth length does not match the stream")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(zip(self.labels, self.estimates))


def read_labels(path, task: Task) -> list[Labels]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                out.append(())
                continue
            try:
                idx = tuple(sorted(int(tok) for tok in line.split(",")))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad label line {line!r}") from None
            if len(set(idx)) != len(idx):
                raise DataFormatError(f"{path}:{lineno}: duplicate label index")
            try:
                check_labels(task, idx)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            out.append(idx)
    return out


def read_estimates(path, m: int, *, multiclass: bool = False) -> list[ProbEstimate]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            pairs = []
            seen = set()
            for tok in line.split():
                head, sep, tail = tok.partition(":")
                try:
                    if not sep:
                        raise ValueError
                    j = int(head)
                    p = float(tail)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: malformed pair {tok!r}") from None
                if j in seen:
                    raise DataFormatError(f"{path}:{lineno}: duplicate index {j}")
                seen.add(j)
                if not 0.0 <= p <= 1.0:
                    raise DataFormatError(
                        f"{path}:{lineno}: probability {p} outside [0, 1]")
                if not 0 <= j < m:
                    raise DataFormatError(f"{path}:{lineno}: index {j} out of range")
                pairs.append((j, p))
            # the checks above cover every condition of ProbEstimate: indices
            # in range and distinct (so strictly increasing once sorted),
            # probabilities in [0, 1] with NaN rejected
            pairs.sort()
            est = ProbEstimate._prechecked(
                m, np.array([j for j, _ in pairs], dtype=np.int64),
                np.array([p for _, p in pairs], dtype=np.float64))
            if multiclass:
                total = est.total
                if abs(total - 1.0) > _MC_SUM_SLACK:
                    raise DataFormatError(
                        f"{path}:{lineno}: multiclass probabilities sum to {total:.6g}")
                if total > 0 and total != 1.0:
                    est = ProbEstimate(m, est.indices, est.values / total)
            out.append(est)
    return out


def write_labels(path, labels: list[Labels]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for y in labels:
            fh.write(",".join(str(j) for j in y) + "\n")


def write_estimates(path, estimates: list[ProbEstimate]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for est in estimates:
            fh.write(" ".join(f"{j}:{p:.6g}" for j, p in
                              zip(est.indices.tolist(), est.values.tolist())) + "\n")


def load_stream(labels_path, probs_path, task: Task) -> InstanceStream:
    labels = read_labels(labels_path, task)
    estimates = read_estimates(probs_path, task.m, multiclass=task.is_multiclass)
    return InstanceStream(task, labels, estimates)


@dataclass(frozen=True)
class SynthModel:
    """Latent-factor label model with known conditional probabilities.

    Per-label prior logits are perturbed by ``w_j . x`` with x standard normal
    of dimension d and a sigmoid link; d = 0 makes every conditional equal to
    the prior.  Multiclass models normalize the per-label sigmoids into a
    distribution.
    """

    task: Task
    d: int = 4
    prior_low: float = 0.15
    prior_high: float = 0.45
    weight_scale: float = 1.25
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.prior_low <= self.prior_high < 1.0:
            raise ValueError("priors must satisfy 0 < low <= high < 1")
        if self.d < 0:
            raise ValueError("latent dimension must be nonnegative")
        if not math.isfinite(self.weight_scale):
            raise ValueError("weight scale must be finite")

    def params(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (priors, weights) drawn from the model seed."""
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(self.seed), 0xA11CE])))
        m = self.task.m
        priors = rng.uniform(self.prior_low, self.prior_high, size=m)
        if self.d == 0:
            return priors, np.zeros((m, 0))
        w = rng.normal(0.0, self.weight_scale / math.sqrt(self.d), size=(m, self.d))
        return priors, w

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        """eta(x) for a batch of latent vectors x of shape (n, d)."""
        priors, w = self.params()
        logits = np.log(priors / (1.0 - priors))[None, :] + x @ w.T
        # exp overflows to inf for logits below about -709; 1 / (1 + inf) = 0
        # is the exact limit of the sigmoid there
        with np.errstate(over="ignore"):
            eta = 1.0 / (1.0 + np.exp(-logits))
        if self.task.is_multiclass:
            eta = eta / eta.sum(axis=1, keepdims=True)
        return eta


def parse_model_file(path) -> SynthModel:
    """Read a flat key=value model description."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            fields[key.strip()] = val.strip()
    try:
        return SynthModel(
            task=Task(fields.get("task", "multilabel"), int(fields["m"])),
            d=int(fields.get("d", 4)),
            prior_low=float(fields.get("prior_low", 0.15)),
            prior_high=float(fields.get("prior_high", 0.45)),
            weight_scale=float(fields.get("weight_scale", 1.25)),
            seed=int(fields.get("seed", 0)),
        )
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad model file ({exc})") from None


def _latent_draw(model: SynthModel, n: int,
                 seed: int | None) -> tuple[np.ndarray, np.random.Generator]:
    """The (n, m) exact conditionals of n instances and the generator of their labels.

    Latents and labels come from two independent child generators, so the
    conditionals do not depend on whether labels are drawn.
    """
    entropy = model.seed if seed is None else seed
    ss_x, ss_y = np.random.SeedSequence([int(entropy), 0xDA7A]).spawn(2)
    rng_x = np.random.Generator(np.random.PCG64(ss_x))
    x = rng_x.standard_normal((n, model.d)) if model.d > 0 else np.zeros((n, 0))
    return model.conditionals(x), np.random.Generator(np.random.PCG64(ss_y))


def synth_generate(model: SynthModel, n: int, seed: int | None = None) -> InstanceStream:
    """Draw n i.i.d. instances; estimates start out equal to the exact truth.

    Truth and estimates are the same list: read-only rows of one validated
    (n, m) conditionals matrix.  For a fixed seed a shorter stream is an
    exact prefix of a longer one.
    """
    eta, rng_y = _latent_draw(model, n, seed)
    m = model.task.m
    labels: list[Labels]
    if model.task.is_multiclass:
        u = rng_y.random(n)
        cum = np.cumsum(eta, axis=1)
        cls = np.minimum((u[:, None] > cum).sum(axis=1), m - 1)
        labels = [(c,) for c in cls.tolist()]
    else:
        draws = rng_y.random((n, m)) < eta
        # positives in row-major order, split at the cumulative row counts
        cols = np.nonzero(draws)[1].tolist()
        ends = np.cumsum(np.count_nonzero(draws, axis=1)).tolist()
        labels = [tuple(cols[start:end]) for start, end in zip([0, *ends], ends)]
    truth = ProbEstimate.from_rows(eta)
    estimates = list(truth)
    return InstanceStream(model.task, labels, estimates, truth=truth)


def perturb_estimates(stream: InstanceStream, sigma: float,
                      seed: int) -> tuple[InstanceStream, float]:
    """Replace estimates with truth + clipped Gaussian noise.

    Returns the new stream and the realized mean per-instance L2 estimation
    error, the quantity the regret bookkeeping needs.
    """
    if stream.truth is None:
        raise ValueError("perturbation requires exact conditionals in the stream")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x5E11])))
    n, m = len(stream), stream.task.m
    dense = np.array([true.dense() for true in stream.truth]).reshape(n, m)
    # one (n, m) draw gives the same numbers as n draws of size m
    noisy = np.clip(dense + rng.normal(0.0, sigma, size=(n, m)), 0.0, 1.0)
    if stream.task.is_multiclass:
        totals = noisy.sum(axis=1, keepdims=True)
        np.divide(noisy, totals, out=noisy, where=totals > 0)
    # row by row: norm(axis=1) can differ in the last bit from the 1-d norm
    err = sum(float(np.linalg.norm(row)) for row in noisy - dense)
    return (InstanceStream(stream.task, list(stream.labels), ProbEstimate.from_rows(noisy),
                           truth=list(stream.truth)), err / max(n, 1))


def sparsify_estimates(stream: InstanceStream, k: int) -> InstanceStream:
    """Keep only the k largest-probability entries of every estimate."""
    estimates = [est.top(k) for est in stream.estimates]
    truth = list(stream.truth) if stream.truth is not None else None
    return InstanceStream(stream.task, list(stream.labels), estimates, truth=truth)


def shuffle(stream: InstanceStream, seed: int) -> InstanceStream:
    """Seeded permutation preserving label/estimate/truth alignment."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x5F1E])))
    perm = rng.permutation(len(stream))
    labels = [stream.labels[i] for i in perm]
    estimates = [stream.estimates[i] for i in perm]
    truth = [stream.truth[i] for i in perm] if stream.truth is not None else None
    return InstanceStream(stream.task, labels, estimates, truth=truth)
