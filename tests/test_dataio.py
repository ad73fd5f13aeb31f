import importlib.util
from pathlib import Path

import numpy as np
import pytest

from omma import dataio
from omma.algorithms import LearnerConfig, make_learner
from omma.confusion import check_labels, indicator_row, multiclass, multilabel
from omma.dataio import (DataFormatError, InstanceStream, SynthModel, load_stream,
                         parse_model_file, perturb_estimates, read_estimates,
                         read_labels, shuffle, sparsify_estimates, synth_generate,
                         write_estimates, write_labels)
from omma.metrics import parse_metric


def test_read_labels_sorted(tmp_path):
    p = tmp_path / "a.labels"
    p.write_text("3,0,7\n\n2\n")
    got = read_labels(p, multilabel(8))
    assert got.tolist() == [[1, 0, 0, 1, 0, 0, 0, 1], [0] * 8, [0, 0, 1, 0, 0, 0, 0, 0]]


def test_read_labels_multiclass_single_index(tmp_path):
    p = tmp_path / "a.labels"
    p.write_text("2\n0\n")
    assert read_labels(p, multiclass(3)).tolist() == [[0, 0, 1], [1, 0, 0]]
    p.write_text("1,2\n")
    with pytest.raises(DataFormatError):
        read_labels(p, multiclass(3))


def test_read_labels_errors_carry_line_number(tmp_path):
    p = tmp_path / "a.labels"
    p.write_text("0\nbogus\n")
    with pytest.raises(DataFormatError, match=":2"):
        read_labels(p, multilabel(4))
    p.write_text("0\n\n9\n")
    with pytest.raises(DataFormatError, match=":3"):
        read_labels(p, multilabel(4))
    p.write_text("1,1\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        read_labels(p, multilabel(4))


@pytest.mark.parametrize("line", ["1_0", "\u0663", "1,\u0662", "0,1__2", "\uff11"])
def test_read_labels_takes_ascii_digits_only(tmp_path, line):
    """int() reads "1_0" as 10 and other scripts' digits ("\u0663" is 3);
    a label line holds ASCII digits only."""
    p = tmp_path / "a.labels"
    p.write_text(f"0\n{line}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2: bad label line"):
        read_labels(p, multilabel(12))


def test_other_scripts_spaces_around_tokens_still_separate(tmp_path):
    p = tmp_path / "a.labels"
    p.write_text("1,\u00a02\n", encoding="utf-8")
    assert read_labels(p, multilabel(3)).tolist() == [[0, 1, 1]]
    p = tmp_path / "a.probs"
    p.write_text("0:0.5\u00a01:0.25\n", encoding="utf-8")
    assert read_estimates(p, 3)[0].values.tolist() == [0.5, 0.25]


def _perfbench_tracing():
    """The benchmark's tracing module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_sees_one_label_parse_per_load(tmp_path):
    """The benchmark's tracer wraps ``read_labels`` by name and books the
    length of its result as work: one span per ``load_stream``, one unit of
    work per label line, whatever the parse returns."""
    tracing = _perfbench_tracing()
    (tmp_path / "a.labels").write_text("0,2\n\n1\n")
    (tmp_path / "a.probs").write_text("0:0.5\n\n2:0.1\n")
    tracer = tracing.Tracer()
    undo = tracing.install(["dataio.read_labels"], tracer.wrapper)
    try:
        for _ in range(2):
            stream = load_stream(tmp_path / "a.labels", tmp_path / "a.probs", multilabel(3))
    finally:
        undo()
    assert len(stream) == 3
    assert tracer.calls["dataio.read_labels"] == 2
    assert tracer.work["dataio.read_labels"] == 6
    assert tracer.total_ns["dataio.read_labels"] > 0


def test_every_traced_entry_point_is_an_attribute_of_its_owner():
    """The benchmark's tracer looks each entry point up in its owner's
    ``__dict__``; a renamed or deleted one fails every traced run."""
    tracing = _perfbench_tracing()
    for name, (module, path, _) in tracing.ENTRY_POINTS.items():
        owner, attr = tracing._resolve(module, path)
        assert callable(owner.__dict__.get(attr)), name


def test_read_estimates_basic(tmp_path):
    p = tmp_path / "a.probs"
    p.write_text("1:0.9 5:0.2\n\n")
    got = read_estimates(p, 8)
    assert got[0].indices.tolist() == [1, 5]
    assert got[0].values.tolist() == [0.9, 0.2]
    assert got[1].indices.size == 0


def test_read_estimates_canonicalizes_order(tmp_path):
    p = tmp_path / "a.probs"
    p.write_text("5:0.2 1:0.9\n")
    got = read_estimates(p, 8)
    assert got[0].indices.tolist() == [1, 5]


@pytest.mark.parametrize("line,msg", [
    ("1:0.9 1:0.1", "duplicate"),
    ("1:1.5", "outside"),
    ("oops", "malformed"),
    ("1:0.5 9:0.1", "out of range"),
    # float() and int() also read underscores and other scripts' digits
    ("1_1:0.2", "malformed pair '1_1:0.2'"),
    ("0:1_0e-1", "malformed pair '0:1_0e-1'"),
    ("\u0663:0.5", "malformed pair"),
    ("0:0.5 1:\u0660.\u0665", "malformed pair '1:"),
])
def test_read_estimates_errors(tmp_path, line, msg):
    p = tmp_path / "a.probs"
    p.write_text(line + "\n")
    with pytest.raises(DataFormatError, match=msg):
        read_estimates(p, 8)


def test_read_estimates_multiclass_renormalizes(tmp_path):
    p = tmp_path / "a.probs"
    p.write_text("0:0.5 1:0.5005\n")
    got = read_estimates(p, 2, multiclass=True)
    assert float(got[0].values.sum()) == pytest.approx(1.0)
    p.write_text("0:0.5 1:0.3\n")
    with pytest.raises(DataFormatError, match="sum"):
        read_estimates(p, 2, multiclass=True)


def test_roundtrip_labels(tmp_path):
    rows = np.array([indicator_row(4, y, np.float64)
                     for y in [(0, 3), (), (1,), (0, 1, 2)]])
    p = tmp_path / "x.labels"
    write_labels(p, rows)
    back = read_labels(p, multilabel(4))
    assert back.tolist() == rows.tolist()
    write_labels(tmp_path / "y.labels", back)
    assert (tmp_path / "y.labels").read_bytes() == p.read_bytes()


def test_roundtrip_estimates(tmp_path):
    model = SynthModel(task=multilabel(4), seed=3)
    stream = synth_generate(model, 20, seed=4)
    p = tmp_path / "x.probs"
    write_estimates(p, stream.estimate_rows)
    back = read_estimates(p, 4)
    write_estimates(tmp_path / "y.probs", np.vstack([b.dense() for b in back]))
    assert (tmp_path / "y.probs").read_bytes() == p.read_bytes()
    for a, b in zip(stream.estimates, back):
        assert np.allclose(a.dense(), b.dense(), atol=1e-5)


def test_roundtrip_estimates_on_a_support(tmp_path):
    stream = synth_generate(SynthModel(task=multilabel(5), seed=3), 20, seed=4)
    stream = sparsify_estimates(stream, 2)
    p = tmp_path / "x.probs"
    write_estimates(p, stream.estimate_rows, stream.support)
    back = read_estimates(p, 5)
    for a, b in zip(stream.estimates, back):
        assert a.indices.tolist() == b.indices.tolist()
        assert np.allclose(a.values, b.values, atol=1e-5)
    assert all(len(line.split()) == 2 for line in p.read_text().splitlines())


def test_alignment_mismatch_detected(tmp_path):
    (tmp_path / "a.labels").write_text("0\n1\n")
    (tmp_path / "a.probs").write_text("0:0.5\n")
    with pytest.raises(DataFormatError, match="mismatch"):
        load_stream(tmp_path / "a.labels", tmp_path / "a.probs", multilabel(2))


def test_synth_reproducible():
    model = SynthModel(task=multilabel(5), seed=7)
    a = synth_generate(model, 50, seed=1)
    b = synth_generate(model, 50, seed=1)
    assert a.labels == b.labels
    for x, y in zip(a.estimates, b.estimates):
        assert np.array_equal(x.values, y.values)


def test_synth_prefix_property():
    model = SynthModel(task=multilabel(5), seed=7)
    short = synth_generate(model, 30, seed=1)
    long = synth_generate(model, 90, seed=1)
    assert short.labels == long.labels[:30]
    for x, y in zip(short.estimates, long.estimates[:30]):
        assert np.array_equal(x.values, y.values)


def test_synth_label_frequency_matches_conditionals():
    model = SynthModel(task=multilabel(4), d=3, prior_low=0.2, prior_high=0.5, seed=9)
    n = 100_000
    stream = synth_generate(model, n, seed=2)
    eta = stream.truth_rows
    freq = np.zeros(4)
    for y in stream.labels:
        freq[list(y)] += 1
    freq /= n
    target = eta.mean(axis=0)
    sigma = np.sqrt(target * (1 - target) / n)
    assert np.all(np.abs(freq - target) <= 3 * sigma + 1e-12)


def test_synth_d0_constant_eta():
    model = SynthModel(task=multilabel(3), d=0, prior_low=0.2, prior_high=0.5, seed=5)
    stream = synth_generate(model, 10, seed=6)
    priors, _ = model.params()
    for row in stream.truth_rows:
        assert np.allclose(row, priors)


def test_synth_multiclass_normalized():
    model = SynthModel(task=multiclass(4), d=2, seed=8)
    stream = synth_generate(model, 50, seed=9)
    for row in stream.truth_rows:
        assert float(row.sum()) == pytest.approx(1.0)
    for y in stream.labels:
        assert len(y) == 1


def test_perturb_zero_sigma_identity():
    model = SynthModel(task=multilabel(3), seed=1)
    stream = synth_generate(model, 30, seed=2)
    noisy, err = perturb_estimates(stream, 0.0, seed=3)
    assert err == 0.0
    for a, b in zip(noisy.estimates, stream.truth_rows):
        assert np.array_equal(a.dense(), b)


def test_perturb_reports_error_within_clip_bound():
    model = SynthModel(task=multilabel(4), seed=1)
    stream = synth_generate(model, 200, seed=2)
    noisy, err = perturb_estimates(stream, 0.1, seed=3)
    assert 0.0 < err <= 0.1 * np.sqrt(4) * 3  # loose upper bound
    for est in noisy.estimates:
        d = est.dense()
        assert np.all(d >= 0.0) and np.all(d <= 1.0)


def test_perturb_requires_truth():
    stream = InstanceStream(multilabel(1), np.zeros((1, 1)), np.array([[0.5]]))
    with pytest.raises(ValueError):
        perturb_estimates(stream, 0.1, seed=0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_perturb_rejects_a_bad_sigma(sigma):
    stream = synth_generate(SynthModel(task=multilabel(3), seed=1), 10, seed=2)
    with pytest.raises(ValueError, match="noise sigma must be finite and >= 0"):
        perturb_estimates(stream, sigma, seed=0)


def test_shuffle_preserves_multiset_and_alignment():
    model = SynthModel(task=multilabel(3), seed=4)
    stream = synth_generate(model, 40, seed=5)
    mixed = shuffle(stream, seed=6)
    assert sorted(mixed.labels) == sorted(stream.labels)
    # alignment: each label keeps its own estimate row
    orig = {tuple(np.round(e.dense(), 12)): y for y, e in zip(stream.labels, stream.estimates)}
    for y, e in zip(mixed.labels, mixed.estimates):
        assert orig[tuple(np.round(e.dense(), 12))] == y


def test_shuffle_seeded():
    model = SynthModel(task=multilabel(3), seed=4)
    stream = synth_generate(model, 40, seed=5)
    assert shuffle(stream, 1).labels == shuffle(stream, 1).labels
    assert shuffle(stream, 1).labels != shuffle(stream, 2).labels


def test_sparsify_keeps_top_entries():
    model = SynthModel(task=multilabel(10), seed=4)
    stream = synth_generate(model, 20, seed=5)
    sparse = sparsify_estimates(stream, 3)
    for full, cut in zip(stream.estimates, sparse.estimates):
        assert cut.indices.size == 3
        kept = set(cut.values.tolist())
        assert max(full.values) in kept


def test_sparsify_rejects_a_negative_size():
    stream = synth_generate(SynthModel(task=multilabel(3), seed=4), 5, seed=5)
    with pytest.raises(ValueError, match="top-k size must be at least 0"):
        sparsify_estimates(stream, -1)


def test_parse_model_file(tmp_path):
    p = tmp_path / "model.cfg"
    p.write_text("m=7\nd=2\nseed=42\nprior_low=0.1\nprior_high=0.3\nweight_scale=0.5\n")
    model = parse_model_file(p)
    assert model.task.m == 7 and model.d == 2 and model.seed == 42
    p.write_text("nonsense\n")
    with pytest.raises(DataFormatError):
        parse_model_file(p)
    p.write_text("m=7\nseed=-1\n")
    with pytest.raises(DataFormatError, match="seed must be a nonnegative integer, got -1"):
        parse_model_file(p)


@pytest.mark.parametrize("line", ["bogus=1", "prior_lo=0.2"])
def test_parse_model_file_rejects_unknown_keys(tmp_path, line):
    p = tmp_path / "model.cfg"
    p.write_text(f"m=4\n# a comment\n{line}\n")
    key = line.split("=")[0]
    with pytest.raises(DataFormatError, match=f"model.cfg:3: unknown model key '{key}'"):
        parse_model_file(p)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_synth_model_rejects_non_finite_weight_scale(scale):
    with pytest.raises(ValueError, match="weight scale"):
        SynthModel(task=multilabel(3), weight_scale=scale)


EST3 = dataio.ProbEstimate.from_dense(np.array([0.2, 0.5, 0.3]))


@pytest.mark.parametrize("task, labels, msg", [
    (multilabel(3), [(0,), (3,)], r"bad label set \(3,\)"),
    (multilabel(3), [(-1,)], r"bad label set \(-1,\)"),
    (multilabel(3), [(), (2, 1)], r"bad label set \(2, 1\)"),
    (multilabel(3), [(0, 1), (1, 1)], r"bad label set \(1, 1\)"),
    (multilabel(3), [(0.5,)], "integers"),
    (multiclass(3), [(0,), ()], "exactly one class"),
    (multiclass(3), [(0, 1)], "exactly one class"),
    (multiclass(3), [(3,)], r"bad label set \(3,\)"),
])
def test_stream_rejects_bad_label_tuples_at_construction(task, labels, msg):
    # a stream takes label rows only; check_labels is the rule of a tuple
    with pytest.raises(ValueError, match="label_rows must be a numpy array, not list"):
        InstanceStream(task, labels, np.full((len(labels), 3), 0.5))
    with pytest.raises(ValueError, match=msg):
        for y in labels:
            check_labels(task, y)


@pytest.mark.parametrize("task, rows, msg", [
    (multilabel(3), [[0.0, 2.0, 0.0]], "0/1"),
    (multilabel(3), [[0.0, 0.5, 0.0]], "0/1"),
    (multilabel(3), [[0.0, 1.0]], r"\(n, 3\)"),
    (multiclass(3), [[1.0, 1.0, 0.0]], "exactly one class"),
    (multiclass(3), [[0.0, 0.0, 0.0]], "exactly one class"),
])
def test_stream_rejects_bad_label_rows_at_construction(task, rows, msg):
    with pytest.raises(ValueError, match=msg):
        InstanceStream(task, np.array(rows), np.full((1, 3), 0.5))


def test_stream_rejects_estimates_of_another_size():
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        InstanceStream(multilabel(4), np.zeros((1, 4)), EST3.dense()[None])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        InstanceStream(multilabel(3), np.zeros((1, 3)), np.array([[0.5, 1.5, 0.0]]))


@pytest.mark.parametrize("args, name", [
    # at m = 1 the label tuples [(0,), (0,)] would read as the negative rows [[0], [0]]
    (([(0,), (0,)], np.full((2, 1), 0.5)), "label_rows"),
    (([[1.0], [1.0]], np.full((2, 1), 0.5)), "label_rows"),
    ((np.ones((2, 1)), [dataio.ProbEstimate.from_dense([0.5])] * 2), "estimate_rows"),
    ((np.ones((2, 1)), [[0.5], [0.5]]), "estimate_rows"),
    ((np.ones((2, 1)), np.full((2, 1), 0.5), [[True], [True]]), "support"),
    ((np.ones((2, 1)), np.full((2, 1), 0.5), None, [[0.5], [0.5]]), "truth_rows"),
])
def test_stream_takes_only_numpy_columns(args, name):
    with pytest.raises(ValueError, match=f"{name} must be a numpy array, not list"):
        InstanceStream(multilabel(1), *args)


@pytest.mark.parametrize("support, msg", [
    (np.array([[True, False, True]]), "nonzero at a label its support does not list"),
    (np.array([[True, True]]), r"boolean matrix of shape \(1, 3\)"),
    (np.array([[True, True, True]] * 2), r"boolean matrix of shape \(1, 3\)"),
    (np.array([[1, 1, 1]]), r"boolean matrix of shape \(1, 3\)"),
])
def test_stream_rejects_a_bad_support(support, msg):
    with pytest.raises(ValueError, match=msg):
        InstanceStream(multilabel(3), np.zeros((1, 3)), EST3.dense()[None], support)


def test_stream_copies_its_columns():
    y = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    eta = np.array([[0.2, 0.0, 0.3], [0.5, 0.0, 0.1]])
    listed = np.array([[True, False, True], [True, True, True]])
    stream = InstanceStream(multilabel(3), y, eta, listed, eta)
    for given in (y, eta, listed):
        given[...] = 0
    assert stream.label_rows.tolist() == [[1, 0, 1], [0, 0, 0]]
    assert stream.support.tolist() == [[True, False, True], [True, True, True]]
    # truth given as the estimate matrix stays that one matrix
    assert stream.truth_rows is stream.estimate_rows
    assert stream.estimate_rows.tolist() == [[0.2, 0.0, 0.3], [0.5, 0.0, 0.1]]
    # a support that lists every label is stored as None
    full = InstanceStream(multilabel(3), y, eta, np.ones((2, 3), dtype=bool))
    assert full.support is None


def test_stream_columns_and_views():
    task = multilabel(3)
    labels = [(0, 2), (), (1,)]
    estimates = [EST3, dataio.ProbEstimate(3, [1], [0.0]),
                 dataio.ProbEstimate(3, [0, 2], [0.9, 0.1])]
    listed = np.array([[True] * 3, [False, True, False], [True, False, True]])
    stream = InstanceStream(task, np.array([indicator_row(3, y, float) for y in labels]),
                            np.array([est.dense() for est in estimates]), listed)
    assert stream.label_rows.tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 0]]
    assert stream.estimate_rows.tolist() == [[0.2, 0.5, 0.3], [0, 0, 0], [0.9, 0, 0.1]]
    # the listed zero of row 1 stays listed
    assert stream.support.tolist() == [[True] * 3, [False, True, False], [True, False, True]]
    for column in (stream.label_rows, stream.estimate_rows, stream.support):
        assert not column.flags.writeable
    assert stream.labels == labels and stream.truth_rows is None
    for got, want in zip(stream.estimates, estimates):
        assert got.indices.tolist() == want.indices.tolist()
        assert got.values.tolist() == want.values.tolist()
    # views rebuilt from the shuffled columns equal the estimates given
    mixed = shuffle(stream, 0)
    order = [stream.labels.index(y) for y in mixed.labels]
    for got, i in zip(mixed.estimates, order):
        assert got.indices.tolist() == estimates[i].indices.tolist()
        assert got.values.tolist() == estimates[i].values.tolist()
    assert all(type(j) is int for y in mixed.labels for j in y)


@pytest.mark.parametrize("layout", ["F", "strided"])
def test_streams_store_row_major_columns_and_fit_the_row_major_mixture(layout):
    model = SynthModel(task=multilabel(5), seed=3)
    metric = parse_metric("macro-f1")
    for seed in range(3):
        stream = synth_generate(model, 400, seed=seed)
        if layout == "F":
            y, eta = np.asfortranarray(stream.label_rows), np.asfortranarray(stream.estimate_rows)
        else:
            y, eta = (np.repeat(a, 2, axis=0)[::2]
                      for a in (stream.label_rows, stream.estimate_rows))
        other = InstanceStream(model.task, y, eta)
        assert other.label_rows.flags.c_contiguous and other.estimate_rows.flags.c_contiguous
        fits = []
        for s in (stream, other):
            learner = make_learner(LearnerConfig("offline-fw", model.task, metric))
            learner.use_columns(s.estimate_rows, s.label_rows)
            fits.append(learner.mixture.final_cm)
        assert fits[0].tobytes() == fits[1].tobytes()


def test_synth_truth_is_the_estimate_matrix():
    stream = synth_generate(SynthModel(task=multiclass(3), seed=1), 20, seed=2)
    assert stream.truth_rows is stream.estimate_rows and stream.support is None
    assert np.all(stream.label_rows.sum(axis=1) == 1.0)
    noisy, _ = perturb_estimates(stream, 0.1, seed=3)
    assert noisy.truth_rows is stream.truth_rows
    assert noisy.label_rows is stream.label_rows
