import numpy as np
import pytest

from omma import metrics
from omma.confusion import multilabel
from omma.metrics import Metric, list_metrics, min_tn_tp, parse_metric


def finite_difference(metric, C, h=1e-6):
    g = np.zeros_like(C, dtype=float)
    for idx in np.ndindex(C.shape):
        Cp, Cm = C.copy(), C.copy()
        Cp[idx] += h
        Cm[idx] -= h
        g[idx] = (metric.value(Cp) - metric.value(Cm)) / (2.0 * h)
    return g


def max_rel_error(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
    rel = np.abs(analytic - fd) / denom
    rel[(np.abs(analytic) < 1e-12) & (np.abs(fd) < 1e-12)] = 0.0
    return float(rel.max())


def interior_blocks(rng, m):
    """Normalized per-label blocks with every cell at least 0.01."""
    raw = rng.dirichlet(np.ones(4), size=m)
    return (0.01 + 0.96 * raw).reshape(m, 2, 2)


def interior_matrix(rng, m):
    raw = rng.dirichlet(np.ones(m * m))
    return (0.01 + (1.0 - 0.01 * m * m) * raw).reshape(m, m)


def blocks(tn, fp, fn, tp):
    return np.array([[[tn, fp], [fn, tp]]], dtype=float)


# --- frozen hand-computed values


def test_f1_binary_value():
    met = parse_metric("f1", epsilon=0.0)
    assert met.value(blocks(0.5, 0.1, 0.1, 0.3)) == pytest.approx(0.75)


def test_multiclass_accuracy_trace():
    met = parse_metric("mc-accuracy")
    assert met.value(np.array([[0.4, 0.1], [0.2, 0.3]])) == pytest.approx(0.7)


def test_gmean_perfect_classifier():
    met = parse_metric("gmean", epsilon=0.0)
    assert met.value(blocks(0.5, 0.0, 0.0, 0.5)) == pytest.approx(1.0)


def test_macro_f1_equal_blocks():
    met = parse_metric("macro-f1", epsilon=0.0)
    C = np.repeat(blocks(0.5, 0.1, 0.1, 0.3), 2, axis=0)
    assert met.value(C) == pytest.approx(0.75)


def test_f1_gradient_hand_value():
    met = parse_metric("f1", epsilon=0.0)
    g = met.gradient(blocks(0.25, 0.25, 0.25, 0.25))[0]
    assert g[1, 1] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(-0.5)
    assert g[1, 0] == pytest.approx(-0.5)
    assert g[0, 0] == 0.0


def test_precision_gradient_hand_value():
    met = parse_metric("precision", epsilon=0.0)
    g = met.gradient(blocks(0.0, 0.1, 0.0, 0.3))[0]
    assert g[1, 1] == pytest.approx(0.625)
    assert g[0, 1] == pytest.approx(-1.875)
    assert g[0, 0] == 0.0 and g[1, 0] == 0.0


def test_multiclass_accuracy_gradient_identity():
    met = parse_metric("mc-accuracy")
    rng = np.random.default_rng(0)
    C = interior_matrix(rng, 3)
    assert np.array_equal(met.gradient(C), np.eye(3))


# --- gradient vs finite differences, every registered pair


@pytest.mark.parametrize("info", list_metrics(), ids=lambda i: i.name)
def test_gradient_matches_finite_differences(info):
    met = parse_metric(info.name, epsilon=1e-9)
    rng = np.random.default_rng(hash(info.name) % 2**32)
    for _ in range(15):
        if info.averaging == metrics.MULTICLASS_NATIVE:
            C = interior_matrix(rng, 4)
        elif info.averaging == metrics.BINARY:
            C = interior_blocks(rng, 1)
        else:
            C = interior_blocks(rng, 4)
        assert max_rel_error(met.gradient(C), finite_difference(met, C)) <= 1e-5


@pytest.mark.parametrize("name", ["macro-f1", "micro-f1", "macro-gmean", "micro-qmean"])
def test_gradient_through_multiclass_conversion(name):
    """Macro/micro gradients on an (m, m) matrix chain through the conversion."""
    met = parse_metric(name, epsilon=1e-9)
    rng = np.random.default_rng(42)
    for _ in range(10):
        C = interior_matrix(rng, 4)
        assert max_rel_error(met.gradient(C), finite_difference(met, C)) <= 1e-5


def test_min_tn_tp_gradient():
    met = min_tn_tp()
    g = met.gradient(blocks(0.2, 0.3, 0.1, 0.4))[0]
    assert g[0, 0] == 1.0 and g[1, 1] == 0.0  # tn smaller
    g = met.gradient(blocks(0.4, 0.0, 0.0, 0.4))[0]
    assert g[0, 0] == 0.5 and g[1, 1] == 0.5  # tie splits
    rng = np.random.default_rng(12)
    for _ in range(20):
        C = interior_blocks(rng, 1)
        if abs(C[0, 0, 0] - C[0, 1, 1]) < 1e-3:
            continue
        assert max_rel_error(met.gradient(C), finite_difference(met, C)) <= 1e-5


# --- structural invariants


@pytest.mark.parametrize("info", list_metrics(), ids=lambda i: i.name)
def test_finite_everywhere_with_epsilon(info):
    met = parse_metric(info.name, epsilon=1e-9)
    shape = (4, 4) if info.averaging == metrics.MULTICLASS_NATIVE else (
        (1, 2, 2) if info.averaging == metrics.BINARY else (4, 2, 2))
    for C in (np.zeros(shape), np.ones(shape), np.full(shape, 1e-12)):
        assert np.isfinite(met.value(C))
        assert np.all(np.isfinite(met.gradient(C)))


@pytest.mark.parametrize("name", ["f1", "gmean", "hmean", "qmean", "jaccard",
                                  "matthews", "balanced-acc", "recall", "precision"])
def test_macro_micro_agree_on_identical_blocks(name):
    rng = np.random.default_rng(8)
    block = interior_blocks(rng, 1)
    C = np.repeat(block, 5, axis=0)
    macro = parse_metric("macro-" + name)
    micro = parse_metric("micro-" + name)
    single = parse_metric(name)
    assert macro.value(C) == pytest.approx(micro.value(C), abs=1e-12)
    assert macro.value(C) == pytest.approx(single.value(block), abs=1e-12)


@pytest.mark.parametrize("name", ["accuracy", "balanced-acc", "gmean", "hmean", "qmean"])
def test_native_binary_reduction(name):
    """Native m=2 formulas equal the binary ones under the cell identification."""
    rng = np.random.default_rng(4)
    native = parse_metric("mc-" + name)
    binary = parse_metric(name)
    for _ in range(20):
        C = interior_matrix(rng, 2)
        # tn=C00, fp=C01, fn=C10, tp=C11
        cells = blocks(C[0, 0], C[0, 1], C[1, 0], C[1, 1])
        assert native.value(C) == pytest.approx(binary.value(cells), rel=1e-12)


def test_gradient_positive_scaling():
    met = parse_metric("macro-f1")
    rng = np.random.default_rng(2)
    C = interior_blocks(rng, 3)
    g = met.gradient(C)
    scaled = Metric(name="x", base="f_beta", averaging=metrics.MACRO,
                    epsilon=met.epsilon)
    assert np.allclose(3.0 * g, 3.0 * scaled.gradient(C))


def _chord_pair(rng, m):
    """Two normalized block tensors sharing per-label positive mass."""
    pos = rng.uniform(0.05, 0.95, size=m)
    out = []
    for _ in range(2):
        t = rng.random(m)
        u = rng.random(m)
        C = np.empty((m, 2, 2))
        C[:, 1, 1] = pos * t
        C[:, 1, 0] = pos * (1 - t)
        C[:, 0, 1] = (1 - pos) * u
        C[:, 0, 0] = (1 - pos) * (1 - u)
        out.append(C)
    return out


@pytest.mark.parametrize("name", ["macro-accuracy", "macro-balanced-acc", "macro-recall",
                                  "macro-gmean", "macro-hmean", "macro-qmean",
                                  "micro-gmean", "micro-hmean"])
def test_random_chord_concavity(name):
    """Flagged-concave metrics satisfy the chord inequality on matched-marginal pairs."""
    met = parse_metric(name, epsilon=1e-9)
    assert met.concave
    rng = np.random.default_rng(77)
    for _ in range(1000):
        C1, C2 = _chord_pair(rng, 3)
        theta = rng.random()
        mid = theta * C1 + (1 - theta) * C2
        assert met.value(mid) >= theta * met.value(C1) + (1 - theta) * met.value(C2) - 1e-12


def test_micro_f1_not_concave_flag():
    assert parse_metric("micro-f1").concave is False


def test_balanced_accuracy_flags():
    info = parse_metric("balanced-acc")
    assert info.concave and info.smooth


def test_macro_f1_lookup():
    info = parse_metric("macro-f1")
    assert info.base == "f_beta" and info.averaging == metrics.MACRO


# --- name grammar


def test_parse_budget_suffix():
    met = parse_metric("macro-f1@3")
    assert met.budget_k == 3 and met.base == "f_beta" and met.averaging == metrics.MACRO


def test_parse_fbeta():
    met = parse_metric("micro-fbeta:0.5")
    assert met.beta == 0.5 and met.averaging == metrics.MICRO


def test_parse_unknown_metric():
    with pytest.raises(ValueError, match="nosuch"):
        parse_metric("macro-nosuch")


def test_parse_native_restriction():
    with pytest.raises(ValueError):
        parse_metric("mc-f1")


def test_registry_stable_and_complete():
    names = [i.name for i in list_metrics()]
    assert names == [i.name for i in list_metrics()]
    assert "macro-f1" in names and "mc-qmean" in names and "matthews" in names
    assert len(names) == len(set(names))


def test_the_listing_is_parsed_metrics_and_every_metric_has_its_flags():
    for met in list_metrics():
        assert met == parse_metric(met.name)
    # a budget and a beta change neither flag; min(tn, tp) is concave with a kink
    hmean, fbeta, worst = parse_metric("macro-hmean@2"), parse_metric("macro-fbeta:2"), min_tn_tp()
    assert (hmean.concave, hmean.smooth) == (True, True)
    assert (fbeta.concave, fbeta.smooth) == (False, True)
    assert (worst.concave, worst.smooth) == (True, False)


def test_value_shape_mismatch():
    met = parse_metric("mc-gmean")
    with pytest.raises(ValueError):
        met.value(np.zeros((3, 2, 2)))
    binary = parse_metric("f1")
    with pytest.raises(ValueError):
        binary.value(np.zeros((3, 2, 2)))


def test_coefficients_reject_what_has_no_per_label_rule():
    with pytest.raises(ValueError, match="native"):
        parse_metric("mc-gmean").coefficients(np.zeros((3, 2, 2)), multilabel(3))
    with pytest.raises(ValueError, match="single block"):
        parse_metric("f1").coefficients(np.zeros((1, 2, 2)), multilabel(3))
    with pytest.raises(ValueError, match="all m labels"):
        parse_metric("micro-f1").coefficients(np.zeros((2, 2, 2)), multilabel(3))


def test_constant_partials_broadcast_to_every_label():
    alpha, beta = parse_metric("macro-accuracy").coefficients(np.ones((4, 2, 2)), multilabel(4))
    assert np.array_equal(alpha, np.full(4, 0.5)) and np.array_equal(beta, np.full(4, 0.25))
    alpha, beta = parse_metric("macro-recall").coefficients(np.ones((3, 2, 2)), multilabel(3))
    assert alpha.shape == beta.shape == (3,) and np.array_equal(beta, np.zeros(3))
