import argparse
import json

import pytest

from omma import cli, dataio
from omma.cli import _build_parser, _inject_config, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_metrics_listing(capsys):
    code, out, err = run_cli(capsys, "metrics")
    assert code == 0 and err == ""
    assert "macro-f1" in out
    assert "concave" in out.splitlines()[0]
    code2, out2, _ = run_cli(capsys, "metrics")
    assert out2 == out  # stable ordering


def test_unknown_metric_exit_2(capsys):
    code, out, err = run_cli(capsys, "run", "--metric", "macro-bogus", "--alg", "omma",
                             "--m", "3", "--n", "10", "--out", "/tmp/x")
    assert code == 2
    assert "macro-bogus" in err
    assert err.count("\n") == 1


def test_synth_then_run(tmp_path, capsys):
    prefix = str(tmp_path / "data")
    code, _, err = run_cli(capsys, "synth", "--out", prefix, "--n", "40", "--m", "4",
                           "--seed", "3")
    assert code == 0 and err == ""
    assert (tmp_path / "data.labels").exists()
    assert (tmp_path / "data.probs").exists()
    assert (tmp_path / "data.truth").exists()
    assert len((tmp_path / "data.labels").read_text().splitlines()) == 40

    out_dir = tmp_path / "results"
    code, out, err = run_cli(capsys, "run", "--metric", "macro-f1", "--alg", "omma",
                             "--labels", prefix + ".labels", "--probs", prefix + ".probs",
                             "--m", "4", "--lambda", "1e-3", "--runs", "3",
                             "--seed", "7", "--out", str(out_dir))
    assert code == 0 and err == ""
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "report.json", "trace-run0.csv", "trace-run1.csv", "trace-run2.csv"]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["runs"] == 3 and report["metric"] == "macro-f1"
    assert report["psi_star"] is None


def test_synth_reproducible_bytes(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(capsys, "synth", "--out", a, "--n", "25", "--m", "3", "--seed", "5")
    run_cli(capsys, "synth", "--out", b, "--n", "25", "--m", "3", "--seed", "5")
    for ext in (".labels", ".probs", ".truth"):
        assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()


def test_synth_noise_perturbs(tmp_path, capsys):
    prefix = str(tmp_path / "noisy")
    code, out, _ = run_cli(capsys, "synth", "--out", prefix, "--n", "20", "--m", "3",
                           "--seed", "5", "--noise", "0.1")
    assert code == 0
    assert "estimation error" in out
    probs = (tmp_path / "noisy.probs").read_text()
    truth = (tmp_path / "noisy.truth").read_text()
    assert probs != truth


def test_run_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["run", "--metric", "macro-f1@2", "--alg", "omma", "--m", "4", "--n", "60",
            "--lambda", "1e-3", "--runs", "2", "--seed", "11"]
    assert run_cli(capsys, *argv, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(out2))[0] == 0
    for name in ("report.json", "trace-run0.csv", "trace-run1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_budget_parsed_from_metric_name(tmp_path, capsys):
    out = tmp_path / "g"
    code, _, err = run_cli(capsys, "run", "--metric", "macro-f1@3", "--alg", "greedy",
                           "--m", "5", "--n", "30", "--seed", "2", "--out", str(out))
    assert code == 0 and err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["budget_k"] == 3


def test_adversarial_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "adversarial", "--n", "100")
    assert code == 2 and "divisible" in err


def test_adversarial_output_bounds(tmp_path, capsys):
    code, out, err = run_cli(capsys, "adversarial", "--n", "60", "--runs", "2",
                             "--seed", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert "opt_bound_seq1" in payload and "opt_bound_seq2" in payload
    assert payload["max_regret"] == max(payload["regret_seq1"], payload["regret_seq2"])
    code2, out2, _ = run_cli(capsys, "adversarial", "--n", "60", "--runs", "2",
                             "--seed", "1")
    assert out2 == out


def test_regret_command(tmp_path, capsys):
    out = tmp_path / "reg"
    code, text, err = run_cli(capsys, "regret", "--metric", "macro-accuracy",
                              "--alg", "omma", "--n-grid", "200,400", "--runs", "2",
                              "--m", "3", "--seed", "4", "--n-opt", "20000",
                              "--opt-method", "threshold-grid",
                              "--lambda-grid", "0,1e-3", "--out", str(out))
    assert code == 0 and err == ""
    lines = text.strip().splitlines()
    assert lines[1] == "lambda,n,psi_mean,psi_std,regret_hat,regret*n/ln(n)"
    assert len(lines) == 2 + 4  # header rows + 2 lambdas x 2 n values
    reports = sorted(p.name for p in out.iterdir())
    assert len(reports) == 4
    data = json.loads((out / reports[0]).read_text())
    assert data["psi_star"] is not None and data["regret_hat"] is not None


def test_missing_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "--metric", "macro-f1", "--alg", "omma",
                           "--out", "/tmp/nothing")
    assert code == 2 and err


def test_data_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.labels"
    bad.write_text("not-a-label\n")
    probs = tmp_path / "bad.probs"
    probs.write_text("0:0.5\n")
    code, _, err = run_cli(capsys, "run", "--metric", "macro-f1", "--alg", "omma",
                           "--labels", str(bad), "--probs", str(probs), "--m", "3",
                           "--out", str(tmp_path / "o"))
    assert code == 3 and "bad.labels:1" in err


def test_empty_multiclass_label_line_is_a_data_error_with_its_line(tmp_path, capsys):
    labels = tmp_path / "a.labels"
    labels.write_text("0\n\n1\n")
    probs = tmp_path / "a.probs"
    probs.write_text("0:1\n" * 3)
    code, out, err = run_cli(capsys, "run", "--metric", "macro-f1", "--alg", "omma",
                             "--task", "multiclass", "--labels", str(labels),
                             "--probs", str(probs), "--m", "2", "--out", str(tmp_path / "o"))
    assert code == 3 and out == ""
    assert err == f"data error: {labels}:2: multiclass labels must contain exactly one class\n"


def test_missing_file_exit_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--metric", "macro-f1", "--alg", "omma",
                           "--labels", str(tmp_path / "nope.labels"),
                           "--probs", str(tmp_path / "nope.probs"), "--m", "3",
                           "--out", str(tmp_path / "o"))
    assert code == 3


def test_greedy_micro_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--metric", "micro-f1", "--alg", "greedy",
                           "--m", "3", "--n", "20", "--seed", "1",
                           "--out", str(tmp_path / "o"))
    assert code == 2 and "greedy" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("metric=macro-f1\nm=4\nn=40\nlambda=1e-3\nseed=9\nruns=2\n")
    out1 = tmp_path / "o1"
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--alg", "omma",
                           "--out", str(out1))
    assert code == 0 and err == ""
    report = json.loads((out1 / "report.json").read_text())
    assert report["metric"] == "macro-f1" and report["runs"] == 2

    # explicit flag beats the config value
    out2 = tmp_path / "o2"
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--alg", "omma",
                         "--runs", "1", "--out", str(out2))
    assert code == 0
    assert json.loads((out2 / "report.json").read_text())["runs"] == 1

    cfg.write_text("bogus=1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--alg", "omma",
                           "--metric", "macro-f1", "--m", "3", "--n", "10",
                           "--out", str(tmp_path / "o3"))
    assert code == 2 and "bogus" in err


def test_multiclass_synth_and_run(tmp_path, capsys):
    prefix = str(tmp_path / "mc")
    code, _, err = run_cli(capsys, "synth", "--out", prefix, "--n", "50", "--m", "4",
                           "--task", "multiclass", "--seed", "3")
    assert code == 0 and err == ""
    out = tmp_path / "res"
    code, _, err = run_cli(capsys, "run", "--metric", "mc-gmean", "--alg", "omma",
                           "--labels", prefix + ".labels", "--probs", prefix + ".probs",
                           "--task", "multiclass", "--m", "4", "--lambda", "1e-3",
                           "--seed", "1", "--out", str(out))
    assert code == 0 and err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["averaging"] == "multiclass"


def test_noisy_multiclass_estimates_stay_distributions(tmp_path, capsys):
    # at noise 2 some rows clip to all zeros; they are written as uniform rows
    prefix = str(tmp_path / "s")
    code, _, err = run_cli(capsys, "synth", "--task", "multiclass", "--m", "3", "--n", "300",
                           "--noise", "2", "--seed", "1", "--out", prefix)
    assert code == 0 and err == ""
    rows = [line.split() for line in (tmp_path / "s.probs").read_text().splitlines()]
    assert ["0:0.333333", "1:0.333333", "2:0.333333"] in rows
    code, _, err = run_cli(capsys, "run", "--labels", prefix + ".labels",
                           "--probs", prefix + ".probs", "--m", "3", "--task", "multiclass",
                           "--metric", "mc-qmean", "--alg", "omma", "--out", str(tmp_path / "o"))
    assert code == 0 and err == ""


def test_multiclass_metric_on_multilabel_stream_rejected(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--metric", "mc-gmean", "--alg", "omma",
                           "--m", "4", "--n", "20", "--seed", "1",
                           "--out", str(tmp_path / "o"))
    assert code == 2 and "multiclass" in err


def test_jobs_parallel_identical_outputs(tmp_path, capsys):
    argv = ["run", "--metric", "macro-hmean", "--alg", "omma", "--m", "4", "--n", "60",
            "--lambda", "1e-3", "--runs", "3", "--seed", "21"]
    assert run_cli(capsys, *argv, "--jobs", "1", "--out", str(tmp_path / "s"))[0] == 0
    assert run_cli(capsys, *argv, "--jobs", "2", "--out", str(tmp_path / "p"))[0] == 0
    for name in ("report.json", "trace-run0.csv", "trace-run1.csv", "trace-run2.csv"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


def test_run_shuffles_each_stream_after_the_previous_run(tmp_path, capsys, monkeypatch):
    """``omma run`` holds one shuffled stream at a time: each run's shuffle
    comes after the previous run returned."""
    log = []
    shuffle, run_online = cli.dataio.shuffle, cli.evaluation.run_online

    def logged_shuffle(stream, seed):
        log.append(("shuffle", seed))
        return shuffle(stream, seed)

    def logged_run(stream, cfg, *args):
        log.append(("run", cfg.seed))
        trace = run_online(stream, cfg, *args)
        log.append(("returned", cfg.seed))
        return trace

    monkeypatch.setattr(cli.dataio, "shuffle", logged_shuffle)
    monkeypatch.setattr(cli.evaluation, "run_online", logged_run)
    assert run_cli(capsys, "run", "--metric", "macro-f1", "--alg", "omma", "--m", "3",
                   "--n", "20", "--runs", "3", "--seed", "4",
                   "--out", str(tmp_path / "o"))[0] == 0
    assert log == [(event, seed) for seed in (4, 5, 6)
                   for event in ("shuffle", "run", "returned")]


def _report(tmp):
    return json.loads((tmp / "o" / "report.json").read_text())


RUN_M3 = ["run", "--metric", "macro-f1", "--alg", "omma", "--m", "3", "--n", "30",
          "--out", "{tmp}/o"]
SYNTH_N3 = ["synth", "--out", "{tmp}/s", "--n", "3"]
REGRET_M3 = ["regret", "--metric", "macro-f1", "--alg", "omma", "--n-grid", "20",
             "--runs", "1", "--m", "3", "--n-opt", "100"]


# warnings are errors, so a row that prints a numpy warning to stderr fails
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, error, check", [
    (["adversarial", "--n", "60", "--runs", "2", "--alg", "topk"], 2, "error: topk",
     None),
    (["adversarial", "--n", "60", "--runs", "2", "--alg", "offline-fw"], 0, None,
     lambda out, tmp: json.loads(out)["algorithm"] == "offline-fw"),
    ([*RUN_M3, "--config"], 2, "error: --config needs a path", None),
    ([*RUN_M3, "--config="], 2, "error: --config needs a path", None),
    # no flag sets lambda or runs, so the report shows the file's values
    (["run", "--alg", "omma", "--out", "{tmp}/o", "--config={tmp}/exp.cfg"], 0, None,
     lambda out, tmp: (_report(tmp)["lambda"], _report(tmp)["runs"]) == (0.5, 2)),
    ([*SYNTH_N3[:-1], "-5"], 2, "error: --n must be at least 1", None),
    ([*SYNTH_N3, "--m", "0"], 2, "error: need at least one label", None),
    ([*SYNTH_N3, "--prior-low", "0.9", "--prior-high", "0.1"], 2, "error: priors", None),
    ([*SYNTH_N3, "--noise", "nan"], 2, "error: --noise must be", None),
    ([*SYNTH_N3, "--weight-scale", "nan"], 2, "error: weight scale must be finite", None),
    # errors raised by the library (a flag given again later wins)
    ([*RUN_M3, "--metric", "macro-f1@9", "--m", "5"], 2, "error: budget 9 exceeds", None),
    ([*RUN_M3, "--lambda", "-1"], 2, "error: regularizer must be", None),
    ([*RUN_M3, "--alg", "ofw", "--fw-iters", "0"], 2, "error: need at least one", None),
    ([*RUN_M3, "--metric", "f1", "--m", "5"], 2, "error: binary averaging", None),
    ([*RUN_M3, "--m", "-1", "--n", "10"], 2, "error: need at least one label", None),
    ([*REGRET_M3, "--n-grid", "0"], 2, "error: every sequence length", None),
    # argparse errors
    (["run", "--alg", "omma", "--m", "3", "--n", "30", "--out", "{tmp}/o"], 2,
     "error: the following arguments are required: --metric", None),
    ([*RUN_M3, "--runs", "abc"], 2, "error: argument --runs: invalid int value", None),
    # out-of-range counts and non-finite numbers
    ([*RUN_M3, "--epsilon", "nan"], 2, "error: epsilon must be finite", None),
    ([*RUN_M3, "--epsilon", "inf"], 2, "error: epsilon must be finite", None),
    ([*RUN_M3, "--metric", "macro-fbeta:nan"], 2, "error: beta must be finite", None),
    ([*RUN_M3, "--lambda", "nan"], 2, "error: regularizer must be finite", None),
    ([*RUN_M3, "--lambda", "inf"], 2, "error: regularizer must be finite", None),
    ([*RUN_M3, "--kprime", "0"], 2, "error: the sparse top-k' size", None),
    ([*RUN_M3, "--fw-iters", "0"], 2, "error: need at least one Frank-Wolfe", None),
    ([*RUN_M3, "--stride", "0"], 2, "error: checkpoint stride", None),
    ([*RUN_M3, "--runs", "0"], 2, "error: --runs must be at least 1", None),
    ([*RUN_M3, "--jobs", "0"], 2, "error: --jobs must be at least 1", None),
    ([*RUN_M3, "--jobs", "-2"], 2, "error: --jobs must be at least 1", None),
    ([*REGRET_M3, "--jobs", "0"], 2, "error: --jobs must be at least 1", None),
    ([*REGRET_M3, "--runs", "0"], 2, "error: need at least one run", None),
    ([*REGRET_M3, "--n-opt", "0"], 2, "error: the optimum needs", None),
    (["adversarial", "--n", "0"], 2, "error: sequence length must be positive", None),
    (["adversarial", "--n", "-6"], 2, "error: sequence length must be positive", None),
    (["adversarial", "--n", "60", "--runs", "0"], 2, "error: need at least one run",
     None),
    # the sigmoid overflows to its exact limit without a warning
    ([*SYNTH_N3, "--m", "3", "--task", "multiclass", "--weight-scale", "1e300"], 0,
     None, lambda out, tmp: out.startswith("wrote 3 instances")),
    # so do the latent logits; only inf - inf and an all-zero class row have no limit
    ([*SYNTH_N3, "--n", "50", "--m", "3", "--weight-scale", "1e308"], 0, None,
     lambda out, tmp: out.startswith("wrote 50 instances")),
    ([*SYNTH_N3, "--n", "50", "--m", "3", "--task", "multiclass", "--weight-scale",
      "1e300"], 2, "error: weight scale too large: 1e+300 underflows", None),
    ([*SYNTH_N3, "--n", "50", "--m", "3", "--task", "multiclass", "--weight-scale",
      "1e308"], 2, "error: weight scale too large: 1e+308 underflows", None),
    ([*SYNTH_N3, "--n", "50", "--m", "3", "--d", "2", "--seed", "1", "--weight-scale",
      "1.7e308"], 2, "error: weight scale too large: 1.7e+308 gives an undefined", None),
    # 0 / 0 raises in the command and in pool workers alike
    ([*RUN_M3, "--metric", "macro-precision", "--epsilon", "0"], 2,
     "error: invalid value encountered in divide", None),
    ([*RUN_M3, "--metric", "macro-precision", "--epsilon", "0", "--runs", "2", "--jobs",
      "2"], 2, "error: invalid value encountered in divide", None),
    ([*REGRET_M3, "--metric", "macro-precision", "--epsilon", "0"], 2,
     "error: invalid value encountered in divide", None),
    # a budget above m is rejected for every algorithm, topk included
    ([*RUN_M3, "--metric", "macro-f1@9", "--alg", "topk", "--m", "5"], 2,
     "error: budget 9 exceeds", None),
    # the regularizer is checked for every algorithm, not only those that keep
    # a confusion state
    ([*RUN_M3, "--alg", "thresh05", "--lambda", "-5"], 2, "error: regularizer must be",
     None),
    ([*RUN_M3, "--alg", "ofw", "--lambda", "inf"], 2, "error: regularizer must be", None),
    (["adversarial", "--n", "12", "--runs", "1", "--alg", "thresh05", "--lambda", "-1"],
     2, "error: regularizer must be", None),
    (["adversarial", "--n", "12", "--runs", "1", "--alg", "ofw", "--lambda", "nan"], 2,
     "error: regularizer must be", None),
    ([*REGRET_M3, "--alg", "ofw-eta", "--n-grid", "10", "--lambda", "-2"], 2,
     "error: regularizer must be", None),
    # a positive epsilon below the floor would underflow when squared
    ([*RUN_M3, "--epsilon", "1e-200"], 2, "error: epsilon must be 0 or at least 1e-100",
     None),
    # a top-k' size below the budget is rejected before the first step, also
    # for the algorithms that do not read it
    ([*RUN_M3, "--metric", "macro-f1@2", "--kprime", "1"], 2,
     "error: the sparse top-k' size 1 is below the budget 2", None),
    ([*RUN_M3, "--metric", "macro-f1@2", "--kprime", "1", "--alg", "greedy"], 2,
     "error: the sparse top-k' size 1 is below the budget 2", None),
    # a native multiclass metric on a multilabel task is rejected by the library
    # before any step, in run and in regret alike
    ([*RUN_M3, "--metric", "mc-hmean"], 2, "error: mc-hmean needs a multiclass stream",
     None),
    ([*REGRET_M3, "--metric", "mc-hmean", "--n-grid", "10", "--n-opt", "10"], 2,
     "error: mc-hmean needs a multiclass stream", None),
    # a synthetic stream length is checked as synth checks it
    ([*RUN_M3, "--n", "-5"], 2, "error: --n must be at least 1", None),
    ([*RUN_M3, "--n", "0"], 2, "error: --n must be at least 1", None),
    # a run reads one stream source: files, or a synthetic model, not both
    ([*RUN_M3, "--labels", "{tmp}/none.labels", "--probs", "{tmp}/none.probs"], 2,
     "error: give --labels/--probs or --model/--n, not both", None),
    (["run", "--metric", "macro-f1", "--alg", "omma", "--model", "{tmp}/none.model",
      "--probs", "{tmp}/none.probs", "--out", "{tmp}/o"], 2,
     "error: give --labels/--probs or --model/--n, not both", None),
    # only omma and omma-eta have a sparse top-k' path
    ([*RUN_M3, "--alg", "greedy", "--kprime", "2"], 2,
     "error: greedy has no sparse top-k' path", None),
    # empty stream files hold no instance to run: a data error
    (["run", "--labels", "{tmp}/empty.labels", "--probs", "{tmp}/empty.probs", "--m", "3",
      "--metric", "macro-f1", "--alg", "omma", "--out", "{tmp}/o"], 3,
     "data error:", None),
    # beyond these bounds a run overflowed partway through
    ([*RUN_M3, "--metric", "macro-fbeta:1e77"], 2, "error: beta must be at most 1e+30", None),
    ([*RUN_M3, "--metric", "macro-matthews", "--lambda", "1e77"], 2,
     "error: regularizer must be at most 1e+50", None),
    # a seed names its setting, not numpy's message
    ([*RUN_M3, "--seed", "-1"], 2, "error: seed must be a nonnegative integer, got -1",
     None),
    ([*REGRET_M3, "--seed", "-1"], 2, "error: seed must be a nonnegative integer, got -1",
     None),
    # int() and float() read "1_0" as 10 and other scripts' digits; a stream
    # file holds ASCII digits only (each line would parse at m = 12)
    (["run", "--labels", "{tmp}/under.labels", "--probs", "{tmp}/ok.probs", "--m", "12",
      "--metric", "macro-f1", "--alg", "omma", "--out", "{tmp}/o"], 3,
     "data error: {tmp}/under.labels:2: bad label line '1_0'", None),
    (["run", "--labels", "{tmp}/ok.labels", "--probs", "{tmp}/under.probs", "--m", "12",
      "--metric", "macro-f1", "--alg", "omma", "--out", "{tmp}/o"], 3,
     "data error: {tmp}/under.probs:2: malformed pair '1_1:0.2'", None),
    (["run", "--labels", "{tmp}/ok.labels", "--probs", "{tmp}/digits.probs", "--m", "12",
      "--metric", "macro-f1", "--alg", "omma", "--out", "{tmp}/o"], 3,
     "data error: {tmp}/digits.probs:1: malformed pair", None),
    # --m 0 is a label count like --m -1, not a missing one
    ([*RUN_M3, "--m", "0"], 2, "error: need at least one label", None),
    (["run", "--labels", "{tmp}/ok.labels", "--probs", "{tmp}/ok.probs", "--m", "0",
      "--metric", "macro-f1", "--alg", "omma", "--out", "{tmp}/o"], 2,
     "error: need at least one label", None),
])
def test_exit_code_and_one_stderr_line(tmp_path, capsys, argv, code, error, check):
    (tmp_path / "exp.cfg").write_text("metric=macro-f1\nm=3\nn=30\nlambda=0.5\nruns=2\n")
    (tmp_path / "empty.labels").write_text("")
    (tmp_path / "empty.probs").write_text("")
    (tmp_path / "ok.labels").write_text("0\n1\n")
    (tmp_path / "ok.probs").write_text("0:0.5\n1:0.5\n")
    (tmp_path / "under.labels").write_text("0\n1_0\n")
    (tmp_path / "under.probs").write_text("0:0.5\n1_1:0.2\n")
    (tmp_path / "digits.probs").write_text("0:\u0660.5\n1:0.5\n", encoding="utf-8")
    got, out, err = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert got == code
    if error is None:
        assert err == "" and check(out, tmp_path)
    else:
        assert err.startswith(error.format(tmp=tmp_path)) and err.count("\n") == 1


def test_out_of_memory_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.64 TiB for an array with shape "
                          "(5, 100000000000) and data type float64")

    monkeypatch.setattr(dataio, "synth_generate", too_large)
    code, out, err = run_cli(capsys, "synth", "--m", "3", "--n", "5", "--out",
                             str(tmp_path / "s"), "--d", "100000000000")
    assert code == 2 and out == ""
    assert err == ("error: out of memory: Unable to allocate 3.64 TiB for an array with "
                   "shape (5, 100000000000) and data type float64\n")


# the default --n-opt makes estimate_optimal take seconds: a count that is
# checked only after it has run prints psi_star to stdout first
@pytest.mark.parametrize("flags, error", [
    (["--n-grid", "0"], "error: every sequence length"),
    (["--n-grid", "20,-3"], "error: every sequence length"),
    (["--n-grid", ","], "error: --n-grid needs at least one"),
    (["--lambda-grid", ","], "error: --lambda-grid needs at least one"),
    (["--runs", "0"], "error: need at least one run"),
    (["--jobs", "0"], "error: --jobs must be at least 1"),
    (["--lambda", "-2"], "error: regularizer must be"),
    (["--lambda-grid", "0,-2"], "error: regularizer must be"),
    (["--epsilon", "1e-200"], "error: epsilon must be 0 or at least 1e-100"),
    # the learner settings too (a flag given again later wins)
    (["--alg", "thresh05", "--task", "multiclass"],
     "error: thresh05 applies to multilabel tasks only"),
    (["--alg", "greedy", "--metric", "micro-f1"],
     "error: greedy supports macro/binary metrics, not micro"),
    (["--alg", "topk"], "error: topk needs a budget on multilabel tasks"),
    (["--metric", "macro-f1@9"], "error: budget 9 exceeds the 3 labels"),
])
def test_regret_rejects_counts_before_any_work(capsys, flags, error):
    code, out, err = run_cli(capsys, "regret", "--metric", "macro-f1", "--alg", "omma",
                             "--n-grid", "20", "--runs", "1", "--m", "3", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(error) and err.count("\n") == 1


def test_failed_run_writes_no_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--metric", "macro-precision", "--alg", "omma",
                           "--m", "3", "--n", "30", "--epsilon", "0",
                           "--out", str(tmp_path / "o"))
    assert code == 2 and err.count("\n") == 1
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_every_run_flag_is_a_config_key(tmp_path, capsys):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = [opt for action in sub.choices["run"]._actions for opt in action.option_strings
             if opt.startswith("--") and opt not in ("--help", "--config")]
    assert {"--metric", "--lambda", "--fw-deterministic", "--jobs"} <= set(flags)
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{flag[2:]}=1\n" for flag in flags))
    argv = _inject_config(["run", f"--config={cfg}"])
    assert all(flag in argv for flag in flags)
    (tmp_path / "help.cfg").write_text("help=1\n")
    code, out, err = run_cli(capsys, "run", f"--config={tmp_path / 'help.cfg'}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown config key 'help'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value, on", [("1", True), ("TRUE", True), ("Yes", True),
                                       ("0", False), ("false", False), ("NO", False)])
def test_config_booleans_take_yes_or_no_in_any_case(tmp_path, value, on):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"fw_deterministic={value}\n")
    assert ("--fw-deterministic" in _inject_config(["run", f"--config={cfg}"])) == on


def test_a_config_boolean_that_is_neither_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("metric=macro-f1\nfw_deterministic=ture\n")
    code, out, err = run_cli(capsys, "run", "--alg", "ofw", "--m", "3", "--n", "30",
                             "--out", str(tmp_path / "o"), f"--config={cfg}")
    assert code == 2 and out == ""
    assert err == (f"error: {cfg}:2: fw-deterministic takes 1/true/yes or 0/false/no, "
                   "not 'ture'\n")
