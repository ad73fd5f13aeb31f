"""Smoke test of tools/steps.py: every stage is timed, the whole-stream run
included, in text and JSON output, alone and side by side with a checkout
(here its own)."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_ROOT, "tools", "steps.py")
_SPEC = importlib.util.spec_from_file_location("steps", _PATH)
steps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(steps)

STAGES = ["normalized", "coefficients", "decision", "add", "step", "run", "overhead"]


@pytest.mark.parametrize("args", [
    ["--metric", "micro-f1", "--m", "3"],
    ["--metric", "mc-qmean", "--task", "multiclass", "--m", "4", "--alg", "omma-eta"],
    ["--metric", "macro-f1@2", "--m", "4", "--alg", "greedy"],
    ["--metric", "min-tn-tp", "--m", "1"],
])
def test_every_stage_gets_a_positive_time(capsys, args):
    assert steps.main([*args, "--n", "20", "--calls", "3", "--rounds", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["us_per_call"]) == sorted(STAGES)
    assert all(us > 0.0 for us in out["us_per_call"].values())


def test_the_text_output_names_the_setting_and_each_stage(capsys):
    assert steps.main(["--n", "10", "--calls", "2", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("omma macro-f1 multilabel m=5: fastest of 1 rounds")
    assert [line.split()[0] for line in lines[1:]] == STAGES


def test_a_setting_the_library_rejects_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        steps.main(["--metric", "mc-qmean", "--task", "multilabel", "--calls", "1"])
    assert exc.value.code == 2
    assert "needs a multiclass stream" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--metric", "macro-gmean", "--m", "3"],
    ["--metric", "min-tn-tp", "--m", "1", "--alg", "omma-eta"],
    ["--metric", "mc-qmean", "--task", "multiclass", "--m", "4"],
])
def test_against_a_checkout_reports_both_sides_of_every_stage(capsys, args):
    argv = [*args, "--n", "20", "--calls", "2", "--rounds", "4", "--against", _ROOT]
    assert steps.main([*argv, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["against"] == _ROOT and sorted(out["stages"]) == sorted(STAGES)
    # the whole-stream run is timed on both sides, once per round
    run = out["stages"]["run"]
    assert run["this_best"] > 0.0 and run["other_best"] > 0.0 and run["rounds"] == 4
    for stage in out["stages"].values():
        assert all(stage[k] > 0.0 for k in ("this_best", "other_best", "this_median",
                                             "other_median", "ratio_best", "ratio_median"))
        assert 0 <= stage["wins"] <= stage["rounds"] == 4
    assert steps.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:]] == STAGES


def test_against_a_path_without_the_package_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        steps.main(["--against", str(tmp_path), "--calls", "1"])
    assert exc.value.code == 2
    assert "no src/omma package" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--kernel", "coefficients", "--metric", "micro-f1", "--m", "3"],
    ["--kernel", "coefficients", "--stack", "3", "--metric", "mc-qmean", "--task", "multiclass",
     "--m", "4"],
    ["--kernel", "fw_fit", "--metric", "macro-f1", "--task", "multiclass", "--m", "4",
     "--iterations", "3"],
    ["--kernel", "fw_fit", "--stack", "2", "--metric", "macro-hmean", "--m", "3",
     "--iterations", "2"],
    ["--kernel", "batch_counts", "--metric", "min-tn-tp", "--m", "1"],
])
def test_a_kernel_against_a_checkout_reports_both_sides(capsys, args):
    argv = [*args, "--n", "20", "--calls", "2", "--rounds", "2", "--against", _ROOT]
    assert steps.main([*argv, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    kernel = args[1]
    assert out["kernel"] == kernel and sorted(out["stages"]) == sorted([kernel, "overhead"])
    for stage in out["stages"].values():
        assert all(stage[k] > 0.0 for k in ("this_best", "other_best", "this_median",
                                             "other_median", "ratio_best", "ratio_median"))
        assert 0 <= stage["wins"] <= stage["rounds"] == 2
    assert steps.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{kernel} ")
    assert [line.split()[0] for line in lines[2:]] == [kernel, "overhead"]


def test_a_kernel_alone_and_its_bounds(capsys):
    assert steps.main(["--kernel", "batch_counts", "--n", "10", "--calls", "2", "--rounds",
                       "1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["us_per_call"]) == ["batch_counts", "overhead"]
    for bad in (["--stack", "0"], ["--stack", "11"], ["--iterations", "0"]):
        with pytest.raises(SystemExit) as exc:
            steps.main(["--kernel", "fw_fit", "--n", "10", *bad])
        assert exc.value.code == 2
