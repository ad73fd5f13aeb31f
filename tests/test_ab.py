"""The statistics and the run order of tools/ab.py, on canned perfbench results."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab.py")
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPECS = {"wall_s": ab.Spec("lower", 0.25), "omma_ips": ab.Spec("higher", 0.25),
         "peak_rss_mb": ab.Spec("lower", 0.1)}


def runs(**columns):
    """Per-run metric dicts from one list of values per metric."""
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def test_spread_is_the_median_and_inclusive_quartiles():
    assert ab.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0, 4.0)
    assert ab.spread([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.75, 3.25)
    assert ab.spread([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_is_claimed_in_the_better_direction():
    parent = runs(wall_s=[0.10, 0.11, 0.09, 0.10, 0.12, 0.10, 0.11, 0.10, 0.09, 0.10],
                  omma_ips=[100, 101, 99, 100, 102, 100, 98, 100, 101, 100])
    change = runs(wall_s=[0.06, 0.07, 0.06, 0.06, 0.06, 0.12, 0.06, 0.05, 0.06, 0.06],
                  omma_ips=[150, 151, 149, 150, 152, 150, 148, 150, 151, 150])
    rows = {r.name: r for r in ab.compare(parent, change, SPECS)}
    wall = rows["wall_s"]
    # pair 6 is a loss: 9 of 10
    assert (wall.wins, wall.pairs) == (9, 10)
    assert wall.parent.median == 0.10 and wall.change.median == 0.06
    assert wall.gap == pytest.approx(-0.04)
    assert wall.beyond_iqr and wall.claimed
    ips = rows["omma_ips"]
    assert (ips.wins, ips.gap, ips.claimed) == (10, 50.0, True)


def test_ties_win_nothing_and_a_gap_inside_the_iqr_claims_nothing():
    parent = runs(wall_s=[1.0, 2.0, 3.0, 4.0, 5.0], omma_ips=[10, 10, 10, 10, 10])
    change = runs(wall_s=[0.5, 1.5, 2.5, 3.5, 4.5], omma_ips=[10, 10, 10, 10, 10])
    rows = {r.name: r for r in ab.compare(parent, change, SPECS)}
    # every pair won, but a 0.5 gap against a parent IQR of 2.0
    assert rows["wall_s"].wins == 5 and not rows["wall_s"].beyond_iqr
    assert not rows["wall_s"].claimed
    assert rows["omma_ips"].wins == 0 and not rows["omma_ips"].claimed


def test_a_gap_in_the_worse_direction_is_never_beyond_the_iqr():
    parent = runs(peak_rss_mb=[40.0, 40.0, 40.0])
    change = runs(peak_rss_mb=[44.0, 44.0, 44.0])
    (row,) = ab.compare(parent, change, SPECS)
    assert row.gap == 4.0 and row.wins == 0 and not row.beyond_iqr


def test_metrics_without_a_direction_are_skipped_and_sides_must_pair():
    parent = runs(wall_s=[1.0], error_rate=[0.0])
    change = runs(wall_s=[0.5], error_rate=[0.0])
    assert [r.name for r in ab.compare(parent, change, SPECS)] == ["wall_s"]
    with pytest.raises(ValueError):
        ab.compare(parent, change + change, SPECS)
    with pytest.raises(ValueError):
        ab.compare([], [], SPECS)


def test_main_alternates_sides_and_fails_on_an_incorrect_run(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        wall = 0.1 if checkout == "P" else 0.05
        correct = not (checkout == "C" and len(calls) == 3)
        return {"correct": correct, "failed": 0, "metrics": {"wall_s": wall}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    monkeypatch.setattr(ab, "end_to_end", lambda checkout: SPECS)
    code = ab.main(["P", "C", "--workload", "w", "--pairs", "3", "--seconds", "1"])
    assert calls == ["P", "C", "C", "P", "P", "C"]
    out, err = capsys.readouterr()
    assert "wins 3/3  within bound (bound 0.25)" in out and out.endswith(": claimed\n")
    assert code == 1 and err.startswith("error: 1 of 6 runs were not correct")


def test_json_holds_the_settings_and_every_row(monkeypatch, tmp_path):
    def fake_run(checkout, workload, seed, seconds):
        wall = 0.1 if checkout == "P" else 0.05
        return {"correct": True, "failed": 0, "metrics": {"wall_s": wall, "peak_rss_mb": 40.0}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    monkeypatch.setattr(ab, "end_to_end", lambda checkout: SPECS)
    path = tmp_path / "ab.json"
    code = ab.main(["P", "C", "--workload", "w", "--seed", "7", "--pairs", "2",
                    "--seconds", "1", "--json", str(path)])
    assert code == 0
    got = json.loads(path.read_text(encoding="utf-8"))
    rows = got.pop("rows")
    assert got == {"workload": "w", "seed": 7, "seconds": 1.0, "pairs": 2,
                   "incorrect_runs": 0}
    assert rows == [
        {"name": "wall_s", "better": "lower", "bound": 0.25,
         "parent": {"median": 0.1, "q1": 0.1, "q3": 0.1},
         "change": {"median": 0.05, "q1": 0.05, "q3": 0.05},
         "wins": 2, "gap": -0.05, "parent_iqr": 0.0, "claimed": True,
         "regression": "within bound"},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1,
         "parent": {"median": 40.0, "q1": 40.0, "q3": 40.0},
         "change": {"median": 40.0, "q1": 40.0, "q3": 40.0},
         "wins": 0, "gap": 0.0, "parent_iqr": 0.0, "claimed": False,
         "regression": "within bound"}]


def verdicts(parent, change):
    return {r.name: r.regression for r in ab.compare(parent, change, SPECS)}


def test_a_median_worse_by_more_than_the_bound_is_beyond_it():
    parent = runs(wall_s=[1.0] * 5, omma_ips=[100] * 5, peak_rss_mb=[40.0] * 5)
    change = runs(wall_s=[1.3] * 5, omma_ips=[70] * 5, peak_rss_mb=[44.5] * 5)
    assert verdicts(parent, change) == dict.fromkeys(SPECS, "beyond bound")
    # a loss up to the bound, or any gain, is within it
    change = runs(wall_s=[1.25] * 5, omma_ips=[75] * 5, peak_rss_mb=[30.0] * 5)
    assert verdicts(parent, change) == dict.fromkeys(SPECS, "within bound")


def test_a_parent_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    # quartiles 0.8 and 1.2 around a median of 1.0: an IQR of 0.4 > 0.25
    parent = runs(wall_s=[0.6, 0.8, 1.0, 1.2, 1.4])
    change = runs(wall_s=[0.9, 1.0, 1.1, 1.0, 1.0])
    assert verdicts(parent, change) == {"wall_s": "unresolved"}
    # unless every change run beats every parent run
    change = runs(wall_s=[0.5, 0.55, 0.5, 0.5, 0.59])
    assert verdicts(parent, change) == {"wall_s": "within bound"}
    # a loss beyond the bound is reported as such, however wide the spread
    change = runs(wall_s=[1.3, 1.3, 1.3, 1.3, 1.3])
    assert verdicts(parent, change) == {"wall_s": "beyond bound"}
    # in the higher-is-better direction too
    parent = runs(omma_ips=[60, 80, 100, 120, 140])
    assert verdicts(parent, runs(omma_ips=[95, 100, 105, 100, 100])) == {
        "omma_ips": "unresolved"}
    assert verdicts(parent, runs(omma_ips=[141, 150, 150, 150, 150])) == {
        "omma_ips": "within bound"}
