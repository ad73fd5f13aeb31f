"""A/B comparison of two checkouts on one perfbench workload.

    python3 tools/ab.py PARENT CHANGE --workload online-wide --seed 1 --pairs 10 --seconds 30

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout, ``--pairs`` times, alternating which side runs first, and
reads the JSON object on the last line of each run's stdout.  For every
metric it prints each side's median and quartiles, the pairs the change won
(ties count for neither side) and whether the medians differ, in the
direction the metric calls better, by more than the distance between the
parent's quartiles.  A gain is claimed only when the change wins at least 9
of 10 pairs and that gap holds.  Each metric also gets a no-regression
verdict against its bound b: ``beyond bound`` when the change's median is
worse than the parent's by more than b times the parent's median;
``unresolved`` when the parent's quartiles lie more than b times its median
apart and not every change run beats every parent run; ``within bound``
otherwise.  The directions and bounds come from the parent's BENCHMARK.json.
``--json PATH`` also writes the rows as one JSON object (see :func:`record`).
Exits 1 if any run is not ``correct`` or fails an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import NamedTuple


class Spread(NamedTuple):
    median: float
    q1: float
    q3: float


class Spec(NamedTuple):
    """An end-to-end metric of BENCHMARK.json."""

    better: str         # "lower" or "higher"
    bound: float        # the largest loss of the median tolerated, as a share of it


class Row(NamedTuple):
    """One metric over the pairs: each side's spread and the change's record."""

    name: str
    spec: Spec
    parent: Spread
    change: Spread
    wins: int
    pairs: int
    gap: float          # change median minus parent median, signed
    beyond_iqr: bool    # the gap is in the better direction and exceeds the parent IQR
    all_beat: bool      # every change run is better than every parent run

    @property
    def claimed(self) -> bool:
        return self.wins >= 0.9 * self.pairs and self.beyond_iqr

    @property
    def regression(self) -> str:
        """``beyond bound``, ``unresolved`` or ``within bound``."""
        sign = -1.0 if self.spec.better == "lower" else 1.0
        limit = self.spec.bound * abs(self.parent.median)
        if -sign * self.gap > limit:
            return "beyond bound"
        if self.parent.q3 - self.parent.q1 > limit and not self.all_beat:
            return "unresolved"
        return "within bound"


def spread(values: list[float]) -> Spread:
    """Median and quartiles (the inclusive method: numpy's default percentiles)."""
    if len(values) == 1:
        return Spread(values[0], values[0], values[0])
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Spread(med, q1, q3)


def compare(parent: list[dict[str, float]], change: list[dict[str, float]],
            specs: dict[str, Spec]) -> list[Row]:
    """Rows for every metric both sides report and ``specs`` names, from
    paired runs: ``parent[i]`` and ``change[i]`` are the metric values of pair i.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    rows = []
    for name in parent[0]:
        if name not in specs or any(name not in runs for runs in (*parent, *change)):
            continue
        sign = -1.0 if specs[name].better == "lower" else 1.0
        p = [runs[name] for runs in parent]
        c = [runs[name] for runs in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ps, cs = spread(p), spread(c)
        gap = cs.median - ps.median
        rows.append(Row(name, specs[name], ps, cs, wins, len(p), gap,
                        sign * gap > ps.q3 - ps.q1,
                        min(sign * v for v in c) > max(sign * v for v in p)))
    return rows


def format_rows(rows: list[Row]) -> list[str]:
    width = max((len(r.name) for r in rows), default=0) + 2
    lines = []
    for r in rows:
        def side(s):
            return f"{s.median:.6g} [{s.q1:.6g}, {s.q3:.6g}]"
        verdict = "claimed" if r.claimed else "not claimed"
        lines.append(f"{r.name:<{width}}({r.spec.better} is better) parent "
                     f"{side(r.parent)}  change {side(r.change)}  wins {r.wins}/{r.pairs}  "
                     f"{r.regression} (bound {r.spec.bound:g})  gap {r.gap:+.6g} "
                     f"vs IQR {r.parent.q3 - r.parent.q1:.6g}: {verdict}")
    return lines


def record(rows: list[Row], workload: str, seed: int, seconds: float, pairs: int,
           incorrect: int) -> dict:
    """The comparison as a JSON object: the settings, the number of runs that
    were not correct, and per metric each side's median and quartiles, the
    change's wins, the signed gap, the parent's IQR and both verdicts."""
    return {"workload": workload, "seed": seed, "seconds": seconds, "pairs": pairs,
            "incorrect_runs": incorrect,
            "rows": [{"name": r.name, "better": r.spec.better, "bound": r.spec.bound,
                      "parent": r.parent._asdict(), "change": r.change._asdict(),
                      "wins": r.wins, "gap": r.gap, "parent_iqr": r.parent.q3 - r.parent.q1,
                      "claimed": r.claimed, "regression": r.regression} for r in rows]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one perfbench run in ``checkout``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: no result from {checkout} (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}") from None
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def end_to_end(checkout: str) -> dict[str, Spec]:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: Spec(m["better"], m["bound"]) for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", metavar="PATH", help="also write the rows to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    results = {"parent": [], "change": []}
    bad = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            results[side].append(res)
            if not res["correct"] or res["failed"]:
                bad += 1
            print(f"pair {i + 1} {side}: correct {res['correct']} failed {res['failed']} "
                  + json.dumps(res["metrics"], sort_keys=True), flush=True)
    rows = compare([r["metrics"] for r in results["parent"]],
                   [r["metrics"] for r in results["change"]], end_to_end(args.parent))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"pairs {args.pairs}")
    for line in format_rows(rows):
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record(rows, args.workload, args.seed, args.seconds, args.pairs, bad),
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    if bad:
        print(f"error: {bad} of {2 * args.pairs} runs were not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
