"""Alternating parent/change runs of ``perfbench/run.py``, recorded as JSON.

    python tests/bench_pairs.py PARENT CHANGE --workload finetune_cnn \\
        --seed 113 --pairs 10 --out BENCH_14.json --set "claim: ..."

PARENT and CHANGE are two checkouts of the repository.  Pair k runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace T`` in
each checkout, one at a time; odd pairs run the parent first and even pairs
the change first, so a drift of the host does not favour one side.

The file named by ``--out`` gets the final JSON line of every run under
``runs`` (with its set, side, pair and command) and, under ``summary`` and
the set's name, each metric's median and quartiles (``statistics`` with the
inclusive method) on both sides, the pairs in which the change read better
(by the metric's direction in the change's ``BENCHMARK.json``) and the
change of the median in percent.  Under ``verdicts``, each set's
end-to-end metrics get one verdict each, by the metric's ``better`` and
``bound`` in the change's ``BENCHMARK.json``, the first that holds of:

- ``better``: the change won at least 9 pairs in 10 and its median lies
  beyond the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's interquartile range, over its median,
  exceeds the bound, so the sides cannot be told apart;
- ``unchanged``: anything else.

An existing file keeps its other keys and runs, so one file collects several
sets; the file is rewritten after every run.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, args) -> tuple[str, dict]:
    """(command, final JSON line) of one benchmark run in ``checkout``."""
    argv = ["python3", "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited with {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return " ".join(argv), json.loads(lines[-1])


def _benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    bench = _benchmark(checkout)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def verdict(row: dict, better: str, bound: float) -> str:
    """The verdict on one metric's summary row (see the module docstring)."""
    sign = 1 if better == "higher" else -1
    parent, change = row["parent_median"], row["change_median"]
    beyond_iqr = change > row["parent_q3"] if sign > 0 else change < row["parent_q1"]
    if row["change_wins"] >= 0.9 * row["pairs"] and beyond_iqr:
        return "better"
    if sign * (change - parent) < -bound * abs(parent):
        return "worse"
    if row["parent_q3"] - row["parent_q1"] > bound * abs(parent):
        return "unresolved"
    return "unchanged"


def verdicts(summary: dict[str, dict], checkout: Path) -> dict[str, dict[str, str]]:
    """Set -> end-to-end metric -> verdict, over every set of ``summary``."""
    e2e = _benchmark(checkout)["end_to_end"]
    return {label: {m["name"]: verdict(rows[m["name"]], m["better"], m["bound"])
                    for m in e2e if m["name"] in rows}
            for label, rows in summary.items()}


def summarize(runs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: medians, quartiles, wins and the median change, over the
    pairs that have a run on both sides."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["final_line"]["metrics"]
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    out = {}
    for metric in sorted(set().union(*(p["parent"] for p in pairs)) if pairs else ()):
        if metric not in better or any(metric not in p["change"] for p in pairs):
            continue
        values = {side: [p[side][metric]["value"] for p in pairs] for side in SIDES}
        sign = 1 if better[metric] == "higher" else -1
        row = {}
        for side in SIDES:
            q1, median, q3 = (statistics.quantiles(values[side], n=4, method="inclusive")
                              if len(pairs) > 1 else [values[side][0]] * 3)
            row |= {f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3}
        row["change_wins"] = sum(sign * (c - p) > 0
                                 for p, c in zip(values["parent"], values["change"]))
        row["pairs"] = len(pairs)
        row["median_change_pct"] = (100.0 * (row["change_median"] / row["parent_median"] - 1)
                                    if row["parent_median"] else None)
        out[metric] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    parser.add_argument("--set", dest="label", help="name of this set (default: the workload)")
    args = parser.parse_args(argv)
    label = args.label or args.workload
    record = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
              else {"order": "odd pairs run the parent first, even pairs the change first"})
    record.setdefault("runs", [])
    record.setdefault("summary", {})
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(checkouts["change"])
    runs = []
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            command, final = run_once(checkouts[side], args)
            runs.append({"set": label, "side": side, "pair": pair, "command": command,
                         "final_line": final})
            record["runs"].append(runs[-1])
            record["summary"][label] = summarize(runs, better)
            record["verdicts"] = verdicts(record["summary"], checkouts["change"])
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            value = final["metrics"].get("examples_per_s", {}).get("value")
            print(f"pair {pair} {side}: correct {final['correct']}, "
                  f"examples_per_s {value}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
