"""``tests/bench_pairs.py`` alternates its sides and summarizes as the
committed ``BENCH_*.json`` files do."""

import json
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]

FAKE_RUN = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
log = here.parent / "order.txt"
log.write_text(log.read_text() + here.name + "\\n" if log.exists() else here.name + "\\n")
rate = {"parent": 100.0, "change": 120.0}[here.name] + len(log.read_text().split())
print("a readable report")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "examples_per_s": {"value": rate, "unit": "1/s"},
    "batch_s_p50": {"value": 1.0 / rate, "unit": "s"},
    "unknown_metric": {"value": 1.0, "unit": "s"}}}))
'''


def test_the_summary_reproduces_a_committed_one():
    record = json.loads((ROOT / "BENCH_12.json").read_text(encoding="utf-8"))
    runs = [run for run in record["runs"] if run["set"].startswith("claim")]
    got = bench_pairs.summarize(runs, bench_pairs.directions(ROOT))
    assert got == record["summary"]["finetune_cnn"]


def test_pairs_alternate_and_every_run_is_recorded(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"change": "kept", "runs": [], "summary": {}}), encoding="utf-8")
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "finetune_cnn", "--seed", "3", "--pairs", "3",
                             "--seconds", "1", "--out", str(out), "--set", "a set"]) == 0
    order = (tmp_path / "order.txt").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["change"] == "kept"
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change")]
    assert record["runs"][0]["command"] == ("python3 perfbench/run.py --workload finetune_cnn "
                                            "--seed 3 --seconds 1.0 --trace 0")
    summary = record["summary"]["a set"]
    assert set(summary) == {"examples_per_s", "batch_s_p50"}
    rate = summary["examples_per_s"]
    # parent runs read 101, 104, 105 and change runs 122, 123, 126
    assert (rate["parent_median"], rate["change_median"]) == (104.0, 123.0)
    assert (rate["parent_q1"], rate["parent_q3"]) == (102.5, 104.5)
    assert rate["change_wins"] == summary["batch_s_p50"]["change_wins"] == 3
    assert rate["pairs"] == 3
    assert abs(rate["median_change_pct"] - 100 * (123 / 104 - 1)) < 1e-12


FAKE_VERDICT_RUN = '''import json
from pathlib import Path
here = Path(__file__).resolve().parents[1]
log = here.parent / "order.txt"
log.write_text(log.read_text() + here.name + "\\n" if log.exists() else here.name + "\\n")
n, change = len(log.read_text().split()), here.name == "change"
metrics = {"examples_per_s": 100.0 + 20 * change + n, "batch_s_p50": 1.0 + 0.5 * change + n / 1000,
           "setup_s": float(n % 3 + 1), "peak_rss_mb": 150.0 + n / 100, "tensor.backward.s": 1.0}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
'''


def test_each_end_to_end_metric_gets_a_verdict_by_its_bound(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_VERDICT_RUN, encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "eval_paper", "--seed", "0", "--pairs", "4",
                             "--seconds", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    setup = record["summary"]["eval_paper"]["setup_s"]
    # the parent reads 2, 2, 3, 3 s and the change 3, 1, 1, 2 s: the change's
    # median lies below the parent's range, but it won 3 pairs of 4
    assert (setup["parent_q1"], setup["parent_q3"], setup["change_median"]) == (2.0, 3.0, 1.5)
    assert setup["change_wins"] == 3
    assert record["verdicts"] == {"eval_paper": {
        "examples_per_s": "better",   # 4 of 4 pairs, beyond the parent's quartiles
        "batch_s_p50": "worse",       # 50% slower, past the 0.25 bound
        "setup_s": "unresolved",      # the parent's quartiles span 40% of its median
        "peak_rss_mb": "unchanged",   # 2 wins of 4, well within 0.15
    }}


def test_a_verdict_needs_nine_wins_in_ten_and_a_median_beyond_the_quartiles():
    row = {"parent_median": 10.0, "parent_q1": 9.5, "parent_q3": 10.5, "change_median": 8.0,
           "change_wins": 9, "pairs": 10}
    assert bench_pairs.verdict(row, "lower", 0.25) == "better"
    assert bench_pairs.verdict(row | {"change_wins": 8}, "lower", 0.25) == "unchanged"
    assert bench_pairs.verdict(row | {"change_median": 9.6}, "lower", 0.25) == "unchanged"
    assert bench_pairs.verdict(row | {"change_wins": 0}, "higher", 0.15) == "worse"
    assert bench_pairs.verdict(row | {"change_wins": 0}, "higher", 0.25) == "unchanged"
