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
