import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the summary of parent/change benchmark pairs, on canned result lines
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(ops_per_s, op_p50_ms, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}


METRICS = {"ops_per_s": ("higher", 0.25), "op_p50_ms": ("lower", 0.25), "setup_s": ("lower", 0.25)}


def test_summary_counts_wins_by_direction():
    pairs = [(result(100, 1.0), result(120, 0.9)), (result(110, 1.2), result(105, 1.2)),
             (result(90, 0.8), result(130, 0.7)), (result(100, 1.0), result(100, 0.5))]
    lines, ok = bench_pairs.summarize(pairs, METRICS)
    assert ok
    # medians 100 and 112.5; a tie wins for neither side; lower op_p50_ms wins
    assert lines[0] == ("ops_per_s: parent 100 (quartiles 92.5-107.5, IQR 15), change 112.5, "
                        "ratio 1.1250, change better in 2/4 pairs; within bound")
    assert lines[1].startswith("op_p50_ms: parent 1 ")
    # the parent's IQR, 0.3, is past 0.25 of its median, and one pair was lost
    assert lines[1].endswith("ratio 0.8000, change better in 3/4 pairs; unresolved")
    # setup_s is in no result, so it has no line
    assert len(lines) == 3 and lines[2] == "runs with wrong outputs or failed ops: 0/8"


@pytest.mark.parametrize("bad", [result(1, 1, correct=False), result(1, 1, failed=2)])
def test_summary_flags_wrong_or_failed_runs(bad):
    for pair in ((bad, result(1, 1)), (result(1, 1), bad)):
        lines, ok = bench_pairs.summarize([pair, (result(1, 1), result(1, 1))], METRICS)
        assert not ok and lines[-1] == "runs with wrong outputs or failed ops: 1/4"


@pytest.mark.parametrize("parent, change, want", [
    # a median more than 25% behind the parent's is worse, in either direction
    ([100, 100, 100], [74, 74, 74], ["worse beyond bound", "within bound"]),
    ([100, 100, 100], [76, 76, 76], ["within bound", "within bound"]),
    ([100, 100, 100], [126, 126, 126], ["within bound", "worse beyond bound"]),
    ([100, 100, 100], [124, 124, 124], ["within bound", "within bound"]),
    # a parent spread past the bound leaves the verdict open, unless the
    # change won every pair
    ([60, 100, 140], [70, 110, 130], ["unresolved", "unresolved"]),
    ([60, 100, 140], [70, 110, 150], ["within bound", "unresolved"]),
    # worse beyond the bound stands, however wide the spread
    ([60, 100, 140], [50, 70, 90], ["worse beyond bound", "within bound"]),
])
def test_summary_verdicts_against_the_bound(parent, change, want):
    # op_p50_ms is ops_per_s / 100, where lower is better: its verdict is
    # read the other way round
    pairs = [(result(p, p / 100), result(c, c / 100)) for p, c in zip(parent, change)]
    lines, ok = bench_pairs.summarize(pairs, METRICS)
    assert ok and [line.rsplit("; ", 1)[1] for line in lines[:2]] == want


def test_metrics_and_directions_come_from_the_benchmark():
    run_seconds, metrics = bench_pairs.read_benchmark()
    assert run_seconds == 50
    assert metrics["ops_per_s"] == ("higher", 0.25) and metrics["op_p50_ms"] == ("lower", 0.25)
    assert metrics["peak_rss_mb"] == ("lower", 0.1)


def test_runs_last_the_benchmark_length_by_default(monkeypatch, capsys):
    # with no --seconds, every run lasts BENCHMARK.json's run_seconds
    asked = []

    def run_once(checkout, workload, seed, seconds):
        asked.append((checkout, seed, seconds))
        return result(100, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "cli-mix", "--pairs", "2"]) == 0
    assert asked == [("p", 1, 50), ("c", 1, 50), ("c", 2, 50), ("p", 2, 50)]
    assert capsys.readouterr().out.endswith("runs with wrong outputs or failed ops: 0/4\n")
