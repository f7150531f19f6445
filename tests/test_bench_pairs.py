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


BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower", "setup_s": "lower"}


def test_summary_counts_wins_by_direction():
    pairs = [(result(100, 1.0), result(120, 0.9)), (result(110, 1.2), result(105, 1.2)),
             (result(90, 0.8), result(130, 0.7)), (result(100, 1.0), result(100, 0.5))]
    lines, ok = bench_pairs.summarize(pairs, BETTER)
    assert ok
    # medians 100 and 112.5; a tie wins for neither side; lower op_p50_ms wins
    assert lines[0].startswith("ops_per_s: parent 100 (quartiles 92.5-107.5, IQR 15), change 112.5, "
                               "ratio 1.1250, change better in 2/4 pairs")
    assert lines[1].startswith("op_p50_ms: parent 1 ")
    assert lines[1].endswith("ratio 0.8000, change better in 3/4 pairs")
    # setup_s is in no result, so it has no line
    assert len(lines) == 3 and lines[2] == "runs with wrong outputs or failed ops: 0/8"


@pytest.mark.parametrize("bad", [result(1, 1, correct=False), result(1, 1, failed=2)])
def test_summary_flags_wrong_or_failed_runs(bad):
    for pair in ((bad, result(1, 1)), (result(1, 1), bad)):
        lines, ok = bench_pairs.summarize([pair, (result(1, 1), result(1, 1))], BETTER)
        assert not ok and lines[-1] == "runs with wrong outputs or failed ops: 1/4"


def test_metrics_and_directions_come_from_the_benchmark():
    better = bench_pairs.end_to_end_metrics()
    assert better["ops_per_s"] == "higher" and better["op_p50_ms"] == "lower"
