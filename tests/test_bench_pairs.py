"""The statistics of tools/bench_pairs.py on fixed numbers; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_seeds_read_lists_and_ranges():
    assert bench_pairs.parse_seeds("4201-4203, 4301,") == [4201, 4202, 4203, 4301]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(" , ")


def test_spread_is_the_median_and_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.spread([0.123456]) == {"median": 0.1235, "q1": 0.1235, "q3": 0.1235}


def test_a_metric_counts_strict_wins_in_its_direction():
    pairs = [(2.0, 1.9), (2.1, 2.2), (2.0, 2.0), (1.8, 1.5)]
    lower = bench_pairs.summarize_metric(pairs, "lower", 0.25)
    assert lower["change_better_in_pairs"] == 2  # the tie is no win
    assert lower["parent"] == {"median": 2.0, "q1": 1.95, "q3": 2.025}
    assert lower["change"] == {"median": 1.95, "q1": 1.8, "q3": 2.05}
    assert lower["relative_change_of_median"] == -0.025
    assert lower["per_pair"] == [list(p) for p in pairs] and lower["bound"] == 0.25
    assert bench_pairs.summarize_metric(pairs, "higher", 0.01)["change_better_in_pairs"] == 1


def test_the_committed_pairs_give_their_committed_statistics():
    # BENCH_one_type8.json's per-pair values were rounded after its
    # statistics were taken, so these agree to within that rounding
    committed = json.loads((ROOT / "BENCH_one_type8.json").read_text())["workloads"]
    for block in committed.values():
        assert block["parent_first_in_pairs"] == [i for i in range(block["pairs"]) if i % 2 == 0]
        for m in METRICS:
            want = block[m["name"]]
            got = bench_pairs.summarize_metric([tuple(p) for p in want["per_pair"]], m["better"], m["bound"])
            assert got["change_better_in_pairs"] == want["change_better_in_pairs"]
            change = want["relative_change_of_median"]
            assert got["relative_change_of_median"] == pytest.approx(change, abs=2e-4)
            for side in ("parent", "change"):
                for stat in ("median", "q1", "q3"):
                    assert got[side][stat] == pytest.approx(want[side][stat], abs=1.5e-4)


def fake_result(workload, op_ms, **details):
    metrics = {m["name"]: 1.0 for m in METRICS} | {"op_ms_p50": op_ms}
    details = {"workload": workload, "wall_op_ms_p50": op_ms / 2, "op_cpu_ms_p50": op_ms / 2,
               "pace": {"kernel_ms_p50": 8.0}} | details
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics, "details": details}


def test_a_workload_block_has_the_committed_layout():
    runs = [(fake_result("coverage", 2.0 + 0.01 * i), fake_result("coverage", 1.9)) for i in range(4)]
    block = bench_pairs.summarize_workload(runs, [7, 8, 9, 10], METRICS)
    committed = json.loads((ROOT / "BENCH_one_type8.json").read_text())["workloads"]["coverage"]
    assert list(block) == list(committed)
    assert block["pairs"] == 4 and block["seeds"] == [7, 8, 9, 10]
    assert block["parent_first_in_pairs"] == [0, 2]
    assert block["op_ms_p50"]["change_better_in_pairs"] == 4
    assert block["all_correct"] and block["failed_ops"] == 0
    assert block["wall_not_gated"]["change"] == {
        "op_ms_p50_median": 0.95, "op_cpu_ms_p50_median": 0.95, "pace_kernel_ms_p50_median": 8.0,
    }


def test_output_lines_pair_each_result_with_its_details():
    lines = []
    for name, op_ms in (("coverage", 2.5), ("cli", 220.0)):
        result = fake_result(name, op_ms)
        lines += [f"workload {name}  seed 1", json.dumps({"details": result["details"]})]
        metrics = {k: {"value": v, "unit": "ms"} for k, v in result["metrics"].items()}
        lines.append(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}))
    parsed = bench_pairs.parse_output("\n".join(lines))
    assert list(parsed) == ["coverage", "cli"]
    assert parsed["cli"]["metrics"]["op_ms_p50"] == 220.0
    assert parsed["coverage"]["details"]["wall_op_ms_p50"] == 1.25
    with pytest.raises(ValueError):
        bench_pairs.parse_output("no json here")


STEADY = [2.0, 1.98, 2.02, 2.0, 1.99, 2.01, 2.0, 2.03, 1.97, 2.21]  # IQR 0.025
WIDE = [1.5, 2.5] * 5  # IQR 1.0


@pytest.mark.parametrize(
    "parent, change, met",
    [
        (STEADY, [1.8] * 9 + [2.2], True),  # 9 of 10 won, by far more than the IQR
        (STEADY, [1.8] * 8 + [2.3] * 2, False),  # 8 of 10 won
        (STEADY, [1.96] * 10, True),  # every pair won, by 2%, which is more than the IQR
        (WIDE, [p - 0.2 for p in WIDE], False),  # every pair won, by 10%, but within the IQR
    ],
)
def test_a_claim_needs_the_wins_the_iqr_and_the_gain(parent, change, met):
    block = {"op_ms_p50": bench_pairs.summarize_metric(list(zip(parent, change)), "lower", 0.25)}
    got = bench_pairs.claim(block, "coverage", "op_ms_p50", "lower")
    assert got["met"] is met
    assert got["change_better_in_pairs"] + got["change_worse_in_pairs"] == 10
    # sorted, STEADY puts q1 a quarter and q3 three quarters of the way
    # between their neighbours: 1.9925 and 2.0175
    q1, q3 = (1.9925, 2.0175) if parent is STEADY else (1.5, 2.5)
    spread = {"median": 2.0, "q1": q1, "q3": q3}
    assert block["op_ms_p50"]["parent"] == spread
    assert got["parent_iqr"] == round(spread["q3"] - spread["q1"], 4)
