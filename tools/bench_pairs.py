"""Alternating paired perfbench runs on two trees, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload all \\
        --seeds 4201-4210 --claim coverage.op_ms_p50 > pairs.json

PARENT and CHANGE are checkout roots (for example ``git archive`` copies of
two commits).  Pair i runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each tree, from that tree's root, with the
i-th seed; the parent goes first in even pairs and the change in odd ones, so
a drift of the host's speed falls on both sides alike.  ``--workload all``
runs the three workloads in each call.  T defaults to the ``run_seconds`` of
the change's ``BENCHMARK.json``.  Progress goes to stderr, the JSON to stdout.

The output is the mechanical part of a ``BENCH_*.json`` file: for each
workload and each end-to-end metric of the change's ``BENCHMARK.json``, the
median and inclusive quartiles of each side's per-run values, the values per
pair as [parent, change], the pairs the change won (strictly better in the
metric's direction), the relative change of the median and the bound; and,
with ``--claim WORKLOAD.METRIC``, whether that metric won at least 9 pairs in
10 by a median difference larger than the parent's interquartile range.
Notes on the change and the host are for the writer to add.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

DIGITS = 4
WINS_IN_TEN = 9  # a claimed gain must win at least this many pairs in ten


def parse_seeds(text: str) -> list[int]:
    """Seeds from a comma-separated list of integers and ranges "a-b"."""
    seeds = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def parent_first(pair: int) -> bool:
    """Whether the parent runs first in the pair with this index."""
    return pair % 2 == 0


def parse_output(text: str) -> dict[str, dict]:
    """The results that one ``perfbench/run.py --trace 0`` call printed, by
    workload: each result line ``{"correct", "attempted", "failed",
    "metrics"}`` follows its ``{"details": ...}`` line."""
    results, details = {}, None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "details" in record:
            details = record["details"]
        elif "metrics" in record and details is not None:
            values = {name: m["value"] for name, m in record["metrics"].items()}
            results[details["workload"]] = {**record, "metrics": values, "details": details}
            details = None
    if not results:
        raise ValueError("perfbench printed no result line")
    return results


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, dict]:
    """One benchmark call in ``tree``; its results by workload."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return parse_output(done.stdout)


def spread(values) -> dict:
    """Median and inclusive quartiles, rounded."""
    values = list(values)
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median(values), DIGITS), "q1": round(q1, DIGITS), "q3": round(q3, DIGITS)}


def better(change: float, parent: float, direction: str) -> bool:
    """Whether ``change`` is strictly better than ``parent``."""
    return change < parent if direction == "lower" else change > parent


def relative(change: float, parent: float) -> float:
    return round((change - parent) / parent, DIGITS) if parent else 0.0


def summarize_metric(pairs, direction: str, bound: float) -> dict:
    """One metric's block from its (parent, change) values per pair."""
    parent, change = zip(*pairs)
    return {
        "parent": spread(parent),
        "change": spread(change),
        "per_pair": [[round(p, DIGITS), round(c, DIGITS)] for p, c in pairs],
        "change_better_in_pairs": sum(better(c, p, direction) for p, c in pairs),
        "relative_change_of_median": relative(median(change), median(parent)),
        "bound": bound,
    }


def summarize_workload(runs, seeds, metrics) -> dict:
    """One workload's block from its (parent, change) results per pair, in
    the layout of a ``BENCH_*.json`` ``workloads`` entry.  ``metrics`` are
    the end-to-end entries of ``BENCHMARK.json``."""
    block = {
        "pairs": len(runs),
        "seeds": list(seeds),
        "parent_first_in_pairs": [i for i in range(len(runs)) if parent_first(i)],
    }
    for m in metrics:
        values = [(p["metrics"][m["name"]], c["metrics"][m["name"]]) for p, c in runs]
        block[m["name"]] = summarize_metric(values, m["better"], m["bound"])
    every = [r for pair in runs for r in pair]
    block["all_correct"] = all(r["correct"] for r in every)
    block["failed_ops"] = sum(r["failed"] for r in every)
    block["wall_not_gated"] = {
        side: {
            "op_ms_p50_median": round(median(r["details"]["wall_op_ms_p50"] for r in rs), DIGITS),
            "op_cpu_ms_p50_median": round(median(r["details"]["op_cpu_ms_p50"] for r in rs), DIGITS),
            "pace_kernel_ms_p50_median": round(
                median(r["details"]["pace"]["kernel_ms_p50"] for r in rs), DIGITS),
        }
        for side, rs in (("parent", [p for p, _ in runs]), ("change", [c for _, c in runs]))
    }
    return block


def claim(block: dict, workload: str, metric: str, direction: str) -> dict:
    """Whether ``metric`` of ``workload`` improved, winning at least
    ``WINS_IN_TEN`` pairs in ten, by a median difference larger than the
    parent's interquartile range."""
    m = block[metric]
    parent, change = m["parent"], m["change"]
    pairs = len(m["per_pair"])
    wins = m["change_better_in_pairs"]
    losses = sum(better(p, c, direction) for p, c in m["per_pair"])
    iqr = round(parent["q3"] - parent["q1"], DIGITS)
    gain = change["median"] - parent["median"]
    gain = -gain if direction == "lower" else gain
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": iqr,
        "change_better_in_pairs": wins,
        "change_worse_in_pairs": losses,
        "pairs": pairs,
        "relative_change_of_median": m["relative_change_of_median"],
        "met": bool(10 * wins >= WINS_IN_TEN * pairs and gain > iqr),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", default="coverage",
                        help="a perfbench workload, or 'all' for the three in each call")
    parser.add_argument("--seeds", required=True, help="e.g. 4201-4210 or 4201,4203")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--claim", metavar="WORKLOAD.METRIC", help="e.g. coverage.op_ms_p50")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], args.seconds or spec["run_seconds"]

    runs: dict[str, list] = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if parent_first(i) else ("change", "parent")
        got = {side: run_once(getattr(args, side), args.workload, seed, seconds) for side in order}
        for name, result in got["parent"].items():
            runs.setdefault(name, []).append((result, got["change"][name]))
            p, c = result["metrics"]["op_ms_p50"], got["change"][name]["metrics"]["op_ms_p50"]
            print(f"pair {i} seed {seed} {name}: op_ms_p50 {p:.4g} -> {c:.4g} ms", file=sys.stderr)

    report = {
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds "
                    f"{seconds:g} --trace 0, run from each tree's root by tools/bench_pairs.py, "
                    "alternating which runs first"),
        "statistics": (
            "per metric, the median and quartiles (inclusive method) of the per-run values; "
            "per_pair lists [parent, change]; relative_change_of_median is (change - parent) / "
            "parent; change_better_in_pairs counts strict wins; wall_not_gated gives the medians "
            "of each side's unadjusted wall-time op, op CPU time and pace kernel"
        ),
        "workloads": {name: summarize_workload(pairs, seeds, metrics) for name, pairs in runs.items()},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(".")
        direction = next(m["better"] for m in metrics if m["name"] == metric)
        report["claim"] = claim(report["workloads"][workload], workload, metric, direction)
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
