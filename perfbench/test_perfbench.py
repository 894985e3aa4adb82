"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_run_is_correct_and_matches_the_schema():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(r["workload"], r["trace"]) for r in lines} == {
        (w["name"], t) for w in spec["workloads"] for t in (False, True)
    }
    assert all(r["ok"] for r in lines), proc.stdout
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_sources():
    # A directory holding only BENCHMARK.json and perfbench/, kept inside the
    # checkout's scratch area.
    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "coverage", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
