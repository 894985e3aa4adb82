"""skewkit benchmark: one closed-loop client, one op at a time, one thread.

    python3 perfbench/run.py --workload coverage --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # the three workloads in turn
    python3 perfbench/run.py --smoke

Run from the root of a checkout; skewkit is imported from its ``src``
directory and from nowhere else.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Lines before it describe the run (environment, sample counts, percentiles,
every layer).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"  # removed per run, except trace files
WORKLOADS = ("coverage", "estimate_large", "cli")
DEFAULT_SEED = 1  # the seed golden.json was recorded with
SETUP_PROBES = 3
MIN_OPS = 2  # a trace run needs at least one untraced and one traced op
# numpy's OpenBLAS would otherwise start a worker thread per core on import.
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest() -> str:
    """sha1 over skewkit's sources: identifies the code where git cannot."""
    digest = hashlib.sha1()
    for path in sorted((SRC / "skewkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha1": source_digest(),
        "threads": {var: os.environ[var] for var in PINNED_ENV},
        "client": "one process, closed loop, one op at a time, threads=1",
    }


def workdir_for(name: str) -> Path:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))


# -- fresh interpreters --------------------------------------------------------

def probe_main(name: str, seed: int) -> int:
    """Child: cold import, inputs, warm-up op; report, then exit."""
    start = time.perf_counter()
    import skewkit.cli  # noqa: F401  (the cold import being timed)

    imported = time.perf_counter()
    import workloads

    workdir = workdir_for(name)
    wl = workloads.WORKLOADS[name](seed, workdir)
    try:
        wl.setup()
        ready = time.perf_counter()
        wl.op(0)
        done = time.perf_counter()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "import_ms": 1e3 * (imported - start),
        "inputs_ms": 1e3 * (ready - imported),
        "warmup_ms": 1e3 * (done - ready),
    }), flush=True)
    return 0


def setup_probe(name: str, seed: int, pacer) -> dict:
    """Time one fresh interpreter from spawn until its warm-up op is done,
    between two runs of the ``spawn`` reference kernel."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", name,
           "--seed", str(seed)]
    pace_ms = [pacer.time_ms("spawn")]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe for {name} exited with {proc.returncode}")
    pace_ms.append(pacer.time_ms("spawn"))
    info = json.loads(line)
    info["wall_s"] = ready - start
    info["pace_ms"] = pace_ms
    return info


def cli_child_main(span_file: str, argv: list[str]) -> int:
    """Child: ``skewkit.cli.main(argv)`` under the tracer; spans to a file."""
    import tracer as tracing

    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import skewkit.cli
    tracer.install()
    try:
        code = skewkit.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(span_file).write_text(json.dumps({
            "spans": tracer.spans, "counts": tracer.counts[-1], "errors": tracer.errors[-1],
        }))
    sys.stdout.flush()
    return code


# -- one run -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, probes: int) -> dict:
    load_start = loadavg()
    import pace
    import tracer as tracing
    import workloads

    env = environment()
    pacer = pace.Pacer(ROOT)
    workdir = workdir_for(name)
    wl = workloads.WORKLOADS[name](seed, workdir)
    try:
        wl.setup()
        wl.record(0, wl.op(0))  # warm-up op; also the golden and cross-path op
        tracer = tracing.Tracer() if trace else None
        times = {False: [], True: []}
        kernel_ms, traced_ops = [], []  # the reference kernel runs before each op
        cpu_times, setups = [], []
        # The machine's speed drifts on a scale of seconds, so the setup
        # probes are spread evenly over the measured period instead of
        # preceding it; the time they take does not count against --seconds.
        start = time.perf_counter()
        paused = 0.0
        i = 1
        while i < wl.max_ops and (
            i <= MIN_OPS or len(setups) < probes
            or time.perf_counter() - start - paused < seconds
        ):
            if (len(setups) < probes
                    and time.perf_counter() - start - paused >= len(setups) * seconds / probes):
                t0 = time.perf_counter()
                setups.append(setup_probe(name, seed, pacer))
                paused += time.perf_counter() - t0
                continue
            traced = trace and i % 2 == 0
            kernel_ms.append(pacer.time_ms(wl.pace))
            traced_ops.append(traced)
            if traced:
                tracer.install()
            try:
                c0 = cpu_seconds()
                t0 = time.perf_counter()
                if traced:
                    span = tracer.begin_op(i)
                output = wl.op(i, tracer if traced else None)
                if traced:
                    tracer.end_op(span)
                elapsed = time.perf_counter() - t0
                cpu = cpu_seconds() - c0
            finally:
                if traced:
                    tracer.uninstall()
            times[traced].append(1e3 * elapsed)
            if not traced:
                cpu_times.append(1e3 * cpu)
            wl.record(i, output)
            del output
            i += 1
        measured_s = time.perf_counter() - start - paused
        kernel_ms.append(pacer.time_ms(wl.pace))  # after the last op
        peak_rss_mb = wl.peak_rss_mb()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = times[False]
    paces = [k for k, traced in zip(pace.bracketing(kernel_ms), traced_ops) if not traced]
    adjusted = [pace.adjust(t, wl.pace, k) for t, k in zip(untraced, paces)]
    tail_ms, tail_pct, beyond = tail(adjusted)
    # One spawn varies from 0.5 s to 0.8 s even on a steady host, so set-up
    # is paced by the median of every spawn kernel run in the run.
    spawn_ms = [k for s in setups for k in s["pace_ms"]]
    spawn_ms += kernel_ms if wl.pace == "spawn" else []
    wall_setup_s = median([s["wall_s"] for s in setups])
    details = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "measured_s": measured_s, "environment": env,
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        "ops": {"untraced": len(untraced), "traced": len(times[True]), "warm-up": 1},
        "op_ms_tail": {"percentile": tail_pct, "samples": len(untraced), "beyond": beyond},
        "setup_probes": setups,
        "pace": {"kernel": wl.pace, "nominal_ms": pace.NOMINAL_MS[wl.pace],
                 "kernel_ms_p50": median(kernel_ms), "kernel_runs": len(kernel_ms),
                 "setup_kernel": "spawn", "setup_nominal_ms": pace.NOMINAL_MS["spawn"],
                 "setup_kernel_ms_p50": median(spawn_ms), "setup_kernel_runs": len(spawn_ms)},
        "wall_op_ms_p50": median(untraced),
        "wall_op_ms_tail": tail(untraced)[0],
        "wall_setup_s": wall_setup_s,
        "op_cpu_ms_p50": median(cpu_times),
        "op_cpu_ms_tail": tail(cpu_times)[0],
        "golden_checked": wl.golden_checked,
        "failed_frac": wl.failed / wl.attempted,
        "attempted_unit": wl.attempted_unit,
        "problems": wl.problems[:20],
        "workload_details": wl.details(),
    }
    if name == "coverage":
        details["trials_per_s"] = wl.trials / (median(untraced) / 1e3)
    metrics = {
        "op_ms_p50": (median(adjusted), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (pace.adjust(wall_setup_s, "spawn", median(spawn_ms)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - wl.failed / wl.attempted, "ratio"),
    }
    if trace:
        metrics, details["layers"] = layer_metrics(tracing, tracer, times, setups)
        spans = SCRATCH / f"trace-{name}-{seed}.json"
        spans.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans,
            "counts": tracer.counts, "errors": tracer.errors,
        }))
        details["spans_file"] = str(spans.relative_to(ROOT))
    return {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }


def layer_metrics(tracing, tracer, times, setups):
    """Per-layer metrics (medians over traced ops) and the full layer table."""
    per_op = tracing.layer_values(tracer)
    names = sorted({k for values in per_op.values() for k in values} - {"op_ms"})
    table = {}
    for metric in names:
        values = [v.get(metric, 0.0) for v in per_op.values()]
        table[metric] = {"median": median(values), "mean": fmean(values),
                         "wait_ms": 0.0}
    imports = [s["import_ms"] for s in setups]
    imports += [v["cli.import_ms"] for v in per_op.values() if v.get("cli.import_ms")]
    op_total = sum(v["op_ms"] for v in per_op.values())
    self_total = sum(
        v[m] for v in per_op.values() for m in tracing.SELF_TIME_METRICS.values() if m in v
    )
    errors = Counter()
    for op_errors in tracer.errors.values():
        errors.update(op_errors)
    table["errors"] = dict(errors)  # "layer:ExceptionClass" -> count over traced ops
    table["accounting"] = {
        "traced_op_ms_total": op_total, "self_ms_total": self_total,
        "note": "self times of every layer plus op.unattributed_ms add up to the op",
        "wait": "single-threaded: no layer waits, wait_ms is 0 everywhere",
    }
    traced_p50 = median(times[True])
    metrics = {}
    for metric in LAYER_METRICS:
        unit = "ms" if metric.endswith("_ms") else "ratio" if metric.endswith("ratio") else "count"
        metrics[metric] = (table.get(metric, {"median": 0.0})["median"], unit)
    metrics["cli.import_ms"] = (median(imports), "ms")
    metrics["trace.op_ms_p50"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - median(times[False]), "ms")
    return metrics, table


# Per-layer metrics every workload exercises (BENCHMARK.json "per_layer").
# Layers only one workload reaches (population truths, sampling and the trial
# loop in coverage; CSV reading and argparse in cli) are in the layer table
# that every traced run prints, but not here, so no time reads 0 by design.
LAYER_METRICS = (
    "quantiles.sort_ms", "quantiles.type8_ms", "quantiles.density_ms",
    "quantiles.density_calls", "quantiles.density_probs", "quantiles.density_unique_ratio",
    "quantiles.density_errors",
    "skewness.grid_ms", "skewness.grid_builds", "skewness.estimate_ms",
    "asymptotics.kernel_ms", "asymptotics.variance_ms", "asymptotics.variance_calls",
    "inference.interval_ms", "inference.interval_calls", "inference.failures",
    "simulation.trials", "op.unattributed_ms",
)


def print_result(result: dict) -> None:
    d = result["details"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {int(d['trace'])}  "
          f"{d['ops']['untraced']} untraced / {d['ops']['traced']} traced ops "
          f"in {d['measured_s']:.1f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if not d["trace"]:
        t = d["op_ms_tail"]
        print(f"  op_ms_tail is p{t['percentile']:.1f}: {t['beyond']} of {t['samples']} "
              f"ops beyond it")
        print(f"  failed_frac {d['failed_frac']:.6g} = {result['failed']}/{result['attempted']} "
              f"{d['attempted_unit']}")
        if "trials_per_s" in d:
            print(f"  trials_per_s {d['trials_per_s']:.4g} (not gated)")
        imports = [p["import_ms"] for p in d["setup_probes"]]
        print(f"  setup_s is the median of {len(imports)} fresh interpreters; their cold "
              f"import skewkit.cli took {median(imports):.1f} ms (median)")
        pc = d["pace"]
        print(f"  times are adjusted to the host's nominal pace (see pace.py): the "
              f"'{pc['kernel']}' kernel took {pc['kernel_ms_p50']:.4g} ms (median, nominal "
              f"{pc['nominal_ms']:g}), 'spawn' {pc['setup_kernel_ms_p50']:.4g} ms (nominal "
              f"{pc['setup_nominal_ms']:g})")
        print(f"  wall time: op_ms_p50 {d['wall_op_ms_p50']:.6g} ms, op_ms_tail "
              f"{d['wall_op_ms_tail']:.6g} ms, setup_s {d['wall_setup_s']:.6g} s (not gated)")
    for problem in d["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"details": d}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


# -- smoke and golden ----------------------------------------------------------

def smoke() -> int:
    """One short op per workload plus one traced op, checked for schema and
    correctness against BENCHMARK.json and the golden values."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(w["name"], DEFAULT_SEED, 0.0, trace, probes=1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (result["correct"] and result["failed"] == 0 and got == want
                    and result["details"]["golden_checked"]
                    and all(isinstance(v["value"], (int, float))
                            for v in result["metrics"].values()))
            ok &= good
            print(json.dumps({"workload": w["name"], "trace": trace, "ok": good,
                              "problems": result["details"]["problems"]}))
    return 0 if ok else 1


def write_golden() -> int:
    """Record op 0 of every workload at the default seed."""
    import workloads

    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = workdir_for(name)
        wl = cls(DEFAULT_SEED, workdir)
        try:
            wl.setup()
            golden[name] = wl.view(wl.op(0))
        finally:
            wl.close()
            shutil.rmtree(workdir, ignore_errors=True)
    golden["seed"] = DEFAULT_SEED
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for var in PINNED_ENV:
        os.environ[var] = "1"
    if not (SRC / "skewkit" / "__init__.py").is_file():
        print(f"perfbench: no skewkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    if argv[:1] == ["--cli-child"]:
        return cli_child_main(argv[1], argv[2:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs the three in turn, each with its own result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick schema and correctness check")
    parser.add_argument("--write-golden", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        return probe_main(args.workload, args.seed)
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        print_result(run_workload(name, args.seed, args.seconds, bool(args.trace), SETUP_PROBES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
