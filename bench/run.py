"""detangle benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 bench/run.py --workload metrics_mid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

The run writes the workload's inputs (CSV + schema) under .bench_work/,
times a few fresh child processes that only do their set-up, then runs the
workload's CLI job in fresh child processes, one at a time, until
--seconds have passed and at least three jobs ran (so each median has
three samples, and every run checks that repeated jobs reproduce their
outputs byte for byte). Every job's outputs are checked. The last stdout
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb). With --trace 1 jobs alternate untraced and traced, and the
metrics are the per-layer ones from the traced jobs' spans plus
trace.overhead_s; the span tree goes to .bench_work/.../trace.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_ONLY_CHILDREN = 7
MIN_JOBS = 3
# A run must end within 180 s; jobs get what is left of this budget.
RUN_BUDGET_S = 170.0
# One BLAS thread per job: jobs run one at a time, and the probes' matrices
# are too small (batch 128) to gain from more.
BLAS_THREADS = "1"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env.pop("DETANGLE_THREADS", None)
    return env


def machine_facts(workload: str, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "detangle_threads": "unset (default 1)",
    }


class Runner:
    """Spawns child processes for one run and keeps them within its budget."""

    def __init__(self, work_dir: Path, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def child(self, argv: list[str] | None = None, trace: bool = False, job: int = 0) -> dict:
        """Run one child to completion; returns its result, or an 'error' entry."""
        self.count += 1
        request_path = self.work_dir / f"request{self.count}.json"
        result_path = self.work_dir / f"result{self.count}.json"
        request = {"result": str(result_path), "argv": argv, "trace": trace, "job": job}
        request["spawned_at"] = time.monotonic()
        request_path.write_text(json.dumps(request), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(request_path)],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return {"error": "child ran past the run's time budget"}
        if proc.returncode != 0 or not result_path.is_file():
            return {"error": f"child exited with {proc.returncode}: {proc.stderr[-2000:]}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        error = result.pop("error", None)
        if error or result.get("exit_code") not in (None, 0):
            result["error"] = error or f"cli exit code {result['exit_code']}: {proc.stderr[-2000:]}"
        return result


def _job_outputs(out_dir: Path, result: dict) -> dict[str, bytes]:
    outputs = {"stdout": result["stdout"].encode("utf-8")}
    for path in sorted(out_dir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def _check_job(workload, rep, reference, out_dir: Path, result: dict) -> list[str]:
    import checks

    try:
        payload = json.loads((out_dir / "payload.json").read_text(encoding="utf-8"))
        if workload.command == "metrics":
            return checks.check_metrics(payload, result["stdout"], *reference)
        if workload.command == "align":
            svg = (out_dir / "hinton.svg").read_text(encoding="utf-8")
            return checks.check_align(payload, result["stdout"], svg, *reference)
        return checks.check_cg(payload, result["stdout"], rep.n_rows)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """One run of one workload: failures per job, job counts, metric values."""
    import checks

    started = time.monotonic()
    if work_dir.exists():
        shutil.rmtree(work_dir)
    data_dir = work_dir / "input"
    rep = workload.write_inputs(data_dir, seed)
    reference = None
    if workload.command in ("metrics", "align"):
        from detangle import DEFAULT_BINS, QUANTILE

        reference = (
            checks.reference_importance(rep, DEFAULT_BINS, QUANTILE),
            checks.factor_entropies(rep),
        )

    runner = Runner(work_dir, started + RUN_BUDGET_S)
    setups = []
    for _ in range(SETUP_ONLY_CHILDREN):
        result = runner.child()
        if "error" not in result:
            setups.append(result["setup_s"])

    jobs, failures, first_outputs = [], [], None
    measure_start = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - measure_start < seconds:
        k = len(jobs)
        out_dir = work_dir / f"job{k}"
        out_dir.mkdir()
        traced = trace and k % 2 == 1
        result = runner.child(workload.argv(data_dir, out_dir, seed), trace=traced, job=k)
        result.update(job=k, traced=traced)
        jobs.append(result)
        if "error" in result:
            problems = [result["error"]]
        else:
            setups.append(result["setup_s"])
            problems = _check_job(workload, rep, reference, out_dir, result)
            outputs = _job_outputs(out_dir, result)
            if first_outputs is None:
                first_outputs = outputs
            else:
                problems += checks.check_same_bytes(outputs, first_outputs)
        if problems:
            failures.append((k, problems))
        if time.monotonic() > runner.deadline:
            break
    shutil.rmtree(data_dir)

    ok = [j for j in jobs if "error" not in j]
    untraced = [j for j in ok if not j["traced"]]
    traced_jobs = [j for j in ok if j["traced"]]
    values = {}
    if trace:
        import tracing

        per_job = [tracing.layer_metrics(j["spans"]) for j in traced_jobs]
        values = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]} if per_job else {}
        if traced_jobs and untraced:
            values["trace.overhead_s"] = statistics.median(j["wall_s"] for j in traced_jobs) - statistics.median(
                j["wall_s"] for j in untraced
            )
        (work_dir / "trace.json").write_text(
            json.dumps({"jobs": [{"job": j["job"], "spans": j["spans"]} for j in traced_jobs]}),
            encoding="utf-8",
        )
    elif untraced:
        values = {
            "wall_s": statistics.median(j["wall_s"] for j in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in untraced),
        }
    return {
        "failures": failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "values": values,
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, workload, seed: int, seconds: float, trace: bool) -> bool:
    """Measure one workload, print its lines and result object; returns correct."""
    units = metric_units(trace)
    facts = machine_facts(name, seed)
    print("facts " + json.dumps(facts), flush=True)

    work_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    run = measure(workload, seed, seconds, trace, work_dir)
    for k, problems in run["failures"]:
        for problem in problems:
            print(f"{name} job {k} failed: {problem}", file=sys.stderr)

    # A metric no job could measure reads null; the run is then not correct.
    metrics = {metric: {"value": run["values"].get(metric), "unit": unit} for metric, unit in units.items()}
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']} {entry['unit']}")
    fail_ratio = run["failed"] / run["attempted"]
    print(f"{name} fail_ratio {fail_ratio:.6g} 1 ({run['failed']}/{run['attempted']} jobs)")
    (work_dir / "result.json").write_text(
        json.dumps({"facts": facts, "metrics": metrics, "failures": run["failures"]}, indent=2),
        encoding="utf-8",
    )
    correct = run["failed"] == 0 and all(metric in run["values"] for metric in units)
    print(
        json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}),
        flush=True,
    )
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "detangle" / "__init__.py").is_file():
        print(f"error: no detangle sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = [run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
