"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload circuit-24 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src`. The run makes the workload's inputs from the seed, times
the set-up of several fresh set-up-only workers, then starts one worker that
repeats the workload's round of operations for the given seconds (see
worker.py). Every metric is printed as `name value unit`, and the last line
of stdout is the JSON result. With `--trace 1` the metrics are the per-layer
ones of BENCHMARK.json, from alternating traced and untraced rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from inputs import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".bench_work"
# Set-up-only workers before and after the measuring one, which gives one
# more sample: the samples span the run, so a slow patch moves few of them.
SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER = 3, 3
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def _capture(argv: list[str]) -> str:
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def environment(seed: int) -> dict:
    l3 = _capture(["getconf", "LEVEL3_CACHE_SIZE"])
    sha = _capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    return {"cpus": os.cpu_count(), "l3_bytes": int(l3) if l3.isdigit() else 0,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha or "unknown", "seed": seed}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(job_path: Path, setup_only: bool, deadline: float,
                 procs: list) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; returns it with the
    seconds from launch to ready, the set-up time."""
    argv = [sys.executable, str(WORKER), str(job_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv + (["--setup-only"] if setup_only else []),
                            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line != "ready\n":
        raise WorkerFailed(f"worker did not get ready (read {line!r})")
    return proc, setup_s


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return out


def setup_only(job_path: Path, deadline: float, procs: list) -> float:
    proc, setup_s = start_worker(job_path, True, deadline, procs)
    finish_worker(proc, deadline)
    return setup_s


def measure(workload: str, seed: int, seconds: int, trace: bool,
            env: dict) -> tuple[list[float], dict]:
    """Set-up samples and the measuring worker's report."""
    deadline = time.monotonic() + DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    procs: list[subprocess.Popen] = []
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            workdir = Path(tmp)
            job = {"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "workdir": str(workdir), "l3_bytes": env["l3_bytes"],
                   "spans_path": str(WORK_ROOT / f"spans-{workload}.json"),
                   "inputs": make_inputs(workload, seed, "full", workdir)}
            job_path = workdir / "job.json"
            job_path.write_text(json.dumps(job))
            setups = [setup_only(job_path, deadline, procs)
                      for _ in range(0 if trace else SETUP_ONLY_BEFORE)]
            proc, setup_s = start_worker(job_path, False, deadline, procs)
            setups.append(setup_s)
            report = json.loads(finish_worker(proc, deadline).strip().splitlines()[-1])
            setups += [setup_only(job_path, deadline, procs)
                       for _ in range(0 if trace else SETUP_ONLY_AFTER)]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return setups, report


def typical_round(rounds: list[dict], key: str) -> float:
    """Seconds of one round, each operation taken at its median over the
    rounds: a slow patch of the machine that hits one round in a few
    operations does not move it, as it would move a median of round totals."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in rounds)))


def layer_value(name: str, stats: dict, copy_gbps: float) -> float:
    """A per-layer metric `<module>.<function>.<stat>` from one round's span
    stats; gbps, bw_frac and mib_per_s derive from bytes and time."""
    span, stat = name.rsplit(".", 1)
    entry = stats.get(span, {})
    if stat in ("calls", "bytes"):
        return entry.get(stat, 0)
    if stat in ("busy_s", "self_s"):
        return entry.get(stat, 0.0)
    if stat in ("gbps", "bw_frac"):
        busy = entry.get("busy_s", 0.0)
        gbps = entry.get("bytes", 0.0) / busy / 1e9 if busy else 0.0
        return gbps if stat == "gbps" else gbps / copy_gbps
    if stat == "mib_per_s":
        busy = entry.get("self_s", 0.0)
        return entry.get("bytes", 0.0) / 2 ** 20 / busy if busy else 0.0
    raise ValueError(f"unknown per-layer statistic in {name!r}")


def layer_metrics(names: list[str], report: dict) -> dict[str, float]:
    """Lower median over traced rounds, so that each value was measured in
    one round; a span seen only during set-up (such as uniform_superposition
    on circuit-24) is reported from the set-up."""
    traced = [r for r in report["rounds"] if r["traced"]]
    plain = [r for r in report["rounds"] if not r["traced"]]
    copy = report["copy_gbps"]
    values = {
        "machine.copy_gbps": copy,
        "trace.overhead_s": (typical_round(traced, "op_wall")
                             - typical_round(plain, "op_wall")),
        "trace.top_level_frac": statistics.median_low(r["top_frac"] for r in traced),
    }
    for name in names:
        if name in values:
            continue
        span = name.rsplit(".", 1)[0]
        if any(span in r["layers"] for r in traced):
            values[name] = statistics.median_low(layer_value(name, r["layers"], copy)
                                                 for r in traced)
        else:
            values[name] = layer_value(name, report["setup_layers"], copy)
    return {name: values[name] for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toricgate" / "__init__.py").is_file():
        print(f"bench: no toricgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    try:
        setups, report = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), env)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    rounds = report["rounds"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(list(units), report)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"wall_s": typical_round(rounds, "op_wall"),
                  "cpu_s": typical_round(rounds, "op_cpu"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": report["peak_rss_mib"]}
    attempted, failed = report["attempted"], report["failed"]
    print("env " + json.dumps({"workload": args.workload, **env}))
    print(f"rounds {len(rounds)} ops_per_round {len(rounds[0]['op_wall'])} "
          f"round_wall_s {[round(sum(r['op_wall']), 4) for r in rounds]} "
          f"setup_samples_s {[round(s, 4) for s in setups]}")
    print(f"error_rate {failed / attempted} ({failed} of {attempted} ops failed)")
    for failure in report["failures"]:
        print(f"failed {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
