"""qrf benchmark: four seeded closed-loop workloads, gated on correctness.

    python3 qrfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file and the
library is imported from its ``src/``.  Each workload runs in fresh child
processes started one at a time, with the BLAS/OpenMP pools pinned to one
thread before numpy is imported.  With ``--trace 0`` five processes measure
set-up and the last of them runs the job list for S seconds; with
``--trace 1`` one process alternates untraced and traced passes and reports
per-layer figures.

Prints a report by name and unit, then, as the last line, one JSON object
with keys correct, attempted, failed and metrics.  Exits 1 when a job fails
a correctness gate and 2 when the checkout has no library sources.
See NOTES.md for the metrics and the reasons for each workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "evolve-large", "switch-small", "classical-ensemble")
SETUP_PROCESSES = 5
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A child is stopped after this long, so a run ends within 180 s at --seconds <= 60.
CHILD_TIMEOUT_S = 110


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env.pop("QRF_THREADS", None)  # a no-op without threadpoolctl; the pins above hold
    return env


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(seed):
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    caches = cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "threads": "1 (" + ", ".join(f"{name}=1" for name in THREAD_VARIABLES) + ")",
        "commit": git_commit(),
        "seed": seed,
    }


def run_child(workload, seed, seconds, mode, out_dir):
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--out", str(out_dir),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} {mode} process exceeded {CHILD_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} {mode} process exited {done.returncode}")
    raw = json.loads(lines[-1])
    if raw.get("failed"):
        sys.stderr.write(done.stderr)  # the failed jobs' reasons
    return raw


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(latencies):
    """Highest of p99/p95/p90/p75 with at least ten jobs beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        rank = -(-n * pct // 100)  # ceil
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def measure(workload, seed, seconds, trace, out_dir):
    """Run one workload; return (report lines, JSON metrics, attempted, failed)."""
    lines = []
    if trace:
        raw = run_child(workload, seed, seconds, "trace", out_dir)
        metrics = raw["per_layer"]
        for name, entry in metrics.items():
            lines.append(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
        if raw["boundaries_missing"]:
            lines.append("  boundaries skipped (no longer exist): " + ", ".join(raw["boundaries_missing"]))
        lines.append(
            f"  ({len(raw['traced_pass_s'])} traced and {len(raw['pass_s'])} untraced passes"
            f" of {raw['jobs_per_pass']} jobs; times and counts are per pass)"
        )
        return lines, metrics, raw["attempted"], raw["failed"]

    setups = [run_child(workload, seed, seconds, "setup", out_dir)["setup_s"] for _ in range(SETUP_PROCESSES - 1)]
    raw = run_child(workload, seed, seconds, "run", out_dir)
    setups.append(raw["setup_s"])
    passes, jobs = raw["pass_s"], raw["job_ms"]
    s1, setup_s, s3 = quartiles(setups)
    r1, run_s, r3 = quartiles(passes)
    j1, p50, j3 = quartiles(jobs)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "job_p50_ms": {"value": p50, "unit": "ms"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MiB"},
    }
    lines.append(f"  setup_s      {setup_s:12.6g} s      quartiles {s1:.4g}..{s3:.4g}, n={len(setups)} fresh processes")
    lines.append(
        f"  run_s        {run_s:12.6g} s      quartiles {r1:.4g}..{r3:.4g}, n={len(passes)} passes"
        f" of {raw['jobs_per_pass']} jobs"
    )
    lines.append(f"  job_p50_ms   {p50:12.6g} ms     quartiles {j1:.4g}..{j3:.4g}, n={len(jobs)} jobs")
    tail_ms = tail(jobs)
    if tail_ms is None:
        lines.append(f"  job_tail_ms  {'omitted':>12}        fewer than 40 jobs (n={len(jobs)}) cannot support p75")
    else:
        pct, value, beyond = tail_ms
        lines.append(f"  job_tail_ms  {value:12.6g} ms     p{pct}, {beyond} jobs beyond, n={len(jobs)} jobs")
    lines.append(
        f"  failed_frac  {raw['failed'] / raw['attempted']:12.6g} ratio  {raw['failed']}/{raw['attempted']} jobs"
    )
    lines.append(f"  peak_rss_mb  {raw['peak_rss_mb']:12.6g} MiB")
    lines.append(f"  rejected     {raw['rejected_inputs']:12d} count  input draws screened out before their job")
    if raw["ref_error"] is not None:
        lines.append(f"  ref_error    {raw['ref_error']:12.6g} abs    max over the first pass (repeats exactly for a seed)")
    return lines, metrics, raw["attempted"], raw["failed"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if not (ROOT / "src" / "qrf" / "__init__.py").is_file():
        print(f"qrfbench: no library sources at {ROOT / 'src' / 'qrf'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out" / f"{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print("# qrfbench " + json.dumps(env, sort_keys=True))
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            lines, found, tried, broke = measure(name, args.seed, args.seconds, args.trace, out_dir)
            print(f"{name} (seed {args.seed}, {args.seconds} s, trace {args.trace}):")
            print("\n".join(lines))
            attempted += tried
            failed += broke
            correct = correct and broke == 0
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + key: value for key, value in found.items()})
    except RuntimeError as exc:
        print(f"qrfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
