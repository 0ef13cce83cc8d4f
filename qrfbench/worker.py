"""Run one workload in one fresh process and print its raw figures as JSON.

    python3 qrfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace --out DIR

``setup`` stops after set-up; ``run`` repeats the workload's job list in
passes until S seconds have gone; ``trace`` alternates untraced and traced
passes and reports per-layer figures.  run.py starts this script with the
BLAS/OpenMP pools pinned to one thread.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import qrf

    if Path(qrf.__file__).resolve().parent != (ROOT / "src" / "qrf").resolve():
        print(f"worker: imported qrf from {qrf.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from tracing import Tracer, Untraced, install_boundaries, per_layer_metrics, restore_boundaries
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    draws = itertools.count()
    rejected = []

    def next_input():
        for index in draws:
            x = workload.make_input(index)
            if x is not None:
                return index, x
            rejected.append(index)

    first_inputs = [next_input() for _ in range(workload.jobs_per_pass)]
    setup_s = time.perf_counter() - STARTED
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    untraced = Untraced()
    pass_s = {False: [], True: []}
    job_ms, refs, failures = [], [], []
    attempted = failed = 0
    missing: list[str] = []
    started = time.perf_counter()
    first_pass = True
    while True:
        traced = args.mode == "trace" and len(pass_s[False]) > len(pass_s[True])
        restore = []
        if traced:
            restore, missing = install_boundaries(tracer)
        tr = tracer if traced else untraced
        total = 0.0
        for k in range(workload.jobs_per_pass):
            index, x = first_inputs[k] if first_pass else next_input()
            attempted += 1
            if traced:
                tracer.job = index
            begin = time.perf_counter()
            try:
                result = workload.job(x, tr)
                error = None
            except Exception:  # a job that raises counts as failed; keep looping
                error = traceback.format_exc()
            elapsed = time.perf_counter() - begin
            tracer.job = None
            total += elapsed
            job_ms.append(1e3 * elapsed)
            if error is None:
                problems, ref = workload.check(x, result)
                if ref is not None and first_pass:
                    refs.append(ref)
            else:
                problems = [error]
            if problems:
                failed += 1
                failures.append(f"job {index}: " + "; ".join(problems))
        first_pass = False
        restore_boundaries(restore)
        pass_s[traced].append(total)
        done = time.perf_counter() - started >= args.seconds
        if done and (args.mode == "run" or pass_s[True]):
            break

    for line in failures[:20]:
        print(line, file=sys.stderr)
    report = {
        "setup_s": setup_s,
        "pass_s": pass_s[False],
        "job_ms": job_ms,
        "jobs_per_pass": workload.jobs_per_pass,
        "attempted": attempted,
        "failed": failed,
        "rejected_inputs": len(rejected),
        "ref_error": max(refs) if refs else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.mode == "trace":
        tracer.write(args.out.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
        work_counts = getattr(workload, "work_counts", dict)()
        metrics = per_layer_metrics(tracer, pass_s[True], pass_s[False], missing, work_counts)
        report["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        report["boundaries_missing"] = missing
        report["traced_pass_s"] = pass_s[True]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
