"""Benchmark entry point for masksched.

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. Each run builds its inputs from ``--seed``,
runs one workload in this single process (a closed loop: each training step
or scoring call starts when the previous one has returned), checks the
outputs and prints one line per metric, then a JSON result as the last line
of stdout. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay. Spans, the span summary, the machine
description and the result are written to ``.perfbench_out/<run>/``.
Exit code 0 means every output check passed; 1 means a check failed or an
operation raised; 2 means the masksched sources are missing or the
arguments are invalid.

``--self-check`` runs every workload at tiny sizes, untraced and traced,
with every output check, in a few seconds.
"""

from __future__ import annotations

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _fail_without_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "masksched", "__init__.py")):
        print(f"perfbench: masksched sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, SRC]


def main(argv: list[str] | None = None) -> int:
    # Imported here, not at the top: numpy must load after the thread
    # variables are pinned, and masksched after its source path is set.
    import argparse
    import json
    import platform
    import shutil
    import traceback

    import numpy as np
    import scipy

    import masksched
    from perfbench.pipeline import run_workload
    from perfbench.workloads import WORKLOADS, tiny

    if not os.path.abspath(masksched.__file__).startswith(SRC + os.sep):
        print(f"perfbench: masksched imported from {masksched.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description="masksched benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"))
    args = parser.parse_args(argv)
    if args.self_check == (args.workload is not None):
        parser.error("give exactly one of --workload and --self-check")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np),
        "scipy_blas": _blas_version(scipy),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "machine": platform.machine(),
    }
    print("machine " + json.dumps(machine, sort_keys=True))

    if args.self_check:
        cases = [(tiny(spec), t) for spec in WORKLOADS.values() for t in (False, True)]
        seconds = 0.0
    else:
        cases = [(WORKLOADS[args.workload], bool(args.trace))]
        seconds = args.seconds

    attempted = failed = 0
    metrics: dict = {}
    for spec, traced in cases:
        run_name = f"{spec.name}-seed{args.seed}-trace{int(traced)}"
        out_dir = os.path.join(args.out, run_name)
        work = os.path.join(out_dir, "work")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(work)
        tracer = None
        try:
            metrics, tally, info, tracer = run_workload(spec, args.seed, work, seconds, traced)
        except Exception:
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
            print(f"{run_name}: FAILED (raised)")
            continue
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += tally.attempted
        failed += tally.failed
        for problem in tally.problems:
            print(f"{run_name}: CHECK FAILED {problem}")
        print(f"{run_name}: {json.dumps(info, sort_keys=True)}")
        error_rate = tally.failed / max(tally.attempted, 1)
        print(f"{run_name}: error_rate = {error_rate:.6g} ({tally.failed} of {tally.attempted} units)")
        for name, (value, unit) in metrics.items():
            print(f"{run_name}: {name} = {value:.6g} {unit}")
        if tracer is not None:
            tracer.write(os.path.join(out_dir, "spans.jsonl"), os.path.join(out_dir, "span_summary.json"))
        with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "info": info, "problems": tally.problems,
                       "metrics": metrics}, fh, indent=1, sort_keys=True)

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {} if args.self_check else {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _blas_version(package) -> str:
    blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    # BLAS threads are pinned before numpy loads: one thread per process keeps
    # the figures steady on a small shared machine, and never exceeds nproc.
    for _var in _THREAD_VARS:
        os.environ[_var] = "1"
    _fail_without_sources()
    sys.exit(main())
