"""Paired A/B runs of perfbench: a base revision against this checkout.

    python3 scripts/bench_ab.py BASE_REV --workload medium-train --pairs 10 --seed 1 \
        --out BENCH.json

Run from anywhere inside the repository. ``BASE_REV`` is unpacked with
``git archive`` into a temporary directory (under ``$TMPDIR``), and
this checkout's ``perfbench/`` is copied over the base's, so both sides run
the same benchmark code against their own ``src/``. Each pair runs
``perfbench/run.py --trace 0`` once on each side for the ``run_seconds`` of
``BENCHMARK.json``, and successive pairs alternate which side goes first, so
drift in the host's speed falls on both sides alike. ``--workload`` may be
given more than once.

The JSON written to ``--out`` holds the machine record and, per workload:
every run's metrics; per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the pairs each side won, the median of the
paired change/base ratios and a verdict; and both sides' ``eval_loss_end``
values and run-artifact digests, with whether they are equal. Each run
entry also records how many train-and-score cycles each side's run made
(``train_runs``), which moves ``peak_rss_mb``. A verdict is
``gain`` when the change wins at least nine tenths of the pairs and its
median beats the base's by more than the base's interquartile range,
``regression`` when its median is worse by more than the metric's bound,
``unresolved`` when either side's relative interquartile range exceeds the
bound (unless every change run beats every base run), and ``within bound``
otherwise. When any run of a workload, on either side, reports
``"correct": false`` (its outputs failed perfbench's checks), every verdict
of that workload is ``incorrect`` and the script exits with 1. The
temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(commit: str, dest: str) -> None:
    """The files of ``commit`` written into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    """One untraced perfbench run in ``tree``; its result, info and machine."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--out", out_dir,
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    info_prefix = f"{workload}-seed{seed}-trace0: {{"
    for line in lines:
        if line.startswith("machine "):
            result["machine"] = json.loads(line[len("machine ") :])
        elif line.startswith(info_prefix):
            result["info"] = json.loads(line[len(info_prefix) - 1 :])
    return result


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, pair wins, paired ratio and verdict of one metric."""
    b, c = np.asarray(base, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = np.percentile(b, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(c, [25, 50, 75])
    diffs = sign * (c - b)
    wins, losses = int((diffs > 0).sum()), int((diffs < 0).sum())
    worse_by = -sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max(
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    every_run_better = bool((sign * c).min() > (sign * b).max())
    if wins >= math.ceil(0.9 * b.size) and sign * (c_med - b_med) > b_q3 - b_q1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = c / b
    return {
        "better": better,
        "bound": bound,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "iqr": b_q3 - b_q1},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "iqr": c_q3 - c_q1},
        "change_wins": wins,
        "base_wins": losses,
        "ties": int(b.size - wins - losses),
        "paired_ratio_median": float(np.median(ratios)),
        "change_vs_base_median": float(c_med / b_med) if b_med else None,
        "verdict": verdict,
    }


def run_workload(trees: dict, workload: str, args, spec: dict, scratch: str) -> dict:
    runs = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        entry = {"pair": pair, "first": order[0]}
        for side in order:
            out_dir = os.path.join(scratch, f"out-{side}")
            entry[side] = run_once(trees[side], workload, args.seed, args.seconds, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            value = entry[side]["metrics"].get("train_tokens_per_s", {}).get("value")
            print(f"{workload} pair {pair} {side}: train_tokens_per_s={value}", file=sys.stderr)
        runs.append(entry)
    return summarize_runs(runs, spec)


def summarize_runs(runs: list[dict], spec: dict) -> dict:
    """One workload's report from its paired runs; every verdict is
    ``incorrect`` when any run on either side failed perfbench's checks."""
    sides = ("base", "change")
    correct = {s: all(r[s]["correct"] for r in runs) for s in sides}
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if all(name in r[s]["metrics"] for r in runs for s in sides):
            series = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in sides}
            metrics[name] = summarize(series["base"], series["change"], m["better"], m["bound"])
            metrics[name]["unit"] = m["unit"]
            if not all(correct.values()):
                metrics[name]["verdict"] = "incorrect"
    evals = {s: [r[s]["metrics"].get("eval_loss_end", {}).get("value") for r in runs] for s in sides}
    digests = {s: [r[s].get("info", {}).get("artifacts_sha256") for r in runs] for s in sides}
    return {
        "machine": runs[0]["base"].get("machine"),
        "correct": correct,
        "metrics": metrics,
        "eval_loss_end": dict(evals, equal=evals["base"] == evals["change"]),
        "artifacts_sha256": dict(digests, equal=digests["base"] == digests["change"]),
        "runs": [
            {
                "pair": r["pair"],
                "first": r["first"],
                **{s: {k: v["value"] for k, v in r[s]["metrics"].items()} for s in sides},
                # perfbench keeps every cycle's results alive, so peak_rss_mb
                # rises with the number of train-and-score cycles that fit
                "train_runs": {s: r[s].get("info", {}).get("train_runs") for s in sides},
            }
            for r in runs
        ],
    }


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="paired perfbench A/B against a base revision")
    parser.add_argument("base_rev")
    parser.add_argument("--workload", action="append", choices=workloads, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # With fewer than ten pairs the host's drift alone moved a paired
    # median by 10%, and a gain needs nine tenths of at least ten pairs.
    if args.pairs < 10 or args.seed < 0:
        parser.error("--pairs must be >= 10 and --seed >= 0")
    args.seconds = float(spec["run_seconds"])

    base_commit = _git("rev-parse", "--verify", args.base_rev + "^{commit}")
    scratch = tempfile.mkdtemp(prefix="bench_ab-")
    base_tree = os.path.join(scratch, "base")
    try:
        _unpack(base_commit, base_tree)
        shutil.rmtree(os.path.join(base_tree, "perfbench"))
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(base_tree, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        trees = {"base": base_tree, "change": ROOT}
        report = {
            "command": ["scripts/bench_ab.py", *(argv if argv is not None else sys.argv[1:])],
            "base_rev": args.base_rev,
            "base_commit": base_commit,
            "change_commit": _git("rev-parse", "HEAD"),
            "change_src_dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "workloads": {w: run_workload(trees, w, args, spec, scratch) for w in args.workload},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, res in report["workloads"].items():
        for name, m in res["metrics"].items():
            print(
                f"{w} {name}: base {m['base']['median']:.6g} change {m['change']['median']:.6g}"
                f" ratio {m['paired_ratio_median']:.4f} wins {m['change_wins']}/{args.pairs}"
                f" {m['verdict']}"
            )
    if not all(all(res["correct"].values()) for res in report["workloads"].values()):
        print("a run failed perfbench's output checks: verdicts are incorrect", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
