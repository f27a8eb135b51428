#!/usr/bin/env python3
"""Desk-scale schedule comparison: train a few schedules on the toy corpus,
log eval-loss trajectories, and emit the speedup-analysis inputs.

Writes, under --out:
  <schedule>/seed<k>/    one run dir per schedule and seed (vocab.txt,
                         metrics.jsonl, checkpoints/), which
                         `masksched eval --checkpoint` reads as it is
  eval_series.csv        step,value,schedule rows (value = -eval_loss,
                         "higher is better" for the curve fit)
  final_losses.json      {"eval_loss": {schedule: [per-seed values]}} for
                         `masksched compare`
"""

import argparse
import csv
import json
import os

from masksched.corruption import CorruptionConfig
from masksched.data import atomic_write, build_vocab, encode_corpus, synthetic_zipf_corpus
from masksched.evaluate import EvalConfig
from masksched.model import ModelConfig
from masksched.schedule import parse_schedule
from masksched.trainer import TrainConfig, train

SCHEDULES = ("constant-0.15", "constant-0.3", "linear-0.3-0.15")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--lines", type=int, default=800)
    parser.add_argument("--eval-every", type=int, default=50)
    args = parser.parse_args()

    lines = synthetic_zipf_corpus(args.lines, n_word_types=95, seed=7)
    vocab = build_vocab(lines, max_size=100)
    model_cfg = ModelConfig(
        n_layers=2, n_heads=2, d_model=32, d_ff=64,
        vocab_size=vocab.size, max_seq_len=16, init_seed=0,
    )
    dataset = encode_corpus(vocab, lines, model_cfg.max_seq_len)

    os.makedirs(args.out, exist_ok=True)
    series_rows = []
    finals: dict[str, list[float]] = {name: [] for name in SCHEDULES}
    for name in SCHEDULES:
        for seed in args.seeds:
            cfg = TrainConfig(
                total_steps=args.steps,
                batch_size=16,
                schedule=parse_schedule(name, args.steps),
                corruption=CorruptionConfig(),
                seed=seed,
                eval_every=args.eval_every,
                eval=EvalConfig(masking_rate=0.15, seed=1234, n_batches=4),
            )
            run_dir = os.path.join(args.out, name, f"seed{seed}")
            result = train(model_cfg, cfg, dataset, vocab, out_dir=run_dir)
            evals = [
                (r.step, r.eval_loss) for r in result.metrics.records if r.eval_loss is not None
            ]
            if seed == args.seeds[0]:
                series_rows += [(step, -loss, name) for step, loss in evals]
            finals[name].append(evals[-1][1])
            print(f"{name} seed {seed}: final eval loss {evals[-1][1]:.4f}")

    series_path = os.path.join(args.out, "eval_series.csv")
    with atomic_write(series_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value", "schedule"])
        writer.writerows(series_rows)
    with atomic_write(os.path.join(args.out, "final_losses.json"), "w", encoding="utf-8") as fh:
        # negate so "higher is better" matches the compare convention
        json.dump({"eval_loss": {k: [-v for v in vs] for k, vs in finals.items()}}, fh, indent=2)
    print(f"series and samples written under {args.out}")


if __name__ == "__main__":
    main()
