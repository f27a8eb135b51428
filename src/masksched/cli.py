"""Command-line entry point: train, eval, compare, speedup, gradcheck, vocab.

Run configs are single JSON documents (unknown keys and wrong-typed values
rejected, every config checked when built, before any work starts), reports
are strict JSON on stdout (never NaN or Infinity), series are CSV, minimal
pairs are TSV. Every subcommand is deterministic given its inputs and
seeds, also across BLAS thread counts (numpy's OpenBLAS is pinned to one
thread); wall-clock timing is opt-in (--timings) and never enters a
computed result.

Exit codes: 0 ok, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis, data, evaluate, model, stats, trainer
from .corruption import CorruptionConfig
from .evaluate import EvalConfig
from .model import ModelConfig
from .schedule import parse_schedule
from .trainer import TrainConfig


@dataclasses.dataclass(frozen=True)
class RunConfig:
    corpus: str
    vocab_size: int
    model: dict
    train: dict
    out_dir: str
    eval: dict = dataclasses.field(default_factory=dict)


# The sections of a run config: the dataclasses whose fields each section
# holds, less the fields it leaves out. The train section holds the
# corruption fields flat, and the model's vocab_size is the run's.
_SECTIONS = {
    "model": ((ModelConfig,), {"vocab_size"}),
    "train": ((TrainConfig, CorruptionConfig), {"corruption", "eval"}),
    "eval": ((EvalConfig,), set()),
}

# The JSON types a run-config value may take, by its field's annotation; a
# schedule is given by its canonical name, and a bool is never accepted.
_JSON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "dict": (dict,),
    "ScheduleSpec": (str,),
}


def _fields(*classes, drop=()) -> dict[str, dataclasses.Field]:
    return {f.name: f for cls in classes for f in dataclasses.fields(cls) if f.name not in drop}


def _check_section(section: dict, where: str, *classes, drop=()) -> None:
    """Check a section against the fields of ``classes``, less ``drop``: no
    unknown key, every field that has no default given, every value of
    its field's JSON type."""
    fields = _fields(*classes, drop=drop)
    unknown = set(section) - set(fields)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = {
        name
        for name, f in fields.items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    } - set(section)
    if missing:
        raise ValueError(f"missing keys in {where}: {sorted(missing)}")
    for key, value in section.items():
        kind, _, optional = fields[key].type.partition(" | ")
        if value is None and optional == "None":
            continue
        accepted = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            names = [t.__name__ for t in accepted] + ["null"] * (optional == "None")
            raise ValueError(f"{where}: {key} must be {' or '.join(names)}, got {value!r}")


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"run config must be a JSON object, got {doc!r}")
    _check_section(doc, "run config", RunConfig)
    for name, (classes, drop) in _SECTIONS.items():
        _check_section(doc.get(name, {}), f"{name} section", *classes, drop=drop)
    return RunConfig(**{key: dict(value) if key in _SECTIONS else value for key, value in doc.items()})


def build_configs(run: RunConfig) -> tuple[ModelConfig, TrainConfig]:
    model_cfg = ModelConfig(vocab_size=run.vocab_size, **run.model)
    t = dict(run.train)
    total_steps = t.pop("total_steps")
    train_cfg = TrainConfig(
        total_steps=total_steps,
        schedule=parse_schedule(t.pop("schedule"), max(total_steps, 1)),
        corruption=CorruptionConfig(**{k: t.pop(k) for k in _fields(CorruptionConfig) if k in t}),
        eval=EvalConfig(**run.eval),
        **t,
    )
    return model_cfg, train_cfg


def _load_json(path: str):
    """Load a JSON document; an object that repeats a key raises ``ValueError``."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique_keys)


def _print_json(doc, indent: int | None = 2) -> None:
    """Print a report as strict JSON: a NaN or infinity in it raises
    ``ValueError`` instead of printing a token JSON does not have."""
    print(json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False))


def cmd_train(args) -> int:
    if args.stop_after is not None and args.stop_after < 0:
        raise ValueError("stop_after must be >= 0")
    run = parse_run_config(_load_json(args.config))
    model_cfg, train_cfg = build_configs(run)
    out_dir = run.out_dir
    config_path = os.path.join(out_dir, "config.json")
    if os.path.exists(config_path) and not (args.force or args.resume):
        raise ValueError(
            f"refusing to overwrite existing run dir {out_dir!r} (use --force)"
        )

    lines = data.load_corpus(run.corpus)
    vocab = data.build_vocab(lines, run.vocab_size)
    model_cfg = dataclasses.replace(model_cfg, vocab_size=vocab.size)
    dataset = data.encode_corpus(vocab, lines, model_cfg.max_seq_len)

    if not args.resume:
        os.makedirs(out_dir, exist_ok=True)
        with data.atomic_write(config_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(dataclasses.asdict(run), fh, indent=2, sort_keys=True)
            fh.write("\n")

    result = trainer.train(
        model_cfg,
        train_cfg,
        dataset,
        vocab,
        out_dir=out_dir,
        resume_from=args.resume,
        stop_after=args.stop_after,
        log_timings=args.timings,
    )
    summary = {
        "steps": result.step,
        "final_checkpoint": result.final_checkpoint,
    }
    if result.metrics.records:
        last = result.metrics.records[-1]
        summary["final_loss"] = last.loss
        if last.eval_loss is not None:
            summary["final_eval_loss"] = last.eval_loss
    _print_json(summary, indent=None)
    return 0


def _load_eval_context(args):
    header, params, _ = trainer.load_training_checkpoint(args.checkpoint)
    model_cfg = ModelConfig(**header["model"])
    vocab_path = args.vocab
    if vocab_path is None:
        run_dir = os.path.dirname(os.path.dirname(os.path.abspath(args.checkpoint)))
        vocab_path = os.path.join(run_dir, "vocab.txt")
    vocab = data.load_vocab(vocab_path)
    if vocab.size != model_cfg.vocab_size:
        raise ValueError(
            f"vocab file has {vocab.size} entries but the checkpoint expects "
            f"{model_cfg.vocab_size}"
        )
    return header, params, model_cfg, vocab


def cmd_eval(args) -> int:
    header, params, model_cfg, vocab = _load_eval_context(args)
    if args.pairs is not None:
        pairs = evaluate.load_minimal_pairs(args.pairs)
        report = evaluate.minimal_pair_accuracy(params, model_cfg, vocab, pairs)
        report["n_pairs"] = len(pairs)
        _print_json(report)
        return 0
    cfg = EvalConfig(masking_rate=args.rate, seed=args.seed, n_batches=args.batches)
    lines = data.load_corpus(args.corpus)
    dataset = data.encode_corpus(vocab, lines, model_cfg.max_seq_len)
    batch_size = header["train"]["batch_size"] if args.batch_size is None else args.batch_size
    loss = evaluate.eval_mlm(params, model_cfg, dataset, cfg, batch_size)
    _print_json(
        {
            "mean_loss": loss,
            "rate": args.rate,
            "seed": args.seed,
            "n_batches": args.batches,
            "step": header["step"],
        }
    )
    return 0


def cmd_compare(args) -> int:
    report = stats.parity_table(_load_json(args.samples), alpha=args.alpha)
    _print_json(report)
    print()
    print(stats.format_parity_text(report))
    return 0


def cmd_speedup(args) -> int:
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for path in args.series:
        stem = os.path.splitext(os.path.basename(path))[0]
        for name, arrays in analysis.load_series_csv(path, default_name=stem).items():
            if name in series:
                raise ValueError(f"duplicate series name {name!r}")
            series[name] = arrays
    if args.baseline not in series:
        raise ValueError(
            f"baseline {args.baseline!r} not among series {sorted(series)}"
        )
    for name, (steps, _) in series.items():
        if np.unique(steps).size < 4:
            raise ValueError(f"series {name!r} has fewer than 4 distinct steps")

    fits = {name: analysis.fit_speedup_curve(steps, values) for name, (steps, values) in series.items()}
    bad = [name for name, fit in fits.items() if not fit.converged]
    if bad:
        print(f"error: fit did not converge for {bad}", file=sys.stderr)
        return 1
    base_steps, base_values = series[args.baseline]
    baseline_best = float(base_values.max())
    baseline_total = float(base_steps.max())
    out = {
        "baseline": args.baseline,
        "baseline_best": baseline_best,
        "baseline_total_steps": baseline_total,
        "series": {},
    }
    crossovers: dict[str, float] = {}
    for name, fit in fits.items():
        entry: dict = {"fit": dataclasses.asdict(fit)}
        if name != args.baseline:
            cross = analysis.crossover_step(fit, baseline_best)
            entry["crossover_step"] = cross
            # a crossover at step 0 has no finite speedup; the 0.0 says why
            entry["speedup"] = analysis.speedup_from_steps(baseline_total, cross) if cross else None
            if cross is not None:
                crossovers[name] = cross
        out["series"][name] = entry
    _print_json(out)
    if args.plot:
        analysis.emit_plot(series, fits, args.plot, crossovers=crossovers)
    return 0


def cmd_gradcheck(args) -> int:
    config = ModelConfig(
        n_layers=args.layers,
        n_heads=args.heads,
        d_model=args.d_model,
        d_ff=args.d_ff,
        vocab_size=args.vocab_size,
        max_seq_len=args.seq_len,
        init_seed=args.seed,
    )
    report = model.grad_check(config, seed=args.seed, n_coords=args.coords, h=args.h, tol=args.tol)
    _print_json(dataclasses.asdict(report))
    return 0 if report.passed else 1


def cmd_vocab(args) -> int:
    lines = data.load_corpus(args.corpus)
    vocab = data.build_vocab(lines, args.max_size)
    data.save_vocab(vocab, args.out)
    _print_json({"size": vocab.size, "out": args.out}, indent=None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masksched",
        description="Masked-LM pretraining with dynamic masking-rate schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run pretraining from a JSON run config")
    p.add_argument("config", help="path to the run-config JSON document")
    p.add_argument("--force", action="store_true", help="overwrite an existing run dir")
    p.add_argument("--resume", metavar="CKPT", help="resume from a checkpoint file")
    p.add_argument("--stop-after", type=int, default=None, help="stop early at this step")
    p.add_argument("--timings", action="store_true", help="log wall_ms into metrics.jsonl")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="fixed-rate MLM loss or minimal-pair accuracy")
    p.add_argument("--checkpoint", required=True)
    task = p.add_mutually_exclusive_group(required=True)
    task.add_argument("--corpus", help="evaluation corpus (one document per line)")
    task.add_argument("--pairs", help="minimal-pair TSV file (pll scoring mode)")
    p.add_argument("--vocab", help="vocab file; defaults to the run dir's vocab.txt")
    p.add_argument("--rate", type=float, default=EvalConfig.masking_rate, help="eval masking rate")
    p.add_argument("--seed", type=int, default=EvalConfig.seed, help="mask seed")
    p.add_argument("--batches", type=int, default=EvalConfig.n_batches, help="eval batches")
    p.add_argument("--batch-size", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="significance report from per-seed metric samples")
    p.add_argument("samples", help="JSON file: {task: {schedule: [values]}}")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("speedup", help="fit speedup curves and solve crossovers")
    p.add_argument("series", nargs="+", help="CSV files with header step,value[,schedule]")
    p.add_argument("--baseline", required=True, help="baseline schedule name")
    p.add_argument("--plot", help="write an SVG plot to this path")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--d-model", type=int, default=8)
    p.add_argument("--d-ff", type=int, default=16)
    p.add_argument("--vocab-size", type=int, default=16)
    p.add_argument("--seq-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("vocab", help="build and write a vocabulary file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab)

    return parser


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread: its threaded products sum
    in an order that depends on the thread count, so a run's bytes would
    depend on the host's cores. Another BLAS, without the setter, is left
    as it is."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_blas_threads()
    try:
        return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
