"""Command-line entry points: train, eval, gradcheck, report.

Exit codes: 0 success, 2 configuration error (also used by argparse),
3 data error or missing artifact, 4 training divergence, 5 gradient-check
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from . import metrics, model as model_mod, optim
from .config import ConfigError, RunConfig, format_config, load_config
from .data import (
    DataError,
    Dataset,
    ScalerParams,
    SplitSpec,
    apply_scaler,
    fit_scaler,
    load_csv_signals,
    load_wav_dir,
    split,
)
from .model import ModelConfig
from .optim import TrainingDivergenceError
from .tensor_core import Rng


def _load_dataset(schema: str, path: str, target_len: int, label_col: str | None) -> Dataset:
    if schema == "wav":
        return load_wav_dir(path, target_len)
    return load_csv_signals(path, schema, label_col=label_col)


def _model_config(cfg: RunConfig, ds: Dataset) -> ModelConfig:
    kwargs = dict(cfg.model_overrides)
    try:
        return ModelConfig(input_timesteps=ds.features.shape[1],
                           input_channels=ds.features.shape[2],
                           num_classes=ds.num_classes, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model configuration: {exc}") from None


def _write_report(report: metrics.Report, out_dir: str, stem: str) -> None:
    payload = json.dumps(metrics.report_to_dict(report), sort_keys=True, indent=2)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        fh.write(payload + "\n")
    with open(os.path.join(out_dir, f"{stem}.txt"), "w") as fh:
        fh.write(metrics.format_report(report))


def run_training(cfg: RunConfig, out_dir: str) -> dict:
    """Full training pipeline; returns paths of the written artifacts."""
    data_path = cfg.resolved_data_path()
    ds = _load_dataset(cfg.schema, data_path, cfg.target_len, cfg.label_col)
    train_set, val_set, test_set = split(ds, cfg.split)
    scaler = None
    if cfg.standardize:
        scaler = fit_scaler(train_set)
        train_set = apply_scaler(scaler, train_set)
        val_set = apply_scaler(scaler, val_set)
        test_set = apply_scaler(scaler, test_set)
    model_cfg = _model_config(cfg, ds)
    root_rng = Rng(cfg.seed)
    net = model_mod.build(model_cfg, root_rng.derive("init"))
    _, log = optim.fit(net, train_set, val_set, cfg.train, rng=root_rng.derive("train"))

    os.makedirs(out_dir, exist_ok=True)
    probs = optim.predict_probs(net, test_set.features)
    report = metrics.classification_report(test_set.labels, probs, ds.class_names,
                                           split="test",
                                           total_params=model_mod.param_count(net))
    extras = {
        "task": cfg.task,
        "schema": cfg.schema,
        "label_col": cfg.label_col,
        "target_len": cfg.target_len,
        "standardize": cfg.standardize,
        "split": {"ratios": list(cfg.split.ratios), "seed": cfg.split.seed,
                  "stratified": cfg.split.stratified},
        "class_names": list(ds.class_names),
        "run_seed": cfg.seed,
    }
    extra_tensors = {}
    if scaler is not None:
        extra_tensors = {"scaler_mean": scaler.mean, "scaler_std": scaler.std}
    paths = {
        "checkpoint": os.path.join(out_dir, "checkpoint.tackpt"),
        "trainlog": os.path.join(out_dir, "trainlog.csv"),
        "report_json": os.path.join(out_dir, "report_test.json"),
        "report_txt": os.path.join(out_dir, "report_test.txt"),
        "config": os.path.join(out_dir, "config.txt"),
    }
    model_mod.save_checkpoint(paths["checkpoint"], net, extras=extras,
                              extra_tensors=extra_tensors)
    log.to_csv(paths["trainlog"])
    _write_report(report, out_dir, "report_test")
    with open(paths["config"], "w") as fh:
        fh.write(format_config(cfg))
    return paths


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.split.seed = args.seed
        cfg.train.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if not cfg.out:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    paths = run_training(cfg, cfg.out)
    log = optim.TrainLog.from_csv(paths["trainlog"])
    last = log.epochs[-1]
    print(f"trained {cfg.task} for {last.epoch} epochs: "
          f"train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def _checked_extras(path, extras: dict, num_classes: int) -> dict:
    """The checkpoint extras that eval reads, with train's defaults for absent keys.

    A value train could not have written raises DataError naming ``path``
    and the key, so an edited header exits 3 instead of failing later.
    """
    def bad(key, expected, value):
        return DataError(f"{path}: checkpoint extra {key!r} must be {expected}, got {value!r}")

    schema = extras.get("schema", "generic")
    target_len = extras.get("target_len", 1024)
    label_col = extras.get("label_col")
    names = extras.get("class_names")
    if not isinstance(schema, str):
        raise bad("schema", "a string", schema)
    if type(target_len) is not int or target_len < 1:
        raise bad("target_len", "a positive integer", target_len)
    if label_col is not None and not isinstance(label_col, str):
        raise bad("label_col", "a string or null", label_col)
    if names is not None and (not isinstance(names, list) or len(names) != num_classes
                              or not all(isinstance(c, str) for c in names)):
        raise bad("class_names", f"a list of {num_classes} strings", names)
    split_info = extras.get("split", {})
    if not isinstance(split_info, dict):
        raise bad("split", "an object", split_info)
    ratios = split_info.get("ratios", [0.6, 0.2, 0.2])
    seed = split_info.get("seed", 0)
    stratified = split_info.get("stratified", False)
    if not isinstance(ratios, list) or not all(
            isinstance(r, (int, float)) and not isinstance(r, bool) for r in ratios):
        raise bad("split.ratios", "a list of numbers", ratios)
    if type(seed) is not int:
        raise bad("split.seed", "an integer", seed)
    if type(stratified) is not bool:
        raise bad("split.stratified", "a boolean", stratified)
    spec = SplitSpec(ratios=tuple(ratios), seed=seed, stratified=stratified)
    try:
        spec.validate()
    except ValueError as exc:
        raise DataError(f"{path}: checkpoint extra 'split.ratios': {exc}") from None
    return {"schema": schema, "target_len": target_len, "label_col": label_col,
            "class_names": names, "split": spec}


def cmd_eval(args) -> int:
    if not os.path.exists(args.checkpoint):
        raise DataError(f"checkpoint not found: {args.checkpoint}")
    net, extras, extra_tensors = model_mod.load_checkpoint(args.checkpoint)
    settings = _checked_extras(args.checkpoint, extras, net.config.num_classes)
    ds = _load_dataset(settings["schema"], args.data, settings["target_len"],
                       settings["label_col"])
    if ds.num_classes != net.config.num_classes:
        raise ConfigError(
            f"class-count mismatch: checkpoint expects {net.config.num_classes} "
            f"classes, data has {ds.num_classes}")
    if ds.features.shape[1:] != (net.config.input_timesteps, net.config.input_channels):
        raise ConfigError(
            f"schema mismatch: checkpoint expects inputs "
            f"[{net.config.input_timesteps}, {net.config.input_channels}], data is "
            f"{list(ds.features.shape[1:])}")
    parts = dict(zip(("train", "val", "test"), split(ds, settings["split"])))
    subset = parts[args.split]
    scaler_keys = [key for key in ("scaler_mean", "scaler_std") if key in extra_tensors]
    if len(scaler_keys) == 1:
        missing = "scaler_std" if scaler_keys == ["scaler_mean"] else "scaler_mean"
        raise DataError(f"{args.checkpoint}: checkpoint has tensor 'extra.{scaler_keys[0]}' "
                        f"but not 'extra.{missing}'")
    if scaler_keys:
        subset = apply_scaler(ScalerParams(mean=extra_tensors["scaler_mean"],
                                           std=extra_tensors["scaler_std"]), subset)
    probs = optim.predict_probs(net, subset.features)
    report = metrics.classification_report(subset.labels, probs,
                                           settings["class_names"] or ds.class_names,
                                           split=args.split,
                                           total_params=model_mod.param_count(net))
    print(metrics.format_report(report))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_report(report, args.out, f"report_{args.split}")
    return 0


def cmd_gradcheck(args) -> int:
    components = [args.module] if args.module else None
    try:
        results = gradcheck_mod.run(components=components, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    failed = False
    for name, err in results.items():
        ok = err < gradcheck_mod.TOLERANCE
        failed = failed or not ok
        print(f"{name:<12} max rel err {err:.3e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        print(f"gradient check FAILED (tolerance {gradcheck_mod.TOLERANCE:g})", file=sys.stderr)
        return 5
    return 0


def cmd_report(args) -> int:
    run_dir = args.run_dir
    trainlog = os.path.join(run_dir, "trainlog.csv")
    if not os.path.isdir(run_dir) or not os.path.exists(trainlog):
        raise DataError(f"run directory missing training artifacts: {run_dir}")
    report_txts = sorted(f for f in os.listdir(run_dir)
                         if f.startswith("report_") and f.endswith(".txt"))
    if not report_txts:
        raise DataError(f"run directory has no report files: {run_dir}")
    log = optim.TrainLog.from_csv(trainlog)
    curves = os.path.join(run_dir, "curves.csv")
    shutil.copyfile(trainlog, curves)
    lines = [f"Run directory: {run_dir}",
             f"Epochs: {len(log.epochs)}"]
    if log.epochs:
        last = log.epochs[-1]
        lines.append(f"Final train accuracy: {last.train_acc:.5f} (loss {last.train_loss:.5f})")
        lines.append(f"Final validation accuracy: {last.val_acc:.5f} (loss {last.val_loss:.5f})")
    lines.append(f"Curve data: {curves}")
    lines.append("")
    for fname in report_txts:
        with open(os.path.join(run_dir, fname)) as fh:
            lines.append(fh.read().rstrip())
        lines.append("")
    summary = "\n".join(lines).rstrip() + "\n"
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temporal-augmenter",
        description="Train and evaluate the dual-stream recurrent ensemble.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="path to a key=value config file")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="override the output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("checkpoint", help="checkpoint file written by train")
    p_eval.add_argument("data", help="dataset path (same schema as at training time)")
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.add_argument("--out", default=None, help="directory for report files")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_grad.add_argument("--module", default=None,
                        help=f"restrict to one component: {', '.join(sorted(gradcheck_mod.COMPONENTS))}")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_report = sub.add_parser("report", help="consolidate a run directory into a summary")
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
