"""Command-line entry points: train, eval, gradcheck, report.

Exit codes: 0 success, 2 configuration error (also used by argparse, and
for an output file that cannot be written), 3 data error or missing
artifact, 4 training divergence, 5 gradient-check failure.

A checkpoint's extras hold three keys: ``run_config``, the run's settings
as the text ``format_config`` renders; ``class_names``, the trained classes
in label order; and ``data_sha256``, the sha256 the loader took of the
training data's bytes (see ``data.DataSource``).

``train`` and ``eval`` read data through the same reader, one per format
(``load_csv_signals``, ``load_wav_dir``), which takes every label and the
data's sha256 and parses no features.  ``train`` sizes the model from it,
so a model setting that the data's shape rules out is a config error
(exit 2) naming the config file, before ``split`` parses each row once,
into its part.  ``eval`` reads ``run_config`` back with
``parse_config_text`` and builds the model config it describes for the
header's input shape and class count with ``train``'s own
``_model_config``; a setting on which it and the header's config differ is
a data error (exit 3), as is a checkpoint that lacks a valid
``run_config`` or ``data_sha256``.  Data whose classes, sample shape
or sha256 differ from the checkpoint's is a config error (exit 2), the
last naming both digests.  Only then does ``eval`` parse or decode the
requested split's rows alone, which it scales and scores; a model that
gives a row a NaN or infinite probability is a data error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import shutil
import sys
from dataclasses import fields

import numpy as np

from . import gradcheck as gradcheck_mod
from . import metrics, model as model_mod, optim
from .config import ConfigError, RunConfig, format_config, load_config, parse_config_text
from .data import (
    DataError,
    DataSource,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    load_csv_signals,
    load_wav_dir,
    read_file,
    split,
    split_indices,
    utf8_text,
)
from .model import ModelConfig
from .optim import TrainingDivergenceError
from .settings import check
from .tensor_core import Rng


def _load_source(cfg: RunConfig, path: str) -> DataSource:
    if cfg.schema == "wav":
        return load_wav_dir(path, cfg.target_len)
    return load_csv_signals(path, cfg.schema, label_col=cfg.label_col)


def _model_config(cfg: RunConfig, shape: tuple, num_classes: int) -> ModelConfig:
    """The model ``cfg`` describes for samples of ``shape`` in ``num_classes``
    classes; a ConfigError naming ``cfg.source`` if there is none."""
    try:
        return ModelConfig(*shape, num_classes, **cfg.model_overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{cfg.source}: invalid model configuration: {exc}") from None


@contextlib.contextmanager
def _writing(path: str):
    """Run the body, which writes the file ``path``; an OSError it raises,
    such as a directory at ``path``, is a ConfigError."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _write_report(report: metrics.Report, out_dir: str, stem: str) -> None:
    payload = json.dumps(metrics.report_to_dict(report), sort_keys=True, indent=2)
    _write_text(os.path.join(out_dir, f"{stem}.json"), payload + "\n")
    _write_text(os.path.join(out_dir, f"{stem}.txt"), metrics.format_report(report))


def _make_out_dir(path: str) -> None:
    """Create the directory ``path``; a path that cannot be one is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _out_dir(path: str):
    """Create the directory ``path`` before the body runs; if the body
    raises, remove the directories this made while they are still empty,
    so that a run that fails leaves none behind."""
    made, head = [], os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)  # deepest first
        head = os.path.dirname(head)
    _make_out_dir(path)
    try:
        yield
    except BaseException:
        with contextlib.suppress(OSError):  # rmdir refuses a directory that is not empty
            for made_dir in made:
                os.rmdir(made_dir)
        raise


def run_training(cfg: RunConfig):
    """Full training pipeline into ``cfg.out``; returns (TrainLog, paths of
    the written artifacts).  The output directory is created first, before
    any data is read, and removed if the run fails before writing to it; the
    model is sized before any row is parsed."""
    check(cfg)
    data_path = cfg.resolved_data_path()
    with _out_dir(cfg.out):
        source = _load_source(cfg, data_path)
        model_cfg = _model_config(cfg, source.shape, len(source.class_names))
        extras = {"run_config": format_config(cfg), "class_names": list(source.class_names),
                  "data_sha256": source.sha256}
        train_set, val_set, test_set = split(source, cfg.split, cfg.seed)
        del source  # the data's bytes, not needed past the parsed parts
        scaler = None
        if cfg.standardize:
            scaler = fit_scaler(train_set)
            train_set = apply_scaler(scaler, train_set)
            val_set = apply_scaler(scaler, val_set)
            test_set = apply_scaler(scaler, test_set)
        root_rng = Rng(cfg.seed)
        net = model_mod.build(model_cfg, root_rng.derive("init"))
        _, log = optim.fit(net, train_set, val_set, cfg.train, rng=root_rng.derive("train"))

        probs = optim.predict_probs(net, test_set.features)
        report = metrics.classification_report(test_set.labels, probs, test_set.class_names,
                                               split="test",
                                               total_params=model_mod.param_count(net))
        extra_tensors = {}
        if scaler is not None:
            extra_tensors = {"scaler_mean": scaler.mean, "scaler_std": scaler.std}
        paths = {
            "checkpoint": os.path.join(cfg.out, "checkpoint.tackpt"),
            "trainlog": os.path.join(cfg.out, "trainlog.csv"),
            "report_json": os.path.join(cfg.out, "report_test.json"),
            "report_txt": os.path.join(cfg.out, "report_test.txt"),
            "config": os.path.join(cfg.out, "config.txt"),
        }
        with _writing(paths["checkpoint"]) as path:
            model_mod.save_checkpoint(path, net, extras=extras, extra_tensors=extra_tensors)
        with _writing(paths["trainlog"]) as path:
            log.to_csv(path)
        _write_report(report, cfg.out, "report_test")
        _write_text(paths["config"], f"data = {cfg.data}\n" + extras["run_config"])
        return log, paths


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Ask the C library's malloc to keep the memory a train step frees for
    the next step; returns whether it took both settings.  Where the C
    library has no mallopt (it is glibc's), nothing changes.

    Each step frees its trace and its temporaries, then allocates the same
    sizes again.  By default glibc maps every block above a threshold that
    rises only to the largest mapped block freed so far, and hands the top
    of its heap back once twice that threshold is free there, so at small
    shapes each step faults its arrays in afresh: about 750 pages a step in
    an ionosphere run, against 13 with these settings (``getrusage``).
    Heap blocks up to 32 MiB (glibc's largest threshold) and a 256 MiB trim
    threshold keep those pages in the process; the peak resident memory of
    the benchmark's train runs did not move."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return all([mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 256 << 20)])


def cmd_train(args) -> int:
    _keep_freed_memory()
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.set("seed", args.seed)
    if args.out is not None:
        cfg.out = args.out
    if not cfg.out:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    log, paths = run_training(cfg)
    last = log.epochs[-1]
    print(f"trained {cfg.task} for {last.epoch} epochs: "
          f"train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def cmd_eval(args) -> int:
    # like train's, the output directory is made first and removed again,
    # while still empty, if eval fails
    with _out_dir(args.out) if args.out else contextlib.nullcontext():
        report = _evaluate(args)
        print(metrics.format_report(report))
        if args.out:
            _write_report(report, args.out, f"report_{args.split}")
    return 0


def _evaluate(args) -> metrics.Report:
    """The report of ``eval``'s checkpoint on its split of the data."""
    path = args.checkpoint
    net, extras, extra_tensors = model_mod.load_checkpoint(path)
    text, names, k = extras.get("run_config"), extras.get("class_names"), net.config.num_classes
    shape = (net.config.input_timesteps, net.config.input_channels)
    digest = extras.get("data_sha256")
    if not isinstance(text, str):
        raise DataError(f"{path}: checkpoint extra 'run_config' must be the run's config "
                        f"text, got {text!r}")
    if not (isinstance(names, list) and len(names) == k
            and all(isinstance(c, str) for c in names)):
        raise DataError(f"{path}: checkpoint extra 'class_names' must be a list of {k} "
                        f"strings, got {names!r}")
    if not (isinstance(digest, str) and len(digest) == 64
            and all(c in "0123456789abcdef" for c in digest)):
        raise DataError(f"{path}: checkpoint extra 'data_sha256' must be a sha256 as 64 "
                        f"lowercase hex digits, got {digest!r}")
    where = f"{path}: run_config"
    try:
        cfg = parse_config_text(text, source=where)
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    try:
        model_cfg = _model_config(cfg, shape, k)
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    for name in (f.name for f in fields(ModelConfig)):
        ours, header = getattr(model_cfg, name), getattr(net.config, name)
        if ours != header:
            raise DataError(f"{where}: {name} is {ours!r}, but the checkpoint header's config "
                            f"has {header!r}")
    source = _load_source(cfg, args.data)
    if len(source.class_names) != k:
        raise ConfigError(f"class-count mismatch: checkpoint expects {k} classes, "
                          f"data has {len(source.class_names)}")
    if source.class_names != names:
        raise ConfigError(f"class-name mismatch: checkpoint has {names}, "
                          f"data has {source.class_names}")
    if source.shape != shape:
        raise ConfigError(f"schema mismatch: checkpoint expects inputs {list(shape)}, data is "
                          f"{list(source.shape)}")
    if source.sha256 != digest:
        raise ConfigError(f"data mismatch: the checkpoint was trained on data with sha256 "
                          f"{digest}, {args.data} has sha256 {source.sha256}")
    rows = dict(zip(("train", "val", "test"),
                    split_indices(source.labels, k, cfg.split, cfg.seed)))
    part = source.load(rows[args.split])
    del source  # the data's bytes, not needed past the rows it scores
    if cfg.standardize:
        for key in ("scaler_mean", "scaler_std"):
            if key not in extra_tensors:
                raise DataError(f"{path}: run_config sets standardize, but the checkpoint "
                                f"has no tensor 'extra.{key}'")
        part = apply_scaler(ScalerParams(mean=extra_tensors["scaler_mean"],
                                         std=extra_tensors["scaler_std"]), part)
    probs = optim.predict_probs(net, part.features)
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: the model gives {args.split} sample {bad[0]} a NaN or "
                        f"infinite class probability")
    return metrics.classification_report(part.labels, probs, part.class_names,
                                         split=args.split, total_params=model_mod.param_count(net))


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
    if not os.path.isdir(run_dir) or not os.path.isfile(trainlog):
        raise DataError(f"run directory missing training artifacts: {run_dir}")
    report_txts = sorted(f for f in os.listdir(run_dir)
                         if f.startswith("report_") and f.endswith(".txt"))
    if not report_txts:
        raise DataError(f"run directory has no report files: {run_dir}")
    log = optim.TrainLog.from_csv(trainlog)
    with _writing(os.path.join(run_dir, "curves.csv")) as curves:
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
        path = os.path.join(run_dir, fname)
        lines.append(utf8_text(read_file(path, "report file"), path).rstrip())
        lines.append("")
    summary = "\n".join(lines).rstrip() + "\n"
    _write_text(os.path.join(run_dir, "summary.txt"), summary)
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
    p_eval.add_argument("data", help="the dataset the checkpoint was trained on; its sha256 "
                                     "must match the checkpoint's (exit 2 if not), and only "
                                     "the requested split's rows are parsed")
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
