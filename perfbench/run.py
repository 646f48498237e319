"""Benchmark of `temporal-augmenter`: train and eval runs on three preset shapes.

    python3 perfbench/run.py --workload mitbih --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, untraced then traced

Run from anywhere; the engine is imported from `src/` of the checkout that
holds this file.  One invocation:

1. generates the workload's inputs from `--seed` with the engine's `synth`
   generators (outside every timed and traced window);
2. runs `temporal-augmenter gradcheck` once;
3. repeats pairs of one fresh `train` process and fresh `eval` processes on
   the checkpoint it wrote (two of them; one when traced), until `--seconds`
   have passed, all on one core;
4. checks every pair's outputs and prints the metrics, one per line, then one
   JSON object as the last line of standard output.

With `--trace 0` the metrics are the end-to-end ones: medians over the pairs,
with times and rates scaled to the machine's speed as `reference.py`
measures it around each child process (see `scaled_metrics`).
With `--trace 1` untraced and traced pairs alternate, and the metrics are the
per-layer ones from the traced pairs (see `tracer.py` and `README.md`).
Records go to `.bench_runs/` in the checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from tracer import (CACHE_SPANS, LAYER_SPANS, LOAD_SPANS, PER_RUN_SPANS,  # noqa: E402
                    SPAN_NAMES, TOTAL_SPANS, summarize)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

# A whole invocation ends within this many seconds; children past it are killed.
DEADLINE_S = 170.0

# The cores this process may use when it starts.  The benchmark then runs on
# the first of them only, with its child processes (see `main`).
USABLE_CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    task: str
    size: int  # rows for the CSV tasks, clips per class for tess
    epochs: int


# Default ModelConfig and each preset's own optimizer, batch size and split;
# only the data size and the epoch count are set here.
WORKLOADS = {
    "mitbih": Workload("mitbih", size=1200, epochs=1),
    "tess": Workload("tess", size=30, epochs=2),
    "ionosphere": Workload("ionosphere", size=351, epochs=40),
}

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC
    env.pop("TEMPORAL_AUGMENTER_DATA", None)
    return env


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: Workload, seed: int, work_dir: str) -> str:
    """Write the workload's dataset under `work_dir`; returns the data path."""
    from temporal_augmenter import synth
    from temporal_augmenter.tensor_core import Rng

    rng = Rng(seed).derive(workload.task)
    if workload.task == "mitbih":
        path = os.path.join(work_dir, "beats.csv")
        synth.write_heartbeat_csv(path, synth.make_heartbeat_dataset(workload.size, rng))
    elif workload.task == "ionosphere":
        path = os.path.join(work_dir, "radar.csv")
        synth.write_radar_csv(path, synth.make_radar_dataset(workload.size, rng))
    else:
        path = os.path.join(work_dir, "tones")
        synth.write_tone_corpus(path, rng, clips_per_class=workload.size)
    return path


def write_config(workload: Workload, seed: int, data: str, work_dir: str) -> str:
    path = os.path.join(work_dir, "run.cfg")
    with open(path, "w") as fh:
        fh.write(f"task = {workload.task}\ndata = {data}\nseed = {seed}\n"
                 f"epochs = {workload.epochs}\n")
    return path


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_process(cmd, log_path: str, deadline: float) -> dict:
    """Run `cmd` to completion; returns its exit code and start and end times."""
    start = now()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=os.path.dirname(log_path))
    timer = threading.Timer(max(deadline - now(), 0.0), proc.kill)
    timer.start()
    try:
        proc.wait()
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    end = now()
    return {"rc": proc.returncode, "start": start, "end": end}


def run_cli(args, tag: str, out_dir: str, trace: bool, deadline: float) -> dict:
    """One `temporal-augmenter <args>` process through child.py; adds its record."""
    record_path = os.path.join(out_dir, f"{tag}.record.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path, str(int(trace)), *args]
    result = run_process(cmd, os.path.join(out_dir, f"{tag}.log"), deadline)
    result["record"] = None
    if result["rc"] == 0 and os.path.exists(record_path):
        with open(record_path) as fh:
            result["record"] = json.load(fh)
    return result


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_bytes(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# one pair
# ---------------------------------------------------------------------------

# Eval processes after each untraced train process: eval is short, so it is
# run more than once for as many readings as train gets.  A traced pair has one.
EVALS_PER_PAIR = 2


class Run:
    """State of one invocation: inputs, pairs run so far, operations and failures."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline
        self.data = make_inputs(workload, seed, work_dir)
        self.config = write_config(workload, seed, self.data, work_dir)
        reference_seconds()  # warm-up; the readings start with the first pair
        self.attempted = 0
        self.failures = []
        self.pairs = []
        self.digests = None

    def gradcheck(self) -> None:
        self.attempted += 1
        cmd = [sys.executable, "-m", "temporal_augmenter", "gradcheck"]
        result = run_process(cmd, os.path.join(self.work_dir, "gradcheck.log"), self.deadline)
        if result["rc"] != 0:
            self.failures.append(f"gradcheck exited {result['rc']}")

    def pair(self, trace: bool) -> None:
        k = len(self.pairs)
        out = os.path.join(self.work_dir, f"pair{k}")
        os.makedirs(out)
        pair = {"trace": trace, "ok": False, "ref": [reference_seconds()]}
        self.pairs.append(pair)

        self.attempted += 1
        train = run_cli(["train", "--config", self.config, "--out", out], "train", out,
                        trace, self.deadline)
        pair["train"] = train
        pair["ref"].append(reference_seconds())
        if train["record"] is None:
            self.failures.append(f"pair {k}: train exited {train['rc']}")
            return
        digests = {name: sha256(os.path.join(out, name))
                   for name in ("checkpoint.tackpt", "trainlog.csv", "report_test.json")}
        if None in digests.values():
            self.failures.append(f"pair {k}: train artifacts missing")
            return
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.failures.append(f"pair {k}: outputs differ from pair 0: {digests}")
            return

        train_report = read_bytes(os.path.join(out, "report_test.json"))
        pair["evals"] = []
        for i in range(1 if trace else EVALS_PER_PAIR):
            self.attempted += 1
            eval_dir = os.path.join(out, f"eval{i}")
            evaluation = run_cli(["eval", os.path.join(out, "checkpoint.tackpt"), self.data,
                                  "--split", "test", "--out", eval_dir], f"eval{i}", out,
                                 trace, self.deadline)
            pair["evals"].append(evaluation)
            pair["ref"].append(reference_seconds())
            if evaluation["record"] is None:
                self.failures.append(f"pair {k}: eval exited {evaluation['rc']}")
                return
            if read_bytes(os.path.join(eval_dir, "report_test.json")) != train_report:
                self.failures.append(f"pair {k}: eval report_test.json differs from train's")
                return
        report = json.loads(train_report)
        pair["quality"] = {"test_accuracy": report["overall"]["accuracy"],
                           "test_kappa": report["overall"]["kappa"]}
        pair["ok"] = True
        shutil.rmtree(out, ignore_errors=True)

    def finished_pairs(self, trace: bool) -> list:
        return [p for p in self.pairs if p["ok"] and p["trace"] == trace]

    def has_results(self, trace: bool) -> bool:
        return bool(self.finished_pairs(False)) and (not trace or bool(self.finished_pairs(True)))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def pair_metrics(pair: dict) -> list:
    """The metrics of each process of a pair: the train's, then each eval's."""
    train = pair["train"]
    fit = train["record"]["probe"]
    rows = [{
        "setup_s": fit["first_enter"] - train["start"],
        "train_samples_per_s": fit["samples"] / fit["inside_s"],
        "train_s": train["end"] - train["start"],
        "train_peak_rss_mb": train["record"]["peak_rss_mb"],
    }]
    for evaluation in pair["evals"]:
        predict = evaluation["record"]["probe"]
        rows.append({
            "eval_s": evaluation["end"] - evaluation["start"],
            "eval_samples_per_s": predict["rows"] / predict["inside_s"],
            "eval_peak_rss_mb": evaluation["record"]["peak_rss_mb"],
        })
    return rows


# Times and rates are scaled; peak memory does not depend on speed.
TIMES = ("setup_s", "train_s", "eval_s")
RATES = ("train_samples_per_s", "eval_samples_per_s")


def scaled_metrics(pair: dict) -> list:
    """`pair_metrics` at the reference speed.

    The reference work was timed right before and right after each child
    process.  A time is multiplied, and a rate divided, by `REFERENCE_S` over
    the mean of the two readings around its process, so a stretch in which
    the machine runs slow for reasons outside the engine cancels out, while a
    change in the engine does not.
    """
    rows = pair_metrics(pair)
    refs = pair["ref"]
    for i, row in enumerate(rows):
        speed = REFERENCE_S / ((refs[i] + refs[i + 1]) / 2.0)
        for key in row:
            if key in TIMES:
                row[key] *= speed
            elif key in RATES:
                row[key] /= speed
    return rows


def median_of(rows: list) -> dict:
    """Per key, the median of the rows that have it (the lower one of an even
    count, so it was measured)."""
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: statistics.median_low(row[key] for row in rows if key in row) for key in keys}


def end_to_end(run: Run) -> dict:
    values = median_of([row for p in run.finished_pairs(trace=False)
                        for row in scaled_metrics(p)])
    values["ok_frac"] = 1.0 - len(run.failures) / run.attempted
    return values


def layer_metrics(pair: dict) -> dict:
    """Per-layer numbers of one traced pair (train and eval process together)."""
    train_rec, eval_rec = pair["train"]["record"], pair["evals"][0]["record"]
    spans = {}
    counters = {}
    for rec in (train_rec, eval_rec):
        for name, entry in summarize(rec["spans"]).items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for key, value in rec["counters"].items():
            counters[key] = counters.get(key, 0) + value
    steps = spans["optim.step"]["calls"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for name in SPAN_NAMES:
        entry = spans.get(name, zero)
        per = 1 if name in PER_RUN_SPANS else steps
        out[f"{name}.ms"] = entry["self_s"] * 1000.0 / per
        out[f"{name}.calls"] = entry["calls"]
        if name in TOTAL_SPANS:
            out[f"{name}.total_ms"] = entry["total_s"] * 1000.0 / per
        if name in LAYER_SPANS:
            out[f"{name}.bytes"] = counters.get(f"{name}.bytes", 0)
    for name in CACHE_SPANS:
        out[f"{name}.cache_bytes"] = eval_rec["counters"].get(f"{name}.cache_bytes", 0)
    out["tensor_core.Rng.draws"] = counters.get("tensor_core.Rng.draws", 0)
    load_s = sum(spans.get(name, zero)["total_s"] for name in LOAD_SPANS)
    out["data.rows_per_s"] = counters.get("data.rows", 0) / load_s
    return out


def per_layer(run: Run) -> dict:
    traced = run.finished_pairs(trace=True)
    values = median_of([dict(layer_metrics(p), **p["quality"]) for p in traced])
    untraced_train = statistics.median_low(scaled_metrics(p)[0]["train_s"]
                                           for p in run.finished_pairs(trace=False))
    traced_train = statistics.median_low(scaled_metrics(p)[0]["train_s"] for p in traced)
    values["trace.overhead_frac"] = traced_train / untraced_train - 1.0
    values["failed_frac"] = len(run.failures) / run.attempted
    return values


def load_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(workload_name: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, check=False)
        commit = probe.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "nproc_usable": len(USABLE_CPUS), "pinned_cpu": USABLE_CPUS[0], "git_commit": commit,
            "workload": workload_name, "seed": seed}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def loop(run: Run, seconds: float, trace: bool) -> None:
    """Pairs for `seconds`; with trace, untraced and traced pairs alternate.

    A pair starts only if the longest pair so far still fits in `seconds`,
    once the run has the pairs it needs.
    """
    start = now()
    longest = 0.0
    while len(run.failures) <= 3:
        pair_start = now()
        run.pair(trace and len(run.pairs) % 2 == 1)
        longest = max(longest, now() - pair_start)
        if run.has_results(trace) and now() + longest - start > seconds:
            return
        if now() + longest > run.deadline:
            return


def execute(workload_name: str, seed: int, seconds: float, trace: bool,
            workloads: dict = WORKLOADS) -> dict:
    """Run one invocation and store its record under `.bench_runs/`; returns the record."""
    deadline = now() + DEADLINE_S
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work_dir = os.path.join(RUNS_DIR, tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        run = Run(workloads[workload_name], seed, work_dir, deadline)
        run.gradcheck()
        loop(run, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record = {
        "env": environment(workload_name, seed),
        "workload": vars(run.workload),
        "trace": trace,
        "seconds": seconds,
        "attempted": run.attempted,
        "failures": run.failures,
        "digests": run.digests,
        "reference_s": REFERENCE_S,
        "pairs": [{"trace": p["trace"], "ok": p["ok"], "ref": p["ref"],
                   **({"metrics": pair_metrics(p), "scaled": scaled_metrics(p), **p["quality"]}
                      if p["ok"] else {})}
                  for p in run.pairs],
        "metrics": None,
    }
    if run.has_results(trace):
        record["metrics"] = per_layer(run) if trace else end_to_end(run)
    if trace:
        record["spans"] = [{"train": p["train"]["record"]["spans"],
                            "eval": p["evals"][0]["record"]["spans"]}
                           for p in run.finished_pairs(True)]
    with open(os.path.join(RUNS_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh)
    return record


def result_line(record: dict, units: dict) -> str:
    """The last line of standard output: the result the benchmark reports."""
    return json.dumps({"correct": not record["failures"], "attempted": record["attempted"],
                       "failed": len(record["failures"]),
                       "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                                   for name, unit in units.items()}})


def report(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one invocation and print its metrics; returns the exit code."""
    units = load_units(trace)
    record = execute(workload_name, seed, seconds, trace)
    env = record["env"]
    print(f"# {workload_name} seed={seed} trace={int(trace)}: python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']} x{env['blas_threads']} threads, "
          f"nproc {env['nproc']}, commit {env['git_commit']}")
    print(f"# pairs: {sum(p['ok'] for p in record['pairs'])} ok of {len(record['pairs'])}; "
          f"digests: {record['digests']}")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")
    untraced = [p for p in record["pairs"] if p["ok"] and not p["trace"]]
    if untraced:
        unscaled = median_of([row for p in untraced for row in p["metrics"]])
        speed = statistics.median(REFERENCE_S / r for p in untraced for r in p["ref"])
        print(f"# reference speed {speed:.3f}; unscaled medians: "
              + ", ".join(f"{key} = {value:.6g}" for key, value in unscaled.items()))
    values = record["metrics"]
    missing = sorted(set(units) - set(values or {}))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    print(result_line(record, units), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or 'all' for every workload untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "temporal_augmenter", "cli.py")):
        print(f"perfbench: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Each core of a shared machine slows down and speeds up on its own, so
    # the reference work must run on the core the children run on.
    os.sched_setaffinity(0, USABLE_CPUS[:1])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload != "all":
        return report(args.workload, args.seed, args.seconds, bool(args.trace))
    codes = [report(name, args.seed, args.seconds, trace)
             for name in WORKLOADS for trace in (False, True)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
